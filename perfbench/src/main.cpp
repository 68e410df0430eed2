/// \file main.cpp
/// Benchmark runner entry point.  run.py builds and invokes it:
///
///   perfbench --workload campaign|lossy|serve|train --seed N --seconds S
///             --trace 0|1 --work-dir DIR [--serve-bin PATH] [--quick]
///
/// Prints one JSON line: {"attempted", "failed", "problems", "metrics"},
/// where metrics maps name -> {"value", "unit"}.  run.py shapes it into the
/// benchmark's result object.  Exits 1 on a usage error or an exception.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string to_json(const Outcome& o) {
  std::string out = "{\"attempted\": " + std::to_string(o.attempted) +
                    ", \"failed\": " + std::to_string(o.failed) + ", \"problems\": [";
  for (std::size_t i = 0; i < o.problems.size(); ++i) {
    if (i) out += ", ";
    append_json_string(out, o.problems[i]);
  }
  out += "], \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    if (i) out += ", ";
    append_json_string(out, o.metrics[i].first);
    const double v = o.metrics[i].second.first;
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, ": {\"value\": %.17g, \"unit\": ", v);
      out += buf;
    } else {
      // Python's json reads these tokens; run.py counts the metric as failed.
      out += std::isnan(v) ? ": {\"value\": NaN, \"unit\": "
                           : (v > 0 ? ": {\"value\": Infinity, \"unit\": "
                                    : ": {\"value\": -Infinity, \"unit\": ");
    }
    append_json_string(out, o.metrics[i].second.second);
    out += '}';
  }
  out += "}}";
  return out;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else if (key == "--serve-bin") {
      a.serve_bin = val;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && !a.work_dir.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload campaign|lossy|serve|train --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--serve-bin PATH] [--quick]\n");
    return 1;
  }
  Outcome out;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "campaign" || args.workload == "lossy") {
      perfbench::campaign_workload(args, out, args.workload == "lossy");
    } else if (args.workload == "train") {
      perfbench::train_workload(args, out);
    } else if (args.workload == "serve") {
      perfbench::serve_workload(args, out);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 1;
    }
    if (args.trace) perfbench::kernel_metrics(args, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  for (const auto& p : out.problems) std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  std::printf("%s\n", to_json(out).c_str());
  return 0;
}
