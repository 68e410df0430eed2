#pragma once
/// \file cli_util.hpp
/// Shared CLI plumbing for the oic_* tools (oic_eval, oic_train, oic_cert,
/// oic_mc, oic_serve): the --key value / --key=value argument parser,
/// strict count parsing, CSV list splitting, the common-flag set
/// (--cert-dir / --faults / --seed / --workers / --json), uniform
/// unknown-flag rejection, JSON file emission, and the registry listing.
/// One copy, so the binaries' flag grammar cannot drift apart.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/textio.hpp"
#include "eval/registry.hpp"

namespace oic::cliutil {

/// Minimal --key value / --key=value parser over the argv array.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Value of --key (either form); false when absent.  Consumed flags are
  /// remembered so unknown ones can be reported.
  bool value(const char* key, std::string& out) {
    const std::string eq = std::string("--") + key + "=";
    const std::string flat = std::string("--") + key;
    for (int i = 1; i < argc_; ++i) {
      if (std::strncmp(argv_[i], eq.c_str(), eq.size()) == 0) {
        seen_.push_back(i);
        out = argv_[i] + eq.size();
        return true;
      }
      if (flat == argv_[i] && i + 1 < argc_ &&
          std::strncmp(argv_[i + 1], "--", 2) != 0) {
        seen_.push_back(i);
        seen_.push_back(i + 1);
        out = argv_[i + 1];
        return true;
      }
    }
    return false;
  }

  bool flag(const char* key) {
    const std::string flat = std::string("--") + key;
    for (int i = 1; i < argc_; ++i) {
      if (flat == argv_[i]) {
        seen_.push_back(i);
        return true;
      }
    }
    return false;
  }

  /// First argv index that no lookup consumed; 0 when all were used.
  int first_unknown() const {
    for (int i = 1; i < argc_; ++i) {
      bool used = false;
      for (const int s : seen_) used = used || s == i;
      if (!used) return i;
    }
    return 0;
  }

  /// The raw argv entry at index i -- relative to whatever argv this Args
  /// was built over, so subcommand tools (oic_cert) that shift argv still
  /// report the right token for first_unknown().
  const char* arg(int i) const { return argv_[i]; }

 private:
  int argc_;
  char** argv_;
  std::vector<int> seen_;
};

/// --key with a strict integer value (textio's u64 rule: digits only, the
/// full u64 range; strtoull would wrap "-1" to 2^64-1 and crash the sweep
/// deep inside a reserve()) and a uniform diagnostic.  Returns true when
/// the flag is absent (target untouched) or parsed; prints
/// "<tool>: --<key> expects ..." and returns false on a bad value.
inline bool u64_flag(Args& args, const char* tool, const char* key,
                     std::uint64_t& target) {
  std::string v;
  if (!args.value(key, v)) return true;
  std::uint64_t n = 0;
  if (!textio::parse_u64(v, n)) {
    std::fprintf(stderr, "%s: --%s expects a non-negative integer, got '%s'\n", tool,
                 key, v.c_str());
    return false;
  }
  target = n;
  return true;
}

inline bool count_flag(Args& args, const char* tool, const char* key,
                       std::size_t& target) {
  std::uint64_t value = target;
  if (!u64_flag(args, tool, key, value)) return false;
  target = static_cast<std::size_t>(value);
  return true;
}

/// Split a comma-separated list, dropping empty items.
inline std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Uniform unknown-flag rejection: true when every argv entry was
/// consumed, else the shared diagnostic and false.  Call after the last
/// value()/flag() lookup.
inline bool reject_unknown(const Args& args, const char* tool) {
  if (const int unknown = args.first_unknown()) {
    std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", tool,
                 args.arg(unknown));
    return false;
  }
  return true;
}

/// Write a JSON document to `path`, reporting like every tool does.
inline bool write_json_file(const char* tool, const std::string& path,
                            const std::string& doc) {
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }
  std::fprintf(stderr, "%s: could not write %s\n", tool, path.c_str());
  return false;
}

/// The flag set every sweep-shaped binary shares.  One definition, so
/// --cert-dir / --faults / --seed / --workers / --json mean the same thing
/// (same spelling, same diagnostics) across the oic_* tools.
struct CommonOpts {
  std::string cert_dir;              ///< --cert-dir DIR (cert::Store cache)
  std::string faults;                ///< --faults SPEC (preset or key:value)
  std::vector<std::uint64_t> seeds;  ///< --seed N / --seeds a,b
  std::size_t workers = 0;           ///< --workers N, 0 = hardware
  std::string json_path;             ///< --json PATH
  bool write_json = false;
};

/// Which of the shared flags a binary accepts (oic_cert takes no --faults,
/// oic_serve no --seed); unaccepted ones fall through to reject_unknown.
struct CommonFlagSet {
  bool cert_dir = true;
  bool faults = true;
  bool seeds = true;
  bool workers = true;
  bool json = true;
};

/// Parse the shared flags; false (after a diagnostic) on a bad value.
inline bool parse_common(Args& args, const char* tool, CommonOpts& out,
                         CommonFlagSet accept = {}) {
  std::string v;
  if (accept.cert_dir) (void)args.value("cert-dir", out.cert_dir);
  if (accept.faults) (void)args.value("faults", out.faults);
  if (accept.seeds && (args.value("seed", v) || args.value("seeds", v))) {
    out.seeds.clear();
    for (const auto& s : split_list(v)) {
      std::uint64_t n = 0;
      if (!textio::parse_u64(s, n)) {
        std::fprintf(stderr, "%s: --seeds expects non-negative integers, got '%s'\n",
                     tool, s.c_str());
        return false;
      }
      out.seeds.push_back(n);
    }
  }
  if (accept.workers && !count_flag(args, tool, "workers", out.workers)) return false;
  if (accept.json) out.write_json = args.value("json", out.json_path);
  return true;
}

/// Print the registered plants and their scenario catalogues (--list).
inline void print_registry(const eval::ScenarioRegistry& reg) {
  std::printf("registered plants:\n");
  for (const auto& pid : reg.plant_ids()) {
    const auto& info = reg.plant(pid);
    std::printf("  %-10s %s\n", info.id.c_str(), info.description.c_str());
    std::printf("  %-10s scenarios:", "");
    for (const auto& sid : info.scenario_ids) std::printf(" %s", sid.c_str());
    std::printf("\n");
  }
}

/// Print the registered fault presets (what --faults accepts besides the
/// raw key:value grammar).
inline void print_fault_presets(const eval::ScenarioRegistry& reg) {
  std::printf("fault presets (--faults <preset id> or key:value grammar):\n");
  for (const auto& preset : reg.fault_presets()) {
    std::printf("  %-15s %s  (%s)\n", preset.id.c_str(),
                preset.description.c_str(), preset.spec.c_str());
  }
}

}  // namespace oic::cliutil
