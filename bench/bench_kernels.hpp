#pragma once
/// \file bench_kernels.hpp
/// Per-kernel, per-ISA microbench shared by the standalone bench_kernels
/// binary and perfbench's linalg.* metrics (perfbench/src/kernels.cpp).
///
/// Every entry of the dispatch table (linalg/dispatch.hpp) is timed twice
/// -- once through the scalar table, once through the AVX2 table -- on a
/// shape representative of its hot-path call site (the warm dual-simplex
/// tableau for the lp_* primitives, the DQN 64x64 layer for the GEMM
/// family, the monitor membership pass for batch_max_violation).  On a
/// machine without AVX2 the "avx2" request falls back to the scalar table
/// (table_for's contract), so both columns are always populated and the
/// JSON schema is stable across hosts; `avx2_native` records whether the
/// avx2 column actually exercised vector code.
///
/// GB/s is computed from the bytes each call logically touches (reads +
/// writes, 8 bytes per double, masks 1 byte per entry) -- a working-set
/// rate, not measured cache traffic.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/jsonout.hpp"
#include "common/random.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace oic::benchkernels {

/// One ISA column of a kernel's measurement.
struct IsaTiming {
  double ns_per_op = 0.0;
  double gb_per_s = 0.0;
};

/// One kernel's measurement across both dispatch tables.
struct KernelStat {
  std::string kernel;          ///< dispatch-table entry name
  std::string shape;           ///< human-readable problem shape
  std::size_t bytes_per_op = 0;  ///< logically touched bytes per call
  IsaTiming scalar;
  IsaTiming avx2;
  double speedup() const {
    return avx2.ns_per_op > 0.0 ? scalar.ns_per_op / avx2.ns_per_op : 0.0;
  }
};

namespace detail {

/// Defeats dead-code elimination across iterations.  The kernels are
/// called through the dispatch table's function pointers, which already
/// blocks inlining; the sink additionally anchors their outputs.
inline volatile double sink = 0.0;

/// Median-of-three timed runs of `op`, each run sized to ~budget_ms of
/// wall time (calibrated by doubling).  Robust against scheduler noise on
/// the shared CI boxes; returns ns per call.
template <class F>
double time_ns_per_op(F&& op, double budget_ms) {
  using Clock = std::chrono::steady_clock;
  const auto elapsed_s = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  op();  // warm the caches and the branch predictors once
  std::size_t iters = 1;
  double secs = 0.0;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) op();
    secs = elapsed_s(t0);
    if (secs * 1e3 >= budget_ms || iters >= (std::size_t{1} << 28)) break;
    // Jump straight toward the budget instead of doubling forever.
    const double want = budget_ms / 1e3;
    const std::size_t next =
        secs > 0.0 ? static_cast<std::size_t>(iters * (want / secs) * 1.25) : iters * 2;
    iters = std::max(iters * 2, next);
  }
  double best[3];
  for (double& b : best) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) op();
    b = elapsed_s(t0) * 1e9 / static_cast<double>(iters);
  }
  std::sort(best, best + 3);
  return best[1];
}

}  // namespace detail

/// Run the full per-kernel sweep.  `budget_ms` is the wall-time target
/// per (kernel, ISA) timing run -- ~20 ms gives stable medians for the
/// committed reference; the smoke run uses less.
inline std::vector<KernelStat> run(double budget_ms = 20.0) {
  using linalg::Matrix;
  using linalg::detail::KernelTable;
  using linalg::detail::table_for;
  namespace sd = linalg::simd;

  Rng rng(20200406);
  const auto fill = [&](double* p, std::size_t n, double lo, double hi) {
    for (std::size_t i = 0; i < n; ++i) p[i] = rng.uniform(lo, hi);
  };

  // ---- hot-path shapes ----
  // Warm MPC tableau: ~190-row B^-1 panel columns, ~512-column pricing row.
  const std::size_t row_n = 192, price_n = 512;
  // DQN hidden layer (rl/dqn.hpp default hidden = {64, 64}, batch_size 32).
  const std::size_t rows = 64, cols = 64, batch = 32;
  // Monitor membership: an 8-face XI polytope over 4 states, 256 sessions.
  const std::size_t vrows = 8, vcols = 4, vbatch = 256;

  std::vector<double> dst(row_n), src(row_n), price(price_n);
  std::vector<unsigned char> blocked(price_n);
  fill(dst.data(), row_n, -1.0, 1.0);
  fill(src.data(), row_n, -1.0, 1.0);
  fill(price.data(), price_n, -1.0, 1.0);
  for (std::size_t i = 0; i < price_n; ++i) {
    blocked[i] = rng.uniform_int(0, 3) == 0 ? 1 : 0;
  }

  Matrix a(rows, cols);
  fill(a.data(), rows * cols, -0.5, 0.5);
  std::vector<double> x(batch * cols), b(rows), y(batch * rows);
  std::vector<double> d(batch * rows), dp(batch * cols), db(rows);
  fill(x.data(), x.size(), -1.0, 1.0);
  fill(b.data(), b.size(), -1.0, 1.0);
  fill(d.data(), d.size(), -1.0, 1.0);
  Matrix dw(rows, cols);

  Matrix va(vrows, vcols);
  fill(va.data(), vrows * vcols, -1.0, 1.0);
  std::vector<double> vb(vrows), vx(vbatch * vcols), worst(vbatch);
  fill(vb.data(), vrows, 0.5, 1.5);
  fill(vx.data(), vx.size(), -1.0, 1.0);

  // A tiny scale keeps the mutating kernels (row updates, grad accum)
  // numerically flat over hundreds of millions of iterations: no drift
  // into denormals or infinities that would skew the timing.
  const double f = 1e-12;

  // Warm dual pivot rhs update: a B^-1-panel-height entering column with
  // a quarter of its rows zero (skipped rows), scaled tiny like f above.
  std::vector<double> piv_rhs(row_n), piv_col(row_n);
  fill(piv_rhs.data(), row_n, 0.5, 1.5);
  for (std::size_t i = 0; i < row_n; ++i) {
    piv_col[i] = rng.uniform_int(0, 3) == 0 ? 0.0 : rng.uniform(-1.0, 1.0) * f;
  }

  struct Spec {
    const char* name;
    const char* shape;
    std::size_t bytes;
    std::function<void(const KernelTable&)> op;
  };
  const std::vector<Spec> specs = {
      {"lp_row_sub_scaled", "n=192", 8 * (3 * row_n),
       [&](const KernelTable& t) {
         t.lp_row_sub_scaled(dst.data(), src.data(), f, row_n);
       }},
      {"lp_row_add_scaled", "n=192", 8 * (3 * row_n),
       [&](const KernelTable& t) {
         t.lp_row_add_scaled(dst.data(), src.data(), f, row_n);
       }},
      {"lp_rhs_pivot", "m=192", 8 * (3 * row_n),
       [&](const KernelTable& t) {
         t.lp_rhs_pivot(piv_rhs.data(), piv_col.data(), row_n / 2, row_n);
       }},
      {"lp_argmin", "n=512", 8 * price_n,
       [&](const KernelTable& t) {
         detail::sink = static_cast<double>(t.lp_argmin(price.data(), price_n, 1e300));
       }},
      {"lp_argmin_masked", "n=512", 8 * price_n + price_n,
       [&](const KernelTable& t) {
         detail::sink = static_cast<double>(
             t.lp_argmin_masked(price.data(), blocked.data(), price_n, 1e300));
       }},
      {"gemv", "64x64", 8 * (rows * cols + cols + rows),
       [&](const KernelTable& t) { t.gemv(a, x.data(), y.data()); }},
      {"gemv_sub", "64x64", 8 * (rows * cols + cols + 2 * rows),
       [&](const KernelTable& t) { t.gemv_sub(a, x.data(), y.data()); }},
      {"gemv_bias", "64x64", 8 * (rows * cols + cols + 2 * rows),
       [&](const KernelTable& t) {
         t.gemv_bias(a, x.data(), b.data(), y.data(), true);
       }},
      {"gemm_bias", "64x64 b=32", 8 * (rows * cols + batch * cols + rows + batch * rows),
       [&](const KernelTable& t) {
         t.gemm_bias(a, x.data(), batch, cols, b.data(), y.data(), rows, true);
       }},
      {"gemm_transpose", "64x64 b=32",
       8 * (rows * cols + batch * rows + batch * cols),
       [&](const KernelTable& t) {
         t.gemm_transpose(a, d.data(), batch, rows, dp.data(), cols);
       }},
      {"gemm_grad_accum", "64x64 b=32",
       8 * (batch * rows + batch * cols + rows * cols + rows),
       [&](const KernelTable& t) {
         t.gemm_grad_accum(d.data(), batch, rows, x.data(), cols, dw, db.data());
       }},
      {"batch_max_violation", "8x4 b=256",
       8 * (vrows * vcols + vrows + vbatch * vcols + vbatch),
       [&](const KernelTable& t) {
         t.batch_max_violation(va, vb.data(), vx.data(), vbatch, vcols, worst.data());
       }},
  };

  std::vector<KernelStat> out;
  out.reserve(specs.size());
  for (const Spec& s : specs) {
    KernelStat stat;
    stat.kernel = s.name;
    stat.shape = s.shape;
    stat.bytes_per_op = s.bytes;
    const auto measure = [&](sd::Isa isa) {
      const KernelTable& t = table_for(isa);
      IsaTiming tm;
      tm.ns_per_op = detail::time_ns_per_op([&] { s.op(t); }, budget_ms);
      tm.gb_per_s = tm.ns_per_op > 0.0
                        ? static_cast<double>(s.bytes) / tm.ns_per_op
                        : 0.0;
      return tm;
    };
    stat.scalar = measure(sd::Isa::kScalar);
    stat.avx2 = measure(sd::Isa::kAvx2);
    out.push_back(std::move(stat));
  }
  return out;
}

/// True when the avx2 column above ran vector code rather than the
/// scalar fallback.
inline bool avx2_native() {
  return linalg::simd::compiled_avx2() && linalg::simd::cpu_has_avx2();
}

/// Print the sweep as an aligned table.
inline void print(const std::vector<KernelStat>& stats) {
  std::printf("%-20s %-11s %9s | %9s %7s | %9s %7s | %6s\n", "kernel", "shape",
              "bytes/op", "scalar ns", "GB/s", "avx2 ns", "GB/s", "ratio");
  for (const KernelStat& s : stats) {
    std::printf("%-20s %-11s %9zu | %9.1f %7.2f | %9.1f %7.2f | %5.2fx\n",
                s.kernel.c_str(), s.shape.c_str(), s.bytes_per_op,
                s.scalar.ns_per_op, s.scalar.gb_per_s, s.avx2.ns_per_op,
                s.avx2.gb_per_s, s.speedup());
  }
  std::printf("avx2 column ran native vector code: %s\n",
              avx2_native() ? "yes" : "no (scalar fallback)");
}

/// Append the "kernels" section (section ends with ",\n" per the
/// jsonout::Doc convention).
inline void append_json(std::string& out, const std::vector<KernelStat>& stats) {
  using jsonout::append_format;
  append_format(out, "  \"kernels\": {\"avx2_native\": %s, \"results\": [",
                avx2_native() ? "true" : "false");
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const KernelStat& s = stats[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"kernel\": ";
    jsonout::append_string(out, s.kernel);
    out += ", \"shape\": ";
    jsonout::append_string(out, s.shape);
    append_format(out,
                  ", \"bytes_per_op\": %zu, "
                  "\"scalar\": {\"ns_per_op\": %.2f, \"gb_per_s\": %.3f}, "
                  "\"avx2\": {\"ns_per_op\": %.2f, \"gb_per_s\": %.3f}, "
                  "\"speedup\": %.3f}",
                  s.bytes_per_op, s.scalar.ns_per_op, s.scalar.gb_per_s,
                  s.avx2.ns_per_op, s.avx2.gb_per_s, s.speedup());
  }
  out += "\n  ]},\n";
}

}  // namespace oic::benchkernels
