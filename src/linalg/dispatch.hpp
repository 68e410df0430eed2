#pragma once
/// \file dispatch.hpp
/// Per-ISA kernel function table behind linalg/kernels.hpp and the
/// lp/prepared.cpp tableau primitives.
///
/// Each entry has one scalar reference implementation (kernels.hpp,
/// namespace scalar) and, when the AVX2 TU is compiled in, a vectorized
/// implementation that is bit-identical to the scalar one (see
/// docs/perf.md for the per-kernel contract).  table() returns the table
/// for simd::active(); table_for() lets tests and microbenches pin one.
///
/// No table ever vectorizes WITHIN a single j-ascending dot product: a
/// horizontal sum changes the accumulation order, and therefore the bits.
/// gemv_bias instead vectorizes ACROSS output rows -- 8 rows at a time, a
/// 4x4 block of A transposed in registers so each lane walks its own row's
/// j-ascending sum -- which pays off on every DRL layer, the 6-input one
/// included.  The residual kernels gemv/gemv_sub (plant-sized rows,
/// nx <= 12) stay scalar; they are still routed through the table so the
/// microbench and parity suite exercise one uniform surface.

#include <cstddef>

#include "linalg/simd.hpp"

namespace oic::linalg {

class Matrix;

namespace detail {

struct KernelTable {
  // ---- fused MLP / membership kernels (linalg/kernels.hpp surface) ----
  void (*gemv)(const Matrix& a, const double* x, double* y);
  void (*gemv_sub)(const Matrix& a, const double* x, double* y);
  void (*gemv_bias)(const Matrix& a, const double* x, const double* b, double* y,
                    bool relu);
  void (*gemm_bias)(const Matrix& a, const double* x, std::size_t batch,
                    std::size_t ldx, const double* b, double* y, std::size_t ldy,
                    bool relu);
  void (*gemm_transpose)(const Matrix& a, const double* d, std::size_t batch,
                         std::size_t ldd, double* dp, std::size_t ldp);
  void (*gemm_grad_accum)(const double* d, std::size_t batch, std::size_t ldd,
                          const double* x, std::size_t ldx, Matrix& dw, double* db);
  void (*batch_max_violation)(const Matrix& a, const double* b, const double* x,
                              std::size_t batch, std::size_t ldx, double* worst);

  // ---- LP tableau primitives (lp/prepared.cpp hot loops) ----
  /// dst[j] -= f * src[j] for j in [0, n): dense pivot row update and the
  /// reduced-cost / phase-1 z updates.  Element-wise independent, so the
  /// vector form is bit-identical to the scalar loop.
  void (*lp_row_sub_scaled)(double* dst, const double* src, double f, std::size_t n);
  /// dst[i] += src[i] * f for i in [0, n): warm-start rhs shift along a
  /// contiguous B^-1 panel column.
  void (*lp_row_add_scaled)(double* dst, const double* src, double f, std::size_t n);
  /// Warm dual pivot's rhs update along the entering column `col`: for
  /// i != leave with col[i] != 0.0, rhs[i] -= col[i] * rhs[leave] (mul then
  /// sub), then a result in (-1e-11, 0) snaps to +0.0.  Zero factors (-0.0
  /// included) skip the row and its clamp; NaN factors update it;
  /// rhs[leave] is left untouched.
  void (*lp_rhs_pivot)(double* rhs, const double* col, std::size_t leave,
                       std::size_t m);
  /// First index attaining min(v[0..n)) when that min is strictly below
  /// `thresh`; -1 otherwise.  Equivalent to the sequential
  /// "if (v[j] < best) best = v[j], pick = j" scan seeded with
  /// best = thresh (ties keep the earliest index).  Used for the dual
  /// leaving-row scan (most negative basic value).
  std::ptrdiff_t (*lp_argmin)(const double* v, std::size_t n, double thresh);
  /// lp_argmin restricted to columns with !blocked[j]; `blocked` may be
  /// null (no columns barred).  Used for Dantzig pricing.
  std::ptrdiff_t (*lp_argmin_masked)(const double* v, const unsigned char* blocked,
                                     std::size_t n, double thresh);
};

/// Table for the currently active ISA (simd::active()).
const KernelTable& table();

/// Table for a specific ISA; requests for an unavailable ISA fall back to
/// the scalar table.
const KernelTable& table_for(simd::Isa isa);

}  // namespace detail
}  // namespace oic::linalg
