#pragma once
/// \file kernels.hpp
/// Allocation-free dense kernels for the per-step hot paths.
///
/// The Matrix/Vector operators return fresh values -- right for safe-set
/// algebra, wasteful inside closed-loop inner loops that run millions of
/// times per evaluation sweep.  These kernels write into caller-provided
/// raw buffers and fuse the GEMV + bias (+ ReLU) chain of an MLP layer into
/// one pass.  Accumulation order matches the operator forms exactly
/// ((sum_j a_ij x_j) + b_i, j ascending), so results are bit-identical to
/// the allocating expressions they replace.
///
/// Every public kernel dispatches through the per-ISA function table
/// (linalg/dispatch.hpp): an AVX2 path when the CPU and build support it,
/// otherwise the scalar reference implementations below (namespace
/// scalar).  The vectorized paths preserve each output element's scalar
/// operation sequence exactly -- vectorization runs across independent
/// outputs (batch rows, matrix columns), never across a single reduction
/// -- so every table produces bit-identical results.  tests/test_simd.cpp
/// asserts this exhaustively; docs/perf.md states the per-kernel contract.

#include <algorithm>
#include <cstddef>
#include <limits>

#include "linalg/dispatch.hpp"
#include "linalg/matrix.hpp"

namespace oic::linalg {

/// Portable reference implementations -- the numeric ground truth every
/// vectorized path must reproduce bit-for-bit.  Public so the parity
/// suite and the microbench can pin them explicitly.
namespace scalar {

/// y = A x.  `x` must have a.cols() entries, `y` a.rows(); no aliasing.
inline void gemv(const Matrix& a, const double* x, double* y) {
  const std::size_t rows = a.rows(), cols = a.cols();
  const double* p = a.data();
  for (std::size_t i = 0; i < rows; ++i, p += cols) {
    double s = 0.0;
    for (std::size_t j = 0; j < cols; ++j) s += p[j] * x[j];
    y[i] = s;
  }
}

/// y -= A x (residual accumulation, e.g. w = x_next - A x - B u - c).
inline void gemv_sub(const Matrix& a, const double* x, double* y) {
  const std::size_t rows = a.rows(), cols = a.cols();
  const double* p = a.data();
  for (std::size_t i = 0; i < rows; ++i, p += cols) {
    double s = 0.0;
    for (std::size_t j = 0; j < cols; ++j) s += p[j] * x[j];
    y[i] -= s;
  }
}

/// y = A x + b, optionally ReLU-clamped: one fused pass per layer.
inline void gemv_bias(const Matrix& a, const double* x, const double* b, double* y,
                      bool relu) {
  const std::size_t rows = a.rows(), cols = a.cols();
  const double* p = a.data();
  for (std::size_t i = 0; i < rows; ++i, p += cols) {
    double s = 0.0;
    for (std::size_t j = 0; j < cols; ++j) s += p[j] * x[j];
    s += b[i];
    y[i] = relu ? (s > 0.0 ? s : 0.0) : s;  // same clamp as the reference ReLU
  }
}

/// Y[r,:] = A X[r,:] + b for every row r, optionally ReLU-clamped.
/// X has `batch` rows of a.cols() valid entries with stride ldx; Y gets
/// `batch` rows of a.rows() entries with stride ldy.  No aliasing.
inline void gemm_bias(const Matrix& a, const double* x, std::size_t batch,
                      std::size_t ldx, const double* b, double* y, std::size_t ldy,
                      bool relu) {
  const std::size_t rows = a.rows(), cols = a.cols();
  for (std::size_t r = 0; r < batch; ++r, x += ldx, y += ldy) {
    const double* p = a.data();
    for (std::size_t i = 0; i < rows; ++i, p += cols) {
      double s = 0.0;
      for (std::size_t j = 0; j < cols; ++j) s += p[j] * x[j];
      s += b[i];
      y[i] = relu ? (s > 0.0 ? s : 0.0) : s;
    }
  }
}

/// Back-propagate a batch of deltas through A: DP[r,:] = A^T D[r,:] per row.
/// Matches transpose_mul's accumulation (i ascending, zero rows skipped).
inline void gemm_transpose(const Matrix& a, const double* d, std::size_t batch,
                           std::size_t ldd, double* dp, std::size_t ldp) {
  const std::size_t rows = a.rows(), cols = a.cols();
  for (std::size_t r = 0; r < batch; ++r, d += ldd, dp += ldp) {
    for (std::size_t j = 0; j < cols; ++j) dp[j] = 0.0;
    const double* p = a.data();
    for (std::size_t i = 0; i < rows; ++i, p += cols) {
      const double di = d[i];
      if (di == 0.0) continue;
      for (std::size_t j = 0; j < cols; ++j) dp[j] += p[j] * di;
    }
  }
}

/// Accumulate layer gradients over a minibatch: dW += sum_r D[r,:] X[r,:]^T
/// and db += sum_r D[r,:], batch as the outermost loop.
inline void gemm_grad_accum(const double* d, std::size_t batch, std::size_t ldd,
                            const double* x, std::size_t ldx, Matrix& dw,
                            double* db) {
  const std::size_t rows = dw.rows(), cols = dw.cols();
  for (std::size_t r = 0; r < batch; ++r, d += ldd, x += ldx) {
    double* p = dw.data();
    for (std::size_t i = 0; i < rows; ++i, p += cols) {
      const double di = d[i];
      db[i] += di;
      if (di == 0.0) continue;
      for (std::size_t j = 0; j < cols; ++j) p[j] += di * x[j];
    }
  }
}

/// Batched polytope membership: worst[r] = max_i (a_i . X[r,:] - b_i).
inline void batch_max_violation(const Matrix& a, const double* b, const double* x,
                                std::size_t batch, std::size_t ldx, double* worst) {
  const std::size_t rows = a.rows(), cols = a.cols();
  for (std::size_t r = 0; r < batch; ++r, x += ldx) {
    if (rows == 0) {
      worst[r] = 0.0;
      continue;
    }
    double w = -std::numeric_limits<double>::infinity();
    const double* p = a.data();
    for (std::size_t i = 0; i < rows; ++i, p += cols) {
      double s = -b[i];
      for (std::size_t j = 0; j < cols; ++j) s += p[j] * x[j];
      w = std::max(w, s);
    }
    worst[r] = w;
  }
}

// ---- LP tableau primitives (reference forms of the dispatch entries) ----

/// dst[j] -= f * src[j].
inline void lp_row_sub_scaled(double* dst, const double* src, double f,
                              std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) dst[j] -= f * src[j];
}

/// dst[i] += src[i] * f.
inline void lp_row_add_scaled(double* dst, const double* src, double f,
                              std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) dst[j] += src[j] * f;
}

/// Dual-pivot rhs update: for every row i != leave with col[i] != 0.0,
/// rhs[i] -= col[i] * rhs[leave], then a result in (-1e-11, 0) snaps to
/// +0.0.  Rows with col[i] == 0.0 (-0.0 included) are untouched -- they
/// must not see the clamp -- while a NaN factor does update; rhs[leave]
/// itself is left as it is.
inline void lp_rhs_pivot(double* rhs, const double* col, std::size_t leave,
                         std::size_t m) {
  const double rl = rhs[leave];
  for (std::size_t i = 0; i < m; ++i) {
    if (i == leave) continue;
    const double f = col[i];
    if (f == 0.0) continue;
    rhs[i] -= f * rl;
    if (rhs[i] < 0.0 && rhs[i] > -1e-11) rhs[i] = 0.0;
  }
}

/// First index attaining the minimum of v when min < thresh, else -1.
/// Exactly the sequential "v[j] < best" scan seeded with best = thresh
/// (ties keep the earliest index).
inline std::ptrdiff_t lp_argmin(const double* v, std::size_t n, double thresh) {
  std::ptrdiff_t pick = -1;
  double best = thresh;
  for (std::size_t j = 0; j < n; ++j) {
    if (v[j] < best) {
      best = v[j];
      pick = static_cast<std::ptrdiff_t>(j);
    }
  }
  return pick;
}

/// lp_argmin over the columns with !blocked[j]; blocked may be null.
inline std::ptrdiff_t lp_argmin_masked(const double* v, const unsigned char* blocked,
                                       std::size_t n, double thresh) {
  if (!blocked) return lp_argmin(v, n, thresh);
  std::ptrdiff_t pick = -1;
  double best = thresh;
  for (std::size_t j = 0; j < n; ++j) {
    if (!blocked[j] && v[j] < best) {
      best = v[j];
      pick = static_cast<std::ptrdiff_t>(j);
    }
  }
  return pick;
}

}  // namespace scalar

// ---- public dispatching surface (signatures unchanged from the scalar
// tier; every caller picks up runtime ISA selection transparently) ----

inline void gemv(const Matrix& a, const double* x, double* y) {
  detail::table().gemv(a, x, y);
}

inline void gemv_sub(const Matrix& a, const double* x, double* y) {
  detail::table().gemv_sub(a, x, y);
}

inline void gemv_bias(const Matrix& a, const double* x, const double* b, double* y,
                      bool relu) {
  detail::table().gemv_bias(a, x, b, y, relu);
}

/// One MLP layer over a whole minibatch in a single fused pass.  Batches
/// are stored row-major (one sample per row) with an explicit leading
/// dimension, so callers can ping-pong through one max-width scratch
/// buffer.  Every per-row accumulation runs in exactly the per-sample
/// kernel's order (j ascending, then + bias), so a batched pass is
/// bit-identical to looping the per-sample kernels over the rows -- the
/// property the DQN's batched training path relies on for its parity
/// guarantee.  (The AVX2 path vectorizes ACROSS batch rows, 4 output rows
/// x 4 batch lanes per register block, keeping each row's scalar
/// reduction order.)
inline void gemm_bias(const Matrix& a, const double* x, std::size_t batch,
                      std::size_t ldx, const double* b, double* y, std::size_t ldy,
                      bool relu) {
  detail::table().gemm_bias(a, x, batch, ldx, b, y, ldy, relu);
}

/// Back-propagate a batch of deltas through A: DP[r,:] = A^T D[r,:] per row.
/// Matches transpose_mul's accumulation (i ascending, zero rows skipped).
/// D has `batch` rows of a.rows() entries (stride ldd); DP gets a.cols()
/// entries per row (stride ldp), overwritten.
inline void gemm_transpose(const Matrix& a, const double* d, std::size_t batch,
                           std::size_t ldd, double* dp, std::size_t ldp) {
  detail::table().gemm_transpose(a, d, batch, ldd, dp, ldp);
}

/// Accumulate layer gradients over a minibatch: dW += sum_r D[r,:] X[r,:]^T
/// and db += sum_r D[r,:], every element summed over ascending r -- the
/// same order in which the per-sample path adds one sample gradient at a
/// time (and with the same skip of zero delta entries), so the sums are
/// bit-identical to per-sample accumulation.  (The AVX2 path keeps each
/// 16-column tile of a dW row in registers with the batch innermost; the
/// per-element order is unchanged.)
inline void gemm_grad_accum(const double* d, std::size_t batch, std::size_t ldd,
                            const double* x, std::size_t ldx, Matrix& dw,
                            double* db) {
  detail::table().gemm_grad_accum(d, batch, ldd, x, ldx, dw, db);
}

/// Batched polytope membership: worst[r] = max_i (a_i . X[r,:] - b_i) for
/// every row r of an SoA state batch (stride ldx).  Per row this runs the
/// exact accumulation of HPolytope::violation (s starts at -b_i, then
/// j-ascending adds, running max), so worst[r] is bit-identical to calling
/// violation on row r -- the property the multi-session monitor relies on
/// to keep batched safe-set checks equal to the per-session path.  An empty
/// constraint system reports 0.0, matching the scalar kernel.  (The AVX2
/// path streams the constraint matrix once per 4-session group, SoA
/// row-blocked, with compare+blend so NaN/inf handling matches std::max.)
/// Fewer than four rows -- one monitored period is one -- fill no vector
/// block, so every table runs the reference loop; it is called directly,
/// without the dispatch.
inline void batch_max_violation(const Matrix& a, const double* b, const double* x,
                                std::size_t batch, std::size_t ldx, double* worst) {
  if (batch < 4) return scalar::batch_max_violation(a, b, x, batch, ldx, worst);
  detail::table().batch_max_violation(a, b, x, batch, ldx, worst);
}

}  // namespace oic::linalg
