/// \file kernels_avx2.cpp
/// AVX2 implementations of the dispatch-table kernels.
///
/// This is the only TU compiled with -mavx2 -mfma; it is reached solely
/// through the dispatch table after the cpuid check.  Two rules keep every
/// kernel bit-identical to the scalar reference (the contract docs/perf.md
/// states and tests/test_simd.cpp enforces):
///
///   1. Vectorize ACROSS independent outputs only -- batch rows of a
///      minibatch, output rows of a layer, matrix columns of an update --
///      never within a single j-ascending reduction.  Each SIMD lane then
///      executes exactly the scalar operation sequence for its output
///      element.  The MLP kernels also hold several outputs' accumulators
///      in registers at once (4 rows x 4 batch lanes, 16-column tiles, 8
///      rows of a gemv), so independent add chains overlap instead of each
///      sum waiting on its previous add; the zero-delta skips walk a
///      nonzero-index list built once per row instead of branching per
///      element (ReLU-gated deltas are ~50% zeros at random).
///   2. No fused multiply-add anywhere: every a*b+c is an explicit
///      _mm256_mul_pd followed by _mm256_add_pd/_mm256_sub_pd, and the TU
///      is built with -ffp-contract=off so the compiler cannot fuse them
///      behind our back.  (-mfma stays on only so the feature check
///      matches what future kernels may use explicitly.)
///
/// Comparisons use _CMP_*_OQ predicates plus blends instead of
/// vmaxpd/vminpd, reproducing the scalar `<`/`>` semantics exactly for
/// NaN and signed-zero inputs (std::max keeps the first argument on NaN;
/// vmaxpd would keep the second).

#include <cstdint>
#include <cstring>
#include <immintrin.h>
#include <limits>
#include <vector>

#include "linalg/dispatch.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace oic::linalg::detail {

namespace {

/// Reusable per-thread pack buffer for the batch-transposed (SoA) panels
/// of gemm_bias / batch_max_violation.  Grows once per thread, then every
/// call is allocation-free.
std::vector<double>& pack_buffer() {
  thread_local std::vector<double> buf;
  return buf;
}

/// Pack 4 batch rows of width `cols` (stride ldx) into column-major
/// xt[j*4 + lane], so the inner product loop can broadcast one matrix
/// entry against 4 sessions per step.
inline void pack4(const double* x, std::size_t cols, std::size_t ldx, double* xt) {
  const double* r0 = x;
  const double* r1 = x + ldx;
  const double* r2 = x + 2 * ldx;
  const double* r3 = x + 3 * ldx;
  for (std::size_t j = 0; j < cols; ++j) {
    xt[4 * j + 0] = r0[j];
    xt[4 * j + 1] = r1[j];
    xt[4 * j + 2] = r2[j];
    xt[4 * j + 3] = r3[j];
  }
}

/// Reusable per-thread list of the nonzero delta indices of one row, for
/// the skip-zero kernels (gemm_transpose, gemm_grad_accum).
std::vector<std::size_t>& nz_buffer() {
  thread_local std::vector<std::size_t> buf;
  return buf;
}

/// Indices k in [0, n) with v[k * stride] != 0.0, ascending, into `nz`;
/// returns their count.  Built once per row, so the tile loops below run
/// branch-free over exactly the terms the scalar loop does not skip
/// (NaN != 0.0, so NaN deltas are kept, like the scalar `di == 0.0` test).
std::size_t nonzero_indices(const double* v, std::size_t n, std::size_t stride,
                            std::vector<std::size_t>& nz) {
  if (nz.size() < n) nz.resize(n);
  std::size_t count = 0;
  for (std::size_t k = 0; k < n; ++k) {
    // Branch-free append: ReLU-gated rows are ~50% zeros at random.
    nz[count] = k;
    count += v[k * stride] != 0.0 ? 1 : 0;
  }
  return count;
}

/// In-register 4x4 transpose: on return r<k>[l] holds the old r<l>[k].
inline void transpose4(__m256d& r0, __m256d& r1, __m256d& r2, __m256d& r3) {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // r0[0] r1[0] r0[2] r1[2]
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // r0[1] r1[1] r0[3] r1[3]
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  r0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  r1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  r2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  r3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// s > 0 ? s : 0.0 per lane -- GT_OQ is false for NaN and -0.0, matching
/// the scalar clamp exactly.
inline __m256d relu4(__m256d s) {
  const __m256d zero = _mm256_setzero_pd();
  return _mm256_blendv_pd(zero, s, _mm256_cmp_pd(s, zero, _CMP_GT_OQ));
}

/// Tile width (doubles) of gemm_transpose / gemm_grad_accum: four YMM
/// accumulators.  Narrower matrices (the 6-input first DQN layer) take the
/// same code's column tails: a masked partial tile in gemm_grad_accum,
/// 4-wide then scalar in gemm_transpose.
constexpr std::size_t kTile = 16;

// ---- MLP kernels: register-blocked across independent outputs -----------

/// y = A x + b for 8 (rows 0..3 in acc0, 4..7 in acc1) or 4 output rows at
/// once.  Each 4x4 block of A is loaded row-wise and transposed in
/// registers, so lane k of column vector c<l> is A(i+k, j+l); the adds then
/// run j-ascending per lane, exactly the scalar dot product of row i+k.
template <int kHalves>
inline void gemv_rows_avx2(const double* p, std::size_t cols, const double* x,
                           const double* b, double* y, bool relu) {
  __m256d acc[kHalves];
  for (int h = 0; h < kHalves; ++h) acc[h] = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    const __m256d x0 = _mm256_set1_pd(x[j]);
    const __m256d x1 = _mm256_set1_pd(x[j + 1]);
    const __m256d x2 = _mm256_set1_pd(x[j + 2]);
    const __m256d x3 = _mm256_set1_pd(x[j + 3]);
    for (int h = 0; h < kHalves; ++h) {
      const double* q = p + 4 * static_cast<std::size_t>(h) * cols + j;
      __m256d c0 = _mm256_loadu_pd(q);
      __m256d c1 = _mm256_loadu_pd(q + cols);
      __m256d c2 = _mm256_loadu_pd(q + 2 * cols);
      __m256d c3 = _mm256_loadu_pd(q + 3 * cols);
      transpose4(c0, c1, c2, c3);
      acc[h] = _mm256_add_pd(acc[h], _mm256_mul_pd(c0, x0));
      acc[h] = _mm256_add_pd(acc[h], _mm256_mul_pd(c1, x1));
      acc[h] = _mm256_add_pd(acc[h], _mm256_mul_pd(c2, x2));
      acc[h] = _mm256_add_pd(acc[h], _mm256_mul_pd(c3, x3));
    }
  }
  for (; j < cols; ++j) {
    const __m256d xj = _mm256_set1_pd(x[j]);
    for (int h = 0; h < kHalves; ++h) {
      const double* q = p + 4 * static_cast<std::size_t>(h) * cols + j;
      const __m256d c = _mm256_set_pd(q[3 * cols], q[2 * cols], q[cols], q[0]);
      acc[h] = _mm256_add_pd(acc[h], _mm256_mul_pd(c, xj));
    }
  }
  for (int h = 0; h < kHalves; ++h) {
    __m256d s = _mm256_add_pd(acc[h], _mm256_loadu_pd(b + 4 * h));
    if (relu) s = relu4(s);
    _mm256_storeu_pd(y + 4 * h, s);
  }
}

void gemv_bias_avx2(const Matrix& a, const double* x, const double* b, double* y,
                    bool relu) {
  const std::size_t rows = a.rows(), cols = a.cols();
  const double* p = a.data();
  std::size_t i = 0;
  for (; i + 8 <= rows; i += 8) {
    gemv_rows_avx2<2>(p + i * cols, cols, x, b + i, y + i, relu);
  }
  for (; i + 4 <= rows; i += 4) {
    gemv_rows_avx2<1>(p + i * cols, cols, x, b + i, y + i, relu);
  }
  for (p += i * cols; i < rows; ++i, p += cols) {
    double s = 0.0;
    for (std::size_t j = 0; j < cols; ++j) s += p[j] * x[j];
    s += b[i];
    y[i] = relu ? (s > 0.0 ? s : 0.0) : s;
  }
}

/// The last kRows (< 4) output rows of gemm_bias over one packed 4-lane
/// batch block: one accumulator per row in a single j loop, so the rows'
/// add chains overlap (the 2-action output layer has no full 4-row block).
/// Each lane still adds its row's terms j-ascending, then the bias.
template <int kRows>
inline void gemm_bias_tail_rows(const double* p, std::size_t cols, const double* xt,
                                const double* b, double* y, std::size_t ldy,
                                bool relu) {
  __m256d acc[kRows];
  for (int t = 0; t < kRows; ++t) acc[t] = _mm256_setzero_pd();
  for (std::size_t j = 0; j < cols; ++j) {
    const __m256d xv = _mm256_loadu_pd(xt + 4 * j);
    for (int t = 0; t < kRows; ++t) {
      const __m256d aij = _mm256_set1_pd(p[static_cast<std::size_t>(t) * cols + j]);
      acc[t] = _mm256_add_pd(acc[t], _mm256_mul_pd(aij, xv));
    }
  }
  for (int t = 0; t < kRows; ++t) {
    __m256d s = _mm256_add_pd(acc[t], _mm256_set1_pd(b[t]));
    if (relu) s = relu4(s);
    double lanes[4];
    _mm256_storeu_pd(lanes, s);
    for (std::size_t l = 0; l < 4; ++l) {
      y[l * ldy + static_cast<std::size_t>(t)] = lanes[l];
    }
  }
}

void gemm_bias_avx2(const Matrix& a, const double* x, std::size_t batch,
                    std::size_t ldx, const double* b, double* y, std::size_t ldy,
                    bool relu) {
  const std::size_t rows = a.rows(), cols = a.cols();
  std::vector<double>& pack = pack_buffer();
  if (pack.size() < 4 * cols) pack.resize(4 * cols);
  double* xt = pack.data();
  // Blocks of 4 output rows x 4 batch lanes: 4 independent accumulators
  // per packed x column instead of one dependent chain (a win at every
  // width, the 6-input first DQN layer included).
  const std::size_t rows4 = rows & ~std::size_t{3};

  std::size_t r = 0;
  for (; r + 4 <= batch; r += 4, x += 4 * ldx, y += 4 * ldy) {
    pack4(x, cols, ldx, xt);
    const double* p = a.data();
    std::size_t i = 0;
    for (; i < rows4; i += 4, p += 4 * cols) {
      const double* p1 = p + cols;
      const double* p2 = p + 2 * cols;
      const double* p3 = p + 3 * cols;
      __m256d acc0 = _mm256_setzero_pd(), acc1 = acc0, acc2 = acc0, acc3 = acc0;
      for (std::size_t j = 0; j < cols; ++j) {
        const __m256d xv = _mm256_loadu_pd(xt + 4 * j);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_set1_pd(p[j]), xv));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_set1_pd(p1[j]), xv));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_set1_pd(p2[j]), xv));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_set1_pd(p3[j]), xv));
      }
      acc0 = _mm256_add_pd(acc0, _mm256_set1_pd(b[i]));
      acc1 = _mm256_add_pd(acc1, _mm256_set1_pd(b[i + 1]));
      acc2 = _mm256_add_pd(acc2, _mm256_set1_pd(b[i + 2]));
      acc3 = _mm256_add_pd(acc3, _mm256_set1_pd(b[i + 3]));
      if (relu) {
        acc0 = relu4(acc0);
        acc1 = relu4(acc1);
        acc2 = relu4(acc2);
        acc3 = relu4(acc3);
      }
      // acc<k> holds output row i+k across the 4 batch lanes; transpose
      // to one vector of 4 outputs per batch row.
      transpose4(acc0, acc1, acc2, acc3);
      _mm256_storeu_pd(y + i, acc0);
      _mm256_storeu_pd(y + ldy + i, acc1);
      _mm256_storeu_pd(y + 2 * ldy + i, acc2);
      _mm256_storeu_pd(y + 3 * ldy + i, acc3);
    }
    switch (rows - rows4) {
      case 1:
        gemm_bias_tail_rows<1>(p, cols, xt, b + i, y + i, ldy, relu);
        break;
      case 2:
        gemm_bias_tail_rows<2>(p, cols, xt, b + i, y + i, ldy, relu);
        break;
      case 3:
        gemm_bias_tail_rows<3>(p, cols, xt, b + i, y + i, ldy, relu);
        break;
      default:
        break;
    }
  }
  if (r < batch) scalar::gemm_bias(a, x, batch - r, ldx, b, y, ldy, relu);
}

void gemm_transpose_avx2(const Matrix& a, const double* d, std::size_t batch,
                         std::size_t ldd, double* dp, std::size_t ldp) {
  const std::size_t rows = a.rows(), cols = a.cols();
  const std::size_t cols4 = cols & ~std::size_t{3};
  const __m256d zero = _mm256_setzero_pd();
  std::vector<std::size_t>& nz = nz_buffer();
  const double* ap = a.data();
  // Each 16-column tile of DP[r,:] stays in 4 registers while the nonzero
  // deltas of row r stream past in ascending i: per element the scalar
  // sequence 0.0, += A(i,j) * d_i over the same i.
  for (std::size_t r = 0; r < batch; ++r, d += ldd, dp += ldp) {
    const std::size_t n = nonzero_indices(d, rows, 1, nz);
    std::size_t j = 0;
    for (; j + kTile <= cols; j += kTile) {
      __m256d acc0 = zero, acc1 = zero, acc2 = zero, acc3 = zero;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = nz[k];
        const __m256d dv = _mm256_set1_pd(d[i]);
        const double* p = ap + i * cols + j;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(p), dv));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(p + 4), dv));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_loadu_pd(p + 8), dv));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_loadu_pd(p + 12), dv));
      }
      _mm256_storeu_pd(dp + j, acc0);
      _mm256_storeu_pd(dp + j + 4, acc1);
      _mm256_storeu_pd(dp + j + 8, acc2);
      _mm256_storeu_pd(dp + j + 12, acc3);
    }
    for (; j < cols4; j += 4) {
      __m256d acc = zero;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = nz[k];
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(ap + i * cols + j),
                                               _mm256_set1_pd(d[i])));
      }
      _mm256_storeu_pd(dp + j, acc);
    }
    for (; j < cols; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k) s += ap[nz[k] * cols + j] * d[nz[k]];
      dp[j] = s;
    }
  }
}

/// Lane mask of the first `lanes` (1..4) lanes, for maskload/maskstore.
inline __m256i first_lanes(std::size_t lanes) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(lanes)),
                            _mm256_set_epi64x(3, 2, 1, 0));
}

/// gemm_grad_accum over a row's last `width` (< 16) columns: kVecs =
/// ceil(width / 4) accumulators advance in one pass over the nonzero list,
/// the last one masked to the columns that exist.  Each lane runs the
/// scalar sequence dW(i,j) += d_ri * x_rj over ascending r; masked lanes
/// read and write nothing.
template <int kVecs>
inline void grad_accum_partial_tile(double* p, std::size_t width, const double* di,
                                    std::size_t ldd, const double* x, std::size_t ldx,
                                    const std::size_t* nz, std::size_t n) {
  constexpr std::size_t kLast = 4 * (kVecs - 1);
  const __m256i mask = first_lanes(width - kLast);
  __m256d acc[kVecs];
  for (int v = 0; v + 1 < kVecs; ++v) acc[v] = _mm256_loadu_pd(p + 4 * v);
  acc[kVecs - 1] = _mm256_maskload_pd(p + kLast, mask);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t r = nz[k];
    const __m256d dv = _mm256_set1_pd(di[r * ldd]);
    const double* xr = x + r * ldx;
    for (int v = 0; v + 1 < kVecs; ++v) {
      acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(dv, _mm256_loadu_pd(xr + 4 * v)));
    }
    acc[kVecs - 1] = _mm256_add_pd(
        acc[kVecs - 1], _mm256_mul_pd(dv, _mm256_maskload_pd(xr + kLast, mask)));
  }
  for (int v = 0; v + 1 < kVecs; ++v) _mm256_storeu_pd(p + 4 * v, acc[v]);
  _mm256_maskstore_pd(p + kLast, mask, acc[kVecs - 1]);
}

void gemm_grad_accum_avx2(const double* d, std::size_t batch, std::size_t ldd,
                          const double* x, std::size_t ldx, Matrix& dw, double* db) {
  const std::size_t rows = dw.rows(), cols = dw.cols();
  const std::size_t rows4 = rows & ~std::size_t{3};
  // db_i += d_ri over every r, ascending, 4 outputs i per vector.
  for (std::size_t r = 0; r < batch; ++r) {
    const double* dr = d + r * ldd;
    std::size_t i = 0;
    for (; i < rows4; i += 4) {
      const __m256d bv = _mm256_loadu_pd(db + i);
      _mm256_storeu_pd(db + i, _mm256_add_pd(bv, _mm256_loadu_pd(dr + i)));
    }
    for (; i < rows; ++i) db[i] += dr[i];
  }

  std::vector<std::size_t>& nz = nz_buffer();
  // Per output row i, each 16-column tile of dW(i,:) stays in 4 registers
  // while the batch streams past innermost: per element the scalar
  // sequence dW(i,j) += d_ri * x_rj over ascending r with d_ri != 0.
  double* p = dw.data();
  for (std::size_t i = 0; i < rows; ++i, p += cols) {
    const double* di = d + i;
    const std::size_t n = nonzero_indices(di, batch, ldd, nz);
    std::size_t j = 0;
    for (; j + kTile <= cols; j += kTile) {
      __m256d acc0 = _mm256_loadu_pd(p + j);
      __m256d acc1 = _mm256_loadu_pd(p + j + 4);
      __m256d acc2 = _mm256_loadu_pd(p + j + 8);
      __m256d acc3 = _mm256_loadu_pd(p + j + 12);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t r = nz[k];
        const __m256d dv = _mm256_set1_pd(di[r * ldd]);
        const double* xr = x + r * ldx + j;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(dv, _mm256_loadu_pd(xr)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(dv, _mm256_loadu_pd(xr + 4)));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(dv, _mm256_loadu_pd(xr + 8)));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(dv, _mm256_loadu_pd(xr + 12)));
      }
      _mm256_storeu_pd(p + j, acc0);
      _mm256_storeu_pd(p + j + 4, acc1);
      _mm256_storeu_pd(p + j + 8, acc2);
      _mm256_storeu_pd(p + j + 12, acc3);
    }
    // The last w < 16 columns (all of the 6-input first layer) in one pass
    // over the list, like a tile.
    const std::size_t w = cols - j;
    const std::size_t* list = nz.data();
    switch ((w + 3) / 4) {
      case 1:
        grad_accum_partial_tile<1>(p + j, w, di, ldd, x + j, ldx, list, n);
        break;
      case 2:
        grad_accum_partial_tile<2>(p + j, w, di, ldd, x + j, ldx, list, n);
        break;
      case 3:
        grad_accum_partial_tile<3>(p + j, w, di, ldd, x + j, ldx, list, n);
        break;
      case 4:
        grad_accum_partial_tile<4>(p + j, w, di, ldd, x + j, ldx, list, n);
        break;
      default:
        break;
    }
  }
}

void batch_max_violation_avx2(const Matrix& a, const double* b, const double* x,
                              std::size_t batch, std::size_t ldx, double* worst) {
  const std::size_t rows = a.rows(), cols = a.cols();
  if (rows == 0) {
    for (std::size_t r = 0; r < batch; ++r) worst[r] = 0.0;
    return;
  }
  std::vector<double>& pack = pack_buffer();
  if (pack.size() < 4 * cols) pack.resize(4 * cols);
  double* xt = pack.data();

  std::size_t r = 0;
  for (; r + 4 <= batch; r += 4, x += 4 * ldx) {
    pack4(x, cols, ldx, xt);
    __m256d w = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
    const double* p = a.data();
    for (std::size_t i = 0; i < rows; ++i, p += cols) {
      __m256d s = _mm256_set1_pd(-b[i]);
      for (std::size_t j = 0; j < cols; ++j) {
        const __m256d aij = _mm256_set1_pd(p[j]);
        const __m256d xv = _mm256_loadu_pd(xt + 4 * j);
        s = _mm256_add_pd(s, _mm256_mul_pd(aij, xv));
      }
      // w = std::max(w, s) == (w < s) ? s : w; LT_OQ is false on NaN, so a
      // NaN row sum leaves w unchanged exactly like the scalar kernel.
      const __m256d lt = _mm256_cmp_pd(w, s, _CMP_LT_OQ);
      w = _mm256_blendv_pd(w, s, lt);
    }
    _mm256_storeu_pd(worst + r, w);
  }
  if (r < batch) scalar::batch_max_violation(a, b, x, batch - r, ldx, worst + r);
}

// ---- LP tableau primitives --------------------------------------------

void lp_row_sub_scaled_avx2(double* dst, const double* src, double f,
                            std::size_t n) {
  const __m256d fv = _mm256_set1_pd(f);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t j = 0;
  for (; j < n4; j += 4) {
    const __m256d sv = _mm256_loadu_pd(src + j);
    const __m256d dv = _mm256_loadu_pd(dst + j);
    _mm256_storeu_pd(dst + j, _mm256_sub_pd(dv, _mm256_mul_pd(fv, sv)));
  }
  for (; j < n; ++j) dst[j] -= f * src[j];
}

void lp_row_add_scaled_avx2(double* dst, const double* src, double f,
                            std::size_t n) {
  const __m256d fv = _mm256_set1_pd(f);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t j = 0;
  for (; j < n4; j += 4) {
    const __m256d sv = _mm256_loadu_pd(src + j);
    const __m256d dv = _mm256_loadu_pd(dst + j);
    _mm256_storeu_pd(dst + j, _mm256_add_pd(dv, _mm256_mul_pd(sv, fv)));
  }
  for (; j < n; ++j) dst[j] += src[j] * f;
}

/// Four rows per step: the update is computed in every lane and blended
/// back only where the factor compares unequal to 0.0 (unordered, so a NaN
/// factor updates, as in the scalar loop); the clamp snaps updated lanes
/// in (-1e-11, 0) to +0.0.  The pivot row is restored afterwards -- every
/// lane read the saved rhs[leave], so its own update fed nothing.
void lp_rhs_pivot_avx2(double* rhs, const double* col, std::size_t leave,
                       std::size_t m) {
  const double rl = rhs[leave];
  const __m256d rlv = _mm256_set1_pd(rl);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d snap = _mm256_set1_pd(-1e-11);
  const std::size_t m4 = m & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < m4; i += 4) {
    const __m256d f = _mm256_loadu_pd(col + i);
    const __m256d live = _mm256_cmp_pd(f, zero, _CMP_NEQ_UQ);
    if (_mm256_movemask_pd(live) == 0) continue;
    const __m256d r = _mm256_loadu_pd(rhs + i);
    __m256d upd = _mm256_sub_pd(r, _mm256_mul_pd(f, rlv));
    const __m256d tiny = _mm256_and_pd(_mm256_cmp_pd(upd, zero, _CMP_LT_OQ),
                                       _mm256_cmp_pd(upd, snap, _CMP_GT_OQ));
    upd = _mm256_andnot_pd(tiny, upd);
    _mm256_storeu_pd(rhs + i, _mm256_blendv_pd(r, upd, live));
  }
  for (; i < m; ++i) {
    const double f = col[i];
    if (f == 0.0) continue;
    rhs[i] -= f * rl;
    if (rhs[i] < 0.0 && rhs[i] > -1e-11) rhs[i] = 0.0;
  }
  rhs[leave] = rl;
}

/// All-ones lanes where blocked[j + lane] != 0.
inline __m256d blocked_mask4(const unsigned char* blocked, std::size_t j) {
  std::uint32_t raw;
  std::memcpy(&raw, blocked + j, 4);
  const __m128i bytes = _mm_cvtsi32_si128(static_cast<int>(raw));
  const __m256i wide = _mm256_cvtepu8_epi64(bytes);
  return _mm256_castsi256_pd(_mm256_cmpgt_epi64(wide, _mm256_setzero_si256()));
}

/// Two-pass argmin: the sequential "v[j] < best, ties keep earliest" scan
/// picks the FIRST index attaining the global minimum, provided that
/// minimum is strictly below `thresh` -- a property of the final result,
/// not of the scan order.  Pass 1 computes the min with compare+blend
/// (NaN never selected, as in the scalar scan); pass 2 finds its first
/// index.  Bit-equal values tie exactly like the scalar scan (including
/// -0.0 == +0.0: both scans keep the first zero seen).
std::ptrdiff_t lp_argmin_core(const double* v, const unsigned char* blocked,
                              std::size_t n, double thresh) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d tv = _mm256_set1_pd(thresh);
  __m256d bestv = tv;
  std::size_t j = 0;
  for (; j < n4; j += 4) {
    __m256d w = _mm256_loadu_pd(v + j);
    if (blocked) {
      // Barred columns contribute `thresh`, which can never win the
      // strict < comparison.
      w = _mm256_blendv_pd(w, tv, blocked_mask4(blocked, j));
    }
    const __m256d lt = _mm256_cmp_pd(w, bestv, _CMP_LT_OQ);
    bestv = _mm256_blendv_pd(bestv, w, lt);
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, bestv);
  double best = thresh;
  bool found = false;
  for (int l = 0; l < 4; ++l) {
    if (lanes[l] < best) {
      best = lanes[l];
      found = true;
    }
  }
  for (; j < n; ++j) {
    if (blocked && blocked[j]) continue;
    if (v[j] < best) {
      best = v[j];
      found = true;
    }
  }
  if (!found) return -1;

  // Pass 2: first index equal to the minimum (skipping barred columns).
  const __m256d bv = _mm256_set1_pd(best);
  for (j = 0; j < n4; j += 4) {
    __m256d eq = _mm256_cmp_pd(_mm256_loadu_pd(v + j), bv, _CMP_EQ_OQ);
    if (blocked) eq = _mm256_andnot_pd(blocked_mask4(blocked, j), eq);
    const int mask = _mm256_movemask_pd(eq);
    if (mask != 0) {
      return static_cast<std::ptrdiff_t>(j) + __builtin_ctz(static_cast<unsigned>(mask));
    }
  }
  for (; j < n; ++j) {
    if (blocked && blocked[j]) continue;
    if (v[j] == best) return static_cast<std::ptrdiff_t>(j);
  }
  return -1;  // unreachable: `best` was read from the array
}

std::ptrdiff_t lp_argmin_avx2(const double* v, std::size_t n, double thresh) {
  return lp_argmin_core(v, nullptr, n, thresh);
}

std::ptrdiff_t lp_argmin_masked_avx2(const double* v, const unsigned char* blocked,
                                     std::size_t n, double thresh) {
  return lp_argmin_core(v, blocked, n, thresh);
}

constexpr KernelTable kAvx2Table = {
    // Short-row residual dot products stay scalar (see dispatch.hpp).
    &scalar::gemv,
    &scalar::gemv_sub,
    &gemv_bias_avx2,
    &gemm_bias_avx2,
    &gemm_transpose_avx2,
    &gemm_grad_accum_avx2,
    &batch_max_violation_avx2,
    &lp_row_sub_scaled_avx2,
    &lp_row_add_scaled_avx2,
    &lp_rhs_pivot_avx2,
    &lp_argmin_avx2,
    &lp_argmin_masked_avx2,
};

}  // namespace

const KernelTable& avx2_table() { return kAvx2Table; }

}  // namespace oic::linalg::detail
