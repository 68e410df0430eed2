// Bit-level parity suite for the per-ISA kernel dispatch tier
// (linalg/simd.hpp, linalg/dispatch.hpp, linalg/kernels.hpp).
//
// Every vectorized kernel claims BIT-IDENTICAL output to its scalar
// reference (docs/perf.md states the per-kernel contract); these tests
// enforce the claim by running both tables on the same inputs and
// comparing raw bit patterns (so NaN payloads and signed zeros count).
// Sizes sweep 1..33 to cross every vector-width remainder, leading
// dimensions are deliberately unaligned, and the LP pricing/ratio
// kernels are additionally exercised end-to-end: the same simplex
// problems must produce byte-identical results under forced-scalar and
// forced-AVX2 dispatch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "lp/prepared.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace {

using oic::Rng;
using oic::linalg::Matrix;
using oic::linalg::Vector;
using oic::linalg::detail::KernelTable;
using oic::linalg::detail::table_for;
namespace simd = oic::linalg::simd;
using oic::lp::PreparedProblem;
using oic::lp::Problem;
using oic::lp::Relation;
using oic::lp::SolverWorkspace;

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Bitwise double equality (distinguishes -0.0 from 0.0 and compares NaN
/// payloads exactly -- the contract is "same bits", not "same value").
::testing::AssertionResult BitEq(const char* ae, const char* be, double a,
                                 double b) {
  if (bits(a) == bits(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << ae << " and " << be << " differ: " << a << " vs " << b
         << " (bits " << std::hex << bits(a) << " vs " << bits(b) << ")";
}
#define EXPECT_BITEQ(a, b) EXPECT_PRED_FORMAT2(BitEq, a, b)
#define ASSERT_BITEQ(a, b) ASSERT_PRED_FORMAT2(BitEq, a, b)

/// BitEq, except that any two NaNs match.  When two different NaNs meet in
/// one add (an input NaN and the default NaN of inf - inf, say), x86 keeps
/// the first operand's, and the compiler may commute a scalar add: even two
/// compilations of the scalar reference then disagree on the NaN's sign.
/// Finite results, infinities and signed zeros still compare bit for bit.
::testing::AssertionResult BitEqOrNaN(const char* ae, const char* be, double a,
                                      double b) {
  if (std::isnan(a) && std::isnan(b)) return ::testing::AssertionSuccess();
  return BitEq(ae, be, a, b);
}
#define ASSERT_BITEQ_OR_NAN(a, b) ASSERT_PRED_FORMAT2(BitEqOrNaN, a, b)

bool have_avx2() { return simd::compiled_avx2() && simd::cpu_has_avx2(); }

/// Restores default ISA resolution on scope exit even through failures.
struct IsaGuard {
  ~IsaGuard() { simd::reset(); }
};

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.uniform(-2.0, 2.0);
  return m;
}

std::vector<double> random_buf(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

// ---------------------------------------------------------------------------
// dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatch, EnvKillSwitchPinsScalar) {
  IsaGuard guard;
  const char* old = std::getenv("OIC_SIMD");
  const std::string saved = old ? old : "";
  const bool had = old != nullptr;

  ::setenv("OIC_SIMD", "off", 1);
  simd::reset();
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);
  EXPECT_STREQ(simd::active_isa_name(), "scalar");

  ::setenv("OIC_SIMD", "scalar", 1);
  simd::reset();
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);

  if (had)
    ::setenv("OIC_SIMD", saved.c_str(), 1);
  else
    ::unsetenv("OIC_SIMD");
}

TEST(SimdDispatch, ForceAndResetRoundTrip) {
  IsaGuard guard;
  EXPECT_TRUE(simd::force(simd::Isa::kScalar));
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);
  if (have_avx2()) {
    EXPECT_TRUE(simd::force(simd::Isa::kAvx2));
    EXPECT_EQ(simd::active(), simd::Isa::kAvx2);
    EXPECT_STREQ(simd::active_isa_name(), "avx2");
  } else {
    // Unavailable ISA must be refused, leaving the selection unchanged.
    EXPECT_FALSE(simd::force(simd::Isa::kAvx2));
    EXPECT_EQ(simd::active(), simd::Isa::kScalar);
  }
  simd::reset();
  // After reset the fallback still resolves to SOMETHING usable.
  EXPECT_NO_FATAL_FAILURE((void)simd::active());
}

TEST(SimdDispatch, UnavailableTableRequestFallsBackToScalar) {
  // table_for must never return a null-entry table, whatever is asked for.
  const KernelTable& t = table_for(simd::Isa::kAvx2);
  EXPECT_NE(t.lp_row_sub_scaled, nullptr);
  EXPECT_NE(t.batch_max_violation, nullptr);
  EXPECT_NE(t.lp_argmin_masked, nullptr);
}

// ---------------------------------------------------------------------------
// LP row primitives: sizes 1..33 cross every AVX2 remainder lane count
// ---------------------------------------------------------------------------

TEST(SimdKernels, RowPrimitivesParityAllSizes) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  const KernelTable& sc = table_for(simd::Isa::kScalar);
  const KernelTable& vx = table_for(simd::Isa::kAvx2);
  Rng rng(101);
  const double factors[] = {0.0, -0.0, 1.0, -1.3, 2.7e-3, -8.5e12, 0.5};
  for (std::size_t n = 1; n <= 33; ++n) {
    for (double f : factors) {
      const std::vector<double> src = random_buf(rng, n);
      std::vector<double> a = random_buf(rng, n);
      std::vector<double> b = a;
      sc.lp_row_sub_scaled(a.data(), src.data(), f, n);
      vx.lp_row_sub_scaled(b.data(), src.data(), f, n);
      for (std::size_t j = 0; j < n; ++j) ASSERT_BITEQ(a[j], b[j]);

      std::vector<double> c = random_buf(rng, n);
      std::vector<double> d = c;
      sc.lp_row_add_scaled(c.data(), src.data(), f, n);
      vx.lp_row_add_scaled(d.data(), src.data(), f, n);
      for (std::size_t j = 0; j < n; ++j) ASSERT_BITEQ(c[j], d[j]);
    }
  }
}

TEST(SimdKernels, RhsPivotParityZerosNonFiniteAndClamp) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  const KernelTable& sc = table_for(simd::Isa::kScalar);
  const KernelTable& vx = table_for(simd::Isa::kAvx2);
  Rng rng(303);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Zero factors of either sign skip their row (clamp included); NaN and
  // infinite factors update it.
  const double col_specials[] = {0.0, -0.0, nan, inf, -inf};
  const double rhs_specials[] = {0.0, -0.0, nan, inf, -inf, -5e-12, 1e-300};
  // Offsets landing an update just inside, on, and just outside the
  // (-1e-11, 0) snap window.
  const double straddle[] = {-1e-11, -0.99e-11, -1.01e-11, -1e-15, 0.0, 1e-15};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
  };
  for (std::size_t m = 1; m <= 33; ++m) {
    for (std::size_t leave = 0; leave < m; ++leave) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<double> col = random_buf(rng, m);
        std::vector<double> a = random_buf(rng, m);
        if (trial == 1) a[leave] = 0.0;  // updates leave rows exactly as they were
        for (std::size_t i = 0; i < m; ++i) {
          if (i == leave) continue;
          const int kind = rng.uniform_int(0, 5);
          if (kind == 0) col[i] = col_specials[pick(std::size(col_specials))];
          if (kind == 1) a[i] = rhs_specials[pick(std::size(rhs_specials))];
          if (kind == 2) a[i] = col[i] * a[leave] + straddle[pick(std::size(straddle))];
        }
        if (trial == 3) a[leave] = rhs_specials[pick(std::size(rhs_specials))];
        std::vector<double> b = a;
        sc.lp_rhs_pivot(a.data(), col.data(), leave, m);
        vx.lp_rhs_pivot(b.data(), col.data(), leave, m);
        for (std::size_t i = 0; i < m; ++i) {
          ASSERT_BITEQ_OR_NAN(a[i], b[i]) << "m=" << m << " leave=" << leave << " i=" << i;
        }
      }
    }
  }
  // The contract itself, on the vector path: the pivot row keeps its
  // value, a zero factor leaves a row (and its clamp) alone, a tiny
  // negative update snaps to +0.0, and anything at or below -1e-11 stays.
  std::vector<double> rhs = {-5e-12, 2.0, 1.0, 2.0 - 2e-11, 3.0, -5e-12, 2.0, 7.0};
  const std::vector<double> col = {0.0, 5.0, 1.0, 1.0, 1.0, -0.0, 1.0 + 1e-12, nan};
  vx.lp_rhs_pivot(rhs.data(), col.data(), 1, rhs.size());
  EXPECT_BITEQ(rhs[0], -5e-12);
  EXPECT_BITEQ(rhs[1], 2.0);
  EXPECT_TRUE(rhs[2] < -1e-11);
  EXPECT_TRUE(rhs[3] <= -1e-11 && rhs[3] > -3e-11);
  EXPECT_BITEQ(rhs[4], 1.0);
  EXPECT_BITEQ(rhs[5], -5e-12);
  EXPECT_BITEQ(rhs[6], 0.0);
  EXPECT_TRUE(std::isnan(rhs[7]));
}

TEST(SimdKernels, ArgminParityTiesThresholdsNaN) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  const KernelTable& sc = table_for(simd::Isa::kScalar);
  const KernelTable& vx = table_for(simd::Isa::kAvx2);
  Rng rng(202);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double thresholds[] = {-1e-9, 0.0, 0.5, -inf};
  for (std::size_t n = 1; n <= 33; ++n) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> v = random_buf(rng, n);
      // Force exact ties on the minimum so earliest-index selection is
      // actually exercised, and sprinkle non-finite entries.
      if (n >= 3 && trial % 2 == 0) v[n - 1] = v[n / 2] = v[0];
      if (trial % 3 == 0) v[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1))] = nan;
      if (trial % 4 == 0) v[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1))] = -inf;
      std::vector<unsigned char> blocked(n);
      for (std::size_t j = 0; j < n; ++j)
        blocked[j] = static_cast<unsigned char>(rng.uniform_int(0, 2) == 0);
      for (double th : thresholds) {
        ASSERT_EQ(sc.lp_argmin(v.data(), n, th), vx.lp_argmin(v.data(), n, th))
            << "n=" << n << " th=" << th;
        ASSERT_EQ(sc.lp_argmin_masked(v.data(), blocked.data(), n, th),
                  vx.lp_argmin_masked(v.data(), blocked.data(), n, th))
            << "n=" << n << " th=" << th;
        ASSERT_EQ(sc.lp_argmin_masked(v.data(), nullptr, n, th),
                  vx.lp_argmin_masked(v.data(), nullptr, n, th));
      }
    }
  }
  // Degenerate cases: everything blocked, nothing below threshold.
  std::vector<double> v = {3.0, 4.0, 5.0};
  std::vector<unsigned char> all(3, 1);
  EXPECT_EQ(vx.lp_argmin_masked(v.data(), all.data(), 3, 100.0), -1);
  EXPECT_EQ(vx.lp_argmin(v.data(), 3, 1.0), -1);
}

// ---------------------------------------------------------------------------
// MLP / membership kernels
// ---------------------------------------------------------------------------

TEST(SimdKernels, GemvFamilyParityAllSizes) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  const KernelTable& sc = table_for(simd::Isa::kScalar);
  const KernelTable& vx = table_for(simd::Isa::kAvx2);
  Rng rng(303);
  for (std::size_t rows = 1; rows <= 33; rows += (rows < 9 ? 1 : 5)) {
    for (std::size_t cols = 1; cols <= 33; cols += (cols < 9 ? 1 : 5)) {
      const Matrix a = random_matrix(rng, rows, cols);
      const std::vector<double> x = random_buf(rng, cols);
      const std::vector<double> b = random_buf(rng, rows);

      std::vector<double> y1(rows), y2(rows);
      sc.gemv(a, x.data(), y1.data());
      vx.gemv(a, x.data(), y2.data());
      for (std::size_t i = 0; i < rows; ++i) ASSERT_BITEQ(y1[i], y2[i]);

      y1 = random_buf(rng, rows);
      y2 = y1;
      sc.gemv_sub(a, x.data(), y1.data());
      vx.gemv_sub(a, x.data(), y2.data());
      for (std::size_t i = 0; i < rows; ++i) ASSERT_BITEQ(y1[i], y2[i]);

      for (bool relu : {false, true}) {
        sc.gemv_bias(a, x.data(), b.data(), y1.data(), relu);
        vx.gemv_bias(a, x.data(), b.data(), y2.data(), relu);
        for (std::size_t i = 0; i < rows; ++i) ASSERT_BITEQ(y1[i], y2[i]);
      }
    }
  }
}

TEST(SimdKernels, BatchedKernelsParityUnalignedLeadingDims) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  const KernelTable& sc = table_for(simd::Isa::kScalar);
  const KernelTable& vx = table_for(simd::Isa::kAvx2);
  Rng rng(404);
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 31, 32, 33};
  const std::size_t batches[] = {1, 2, 3, 4, 5, 8, 9};
  for (std::size_t rows : sizes) {
    for (std::size_t cols : sizes) {
      for (std::size_t batch : batches) {
        // Unaligned leading dimensions: odd pads break any assumption
        // that rows are 32-byte aligned or contiguous.
        const std::size_t ldx = cols + (rows + batch) % 4;
        const std::size_t ldy = rows + (cols + batch) % 3;
        const Matrix a = random_matrix(rng, rows, cols);
        const std::vector<double> b = random_buf(rng, rows);
        const std::vector<double> x = random_buf(rng, batch * ldx);

        std::vector<double> y1(batch * ldy, 0.25), y2(batch * ldy, 0.25);
        for (bool relu : {false, true}) {
          sc.gemm_bias(a, x.data(), batch, ldx, b.data(), y1.data(), ldy, relu);
          vx.gemm_bias(a, x.data(), batch, ldx, b.data(), y2.data(), ldy, relu);
          for (std::size_t k = 0; k < y1.size(); ++k) ASSERT_BITEQ(y1[k], y2[k]);
        }

        // Deltas with exact zeros exercise the zero-row skip.
        std::vector<double> d = random_buf(rng, batch * ldy);
        for (std::size_t k = 0; k < d.size(); k += 3) d[k] = 0.0;
        std::vector<double> dp1(batch * ldx, -1.0), dp2(batch * ldx, -1.0);
        sc.gemm_transpose(a, d.data(), batch, ldy, dp1.data(), ldx);
        vx.gemm_transpose(a, d.data(), batch, ldy, dp2.data(), ldx);
        for (std::size_t k = 0; k < dp1.size(); ++k) ASSERT_BITEQ(dp1[k], dp2[k]);

        Matrix dw1 = random_matrix(rng, rows, cols);
        Matrix dw2 = dw1;
        std::vector<double> db1 = random_buf(rng, rows);
        std::vector<double> db2 = db1;
        sc.gemm_grad_accum(d.data(), batch, ldy, x.data(), ldx, dw1, db1.data());
        vx.gemm_grad_accum(d.data(), batch, ldy, x.data(), ldx, dw2, db2.data());
        for (std::size_t i = 0; i < rows; ++i) {
          ASSERT_BITEQ(db1[i], db2[i]);
          for (std::size_t j = 0; j < cols; ++j) ASSERT_BITEQ(dw1(i, j), dw2(i, j));
        }
      }
    }
  }
}

/// ReLU-gated deltas: about half the entries are exact +0.0 or -0.0, the
/// pattern backward_batch feeds the skip-zero kernels.
std::vector<double> relu_deltas(Rng& rng, std::size_t n) {
  std::vector<double> d = random_buf(rng, n);
  for (double& v : d) {
    if (rng.uniform_int(0, 1) == 0) v = rng.uniform_int(0, 1) == 0 ? 0.0 : -0.0;
  }
  return d;
}

/// Runs gemm_bias, gemm_transpose and gemm_grad_accum through both tables
/// on one (rows x cols, batch) shape and compares every output bit (NaN
/// results only for NaN-ness, see BitEqOrNaN).
void expect_batched_parity(const Matrix& a, const std::vector<double>& b,
                           const std::vector<double>& x, const std::vector<double>& d,
                           std::size_t batch, std::size_t ldx, std::size_t ldy,
                           Rng& rng) {
  const KernelTable& sc = table_for(simd::Isa::kScalar);
  const KernelTable& vx = table_for(simd::Isa::kAvx2);
  const std::size_t rows = a.rows(), cols = a.cols();
  const std::string where = std::to_string(rows) + "x" + std::to_string(cols) +
                            " batch " + std::to_string(batch);

  std::vector<double> y1(batch * ldy, 0.25), y2(batch * ldy, 0.25);
  for (bool relu : {false, true}) {
    sc.gemm_bias(a, x.data(), batch, ldx, b.data(), y1.data(), ldy, relu);
    vx.gemm_bias(a, x.data(), batch, ldx, b.data(), y2.data(), ldy, relu);
    for (std::size_t k = 0; k < y1.size(); ++k)
      ASSERT_BITEQ_OR_NAN(y1[k], y2[k]) << where;
  }

  std::vector<double> dp1(batch * ldx, -1.0), dp2(batch * ldx, -1.0);
  sc.gemm_transpose(a, d.data(), batch, ldy, dp1.data(), ldx);
  vx.gemm_transpose(a, d.data(), batch, ldy, dp2.data(), ldx);
  for (std::size_t k = 0; k < dp1.size(); ++k)
    ASSERT_BITEQ_OR_NAN(dp1[k], dp2[k]) << where;

  Matrix dw1 = random_matrix(rng, rows, cols);
  Matrix dw2 = dw1;
  std::vector<double> db1 = random_buf(rng, rows);
  std::vector<double> db2 = db1;
  sc.gemm_grad_accum(d.data(), batch, ldy, x.data(), ldx, dw1, db1.data());
  vx.gemm_grad_accum(d.data(), batch, ldy, x.data(), ldx, dw2, db2.data());
  for (std::size_t i = 0; i < rows; ++i) {
    ASSERT_BITEQ_OR_NAN(db1[i], db2[i]) << where;
    for (std::size_t j = 0; j < cols; ++j)
      ASSERT_BITEQ_OR_NAN(dw1(i, j), dw2(i, j)) << where;
  }
}

TEST(SimdKernels, ProductionDqnShapesParity) {
  // The DQN's layers (6 -> 64 -> 64 -> 2, rl/dqn.hpp defaults; 4 inputs
  // at disturbance memory 1) at the default minibatch and at batches that
  // leave a 1- and 3-row tail.  gemm_bias runs the rows past the last
  // 4-row block in one pass (1..3 of them, the 2-action layer's two), and
  // gemm_grad_accum the columns past the last 16-wide tile as 1..4
  // vectors, the last one masked (4, 6, 10 and 15 inputs).
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  const KernelTable& sc = table_for(simd::Isa::kScalar);
  const KernelTable& vx = table_for(simd::Isa::kAvx2);
  Rng rng(707);
  const std::size_t shapes[][2] = {{64, 6},  {64, 64}, {2, 64},  {64, 4}, {64, 10},
                                   {64, 15}, {1, 64},  {3, 64},  {7, 64}, {3, 6}};
  for (const auto& shape : shapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    for (std::size_t batch : {std::size_t{32}, std::size_t{33}, std::size_t{35}}) {
      // Activation buffers use the widest layer as their stride, as in
      // Mlp::forward_batch_into / backward_batch.
      const std::size_t ld = 64;
      const Matrix a = random_matrix(rng, rows, cols);
      const std::vector<double> b = random_buf(rng, rows);
      const std::vector<double> x = random_buf(rng, batch * ld);
      const std::vector<double> d = relu_deltas(rng, batch * ld);
      expect_batched_parity(a, b, x, d, batch, ld, ld, rng);
    }
    const Matrix a = random_matrix(rng, rows, cols);
    const std::vector<double> x = random_buf(rng, cols);
    const std::vector<double> b = random_buf(rng, rows);
    std::vector<double> y1(rows), y2(rows);
    for (bool relu : {false, true}) {
      sc.gemv_bias(a, x.data(), b.data(), y1.data(), relu);
      vx.gemv_bias(a, x.data(), b.data(), y2.data(), relu);
      for (std::size_t i = 0; i < rows; ++i) ASSERT_BITEQ(y1[i], y2[i]);
    }
  }
}

TEST(SimdKernels, TileWidthEdgesParity) {
  // Column counts either side of the 16-wide register tile, row counts
  // off every 4/8 block, ReLU-gated deltas.
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  Rng rng(808);
  for (std::size_t cols : {15, 16, 17, 31, 33, 47}) {
    for (std::size_t rows : {1, 3, 4, 5, 8, 13, 17}) {
      for (std::size_t batch : {1, 4, 7}) {
        const std::size_t ldx = cols + (rows + batch) % 3;
        const std::size_t ldy = rows + batch % 2;
        const Matrix a = random_matrix(rng, rows, cols);
        const std::vector<double> b = random_buf(rng, rows);
        const std::vector<double> x = random_buf(rng, batch * ldx);
        const std::vector<double> d = relu_deltas(rng, batch * ldy);
        expect_batched_parity(a, b, x, d, batch, ldx, ldy, rng);
      }
    }
  }
}

TEST(SimdKernels, GemvBiasRowBlockTails) {
  // gemv_bias vectorizes across 8 (then 4) output rows: every row count
  // that leaves an 8-block, 4-block or scalar tail, at tile-edge widths.
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  const KernelTable& sc = table_for(simd::Isa::kScalar);
  const KernelTable& vx = table_for(simd::Isa::kAvx2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(909);
  for (std::size_t rows : {1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 19, 23, 63, 65}) {
    for (std::size_t cols : {15, 16, 17, 18, 19, 64}) {
      Matrix a = random_matrix(rng, rows, cols);
      std::vector<double> x = random_buf(rng, cols);
      const std::vector<double> b = random_buf(rng, rows);
      std::vector<double> y1(rows), y2(rows);
      for (int variant = 0; variant < 3; ++variant) {
        if (variant == 1) {
          // Signed zeros: -0.0 products summed from +0.0, and a -0.0 input.
          x[0] = -0.0;
          a(rows - 1, cols - 1) = 0.0;
        } else if (variant == 2) {
          a(rows / 2, cols / 2) = inf;
          x[cols - 1] = nan;
        }
        for (bool relu : {false, true}) {
          sc.gemv_bias(a, x.data(), b.data(), y1.data(), relu);
          vx.gemv_bias(a, x.data(), b.data(), y2.data(), relu);
          for (std::size_t i = 0; i < rows; ++i)
            ASSERT_BITEQ(y1[i], y2[i]) << rows << "x" << cols << " variant " << variant;
        }
      }
    }
  }
}

TEST(SimdKernels, BackwardKernelsNonFiniteParity) {
  // +-inf / NaN in the weights, the inputs and the deltas of the backward
  // kernels: the zero-delta skip must drop exactly the terms the scalar
  // loop drops (a skipped 0 * inf would otherwise inject NaN).
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {inf, -inf, nan};
  Rng rng(1010);
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
  };
  for (std::size_t cols : {6, 16, 17, 64}) {
    for (std::size_t rows : {2, 5, 64}) {
      for (std::size_t batch : {3, 32, 35}) {
        const std::size_t ldx = cols + 1, ldy = rows + 2;
        Matrix a = random_matrix(rng, rows, cols);
        const std::vector<double> b = random_buf(rng, rows);
        std::vector<double> x = random_buf(rng, batch * ldx);
        std::vector<double> d = relu_deltas(rng, batch * ldy);
        for (int k = 0; k < 6; ++k) {
          const double s = specials[k % 3];
          a(pick(rows), pick(cols)) = s;
          x[pick(x.size())] = s;
          d[pick(d.size())] = s;
        }
        expect_batched_parity(a, b, x, d, batch, ldx, ldy, rng);
      }
    }
  }
}

TEST(SimdKernels, GemmBiasMatchesPerSampleGemvBias) {
  // The DQN batched-training parity property: a batched layer pass is
  // bit-identical to looping the per-sample kernel over the rows -- on
  // EVERY table, not just scalar.
  Rng rng(505);
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (isa == simd::Isa::kAvx2 && !have_avx2()) continue;
    const KernelTable& kt = table_for(isa);
    const Matrix a = random_matrix(rng, 13, 7);
    const std::vector<double> b = random_buf(rng, 13);
    const std::size_t batch = 9, ldx = 10, ldy = 15;
    const std::vector<double> x = random_buf(rng, batch * ldx);
    std::vector<double> y(batch * ldy), yref(batch * ldy);
    kt.gemm_bias(a, x.data(), batch, ldx, b.data(), y.data(), ldy, true);
    for (std::size_t r = 0; r < batch; ++r)
      kt.gemv_bias(a, x.data() + r * ldx, b.data(), yref.data() + r * ldy, true);
    for (std::size_t r = 0; r < batch; ++r)
      for (std::size_t i = 0; i < 13; ++i)
        ASSERT_BITEQ(y[r * ldy + i], yref[r * ldy + i]);
  }
}

TEST(SimdKernels, BatchMaxViolationEdgesAndNonFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(606);

  // Empty constraint system: every session reports exactly 0.0.
  {
    const Matrix empty(0, 3);
    const std::vector<double> x = random_buf(rng, 2 * 5);
    double worst[2] = {99.0, 99.0};
    oic::linalg::batch_max_violation(empty, nullptr, x.data(), 2, 5, worst);
    EXPECT_BITEQ(worst[0], 0.0);
    EXPECT_BITEQ(worst[1], 0.0);
  }

  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  const KernelTable& sc = table_for(simd::Isa::kScalar);
  const KernelTable& vx = table_for(simd::Isa::kAvx2);
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33};
  for (std::size_t rows : sizes) {
    for (std::size_t cols : sizes) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                std::size_t{5}, std::size_t{9}}) {
        const std::size_t ldx = cols + batch % 3;
        Matrix a = random_matrix(rng, rows, cols);
        std::vector<double> b = random_buf(rng, rows);
        std::vector<double> x = random_buf(rng, batch * ldx);
        // Non-finite state entries: stale sessions carry inf/NaN states and
        // the monitor's batched check must degrade exactly like the scalar
        // membership test.
        x[0] = nan;
        if (batch > 1) x[ldx] = inf;
        if (batch > 2) x[2 * ldx + (cols - 1)] = -inf;
        b[0] = (rows > 1) ? inf : b[0];
        std::vector<double> w1(batch), w2(batch);
        sc.batch_max_violation(a, b.data(), x.data(), batch, ldx, w1.data());
        vx.batch_max_violation(a, b.data(), x.data(), batch, ldx, w2.data());
        for (std::size_t r = 0; r < batch; ++r) ASSERT_BITEQ(w1[r], w2[r]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the blocked/transposed simplex must be byte-identical across
// ISAs on the random-LP corpus (pricing argmin, ratio test, pivot updates).
// ---------------------------------------------------------------------------

/// Same corpus generator as tests/test_perf.cpp: box-bounded variables,
/// mixed random rows through the interior, random objective.
Problem random_lp(Rng& rng, std::size_t nv, std::size_t rows) {
  Problem p(nv);
  for (std::size_t j = 0; j < nv; ++j) {
    p.set_bounds(j, -10.0, 10.0);
    p.set_objective_coeff(j, rng.uniform(-1.0, 1.0));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    Vector a(nv);
    for (std::size_t j = 0; j < nv; ++j) a[j] = rng.uniform(-1.0, 1.0);
    p.add_constraint(a, Relation::kLessEq, rng.uniform(1.0, 5.0));
  }
  return p;
}

struct SolveRecord {
  oic::lp::Status status;
  std::uint64_t objective_bits;
  std::vector<std::uint64_t> x_bits;
};

std::vector<SolveRecord> run_cold_corpus(unsigned seed) {
  Rng rng(seed);
  std::vector<SolveRecord> out;
  for (int trial = 0; trial < 40; ++trial) {
    const Problem p = random_lp(rng, 2 + trial % 5, 3 + trial % 6);
    const oic::lp::Result r = oic::lp::solve(p);
    SolveRecord rec;
    rec.status = r.status;
    rec.objective_bits = bits(r.objective);
    if (r.status == oic::lp::Status::kOptimal)
      for (std::size_t j = 0; j < r.x.size(); ++j)
        rec.x_bits.push_back(bits(r.x[j]));
    out.push_back(std::move(rec));
  }
  return out;
}

std::vector<SolveRecord> run_warm_sequence(unsigned seed) {
  // The MPC shape: one equality row patched per step, canonical seed
  // restarts via set_hot_rows, warm dual continuations in between.
  Rng rng(seed);
  Problem p(3);
  for (std::size_t j = 0; j < 3; ++j) {
    p.set_objective_coeff(j, rng.uniform(0.2, 1.0));
    p.set_bounds(j, -10.0, 10.0);
  }
  p.add_constraint(Vector{1, 0, 0}, Relation::kEqual, 0.0);
  p.add_constraint(Vector{1, 1, 0}, Relation::kLessEq, 4.0);
  p.add_constraint(Vector{0, 1, 1}, Relation::kGreaterEq, -4.0);

  PreparedProblem prep(p);
  prep.set_hot_rows({0});
  SolverWorkspace ws;
  PreparedProblem::WarmState warm;
  std::vector<SolveRecord> out;
  double x0 = -1.5;
  for (int k = 0; k < 300; ++k) {  // long enough to cross a refactor window
    x0 += rng.uniform(-0.3, 0.35);
    prep.set_rhs(0, x0);
    const oic::lp::Result r = prep.solve_warm(ws, warm);
    SolveRecord rec;
    rec.status = r.status;
    rec.objective_bits = bits(r.objective);
    if (r.status == oic::lp::Status::kOptimal)
      for (std::size_t j = 0; j < r.x.size(); ++j)
        rec.x_bits.push_back(bits(r.x[j]));
    out.push_back(std::move(rec));
  }
  return out;
}

TEST(SimplexIsaParity, ColdSolvesByteIdenticalAcrossIsa) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  IsaGuard guard;
  ASSERT_TRUE(simd::force(simd::Isa::kScalar));
  const auto scalar = run_cold_corpus(9001);
  ASSERT_TRUE(simd::force(simd::Isa::kAvx2));
  const auto avx2 = run_cold_corpus(9001);
  ASSERT_EQ(scalar.size(), avx2.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].status, avx2[i].status) << "trial " << i;
    EXPECT_EQ(scalar[i].objective_bits, avx2[i].objective_bits) << "trial " << i;
    EXPECT_EQ(scalar[i].x_bits, avx2[i].x_bits) << "trial " << i;
  }
}

TEST(SimplexIsaParity, WarmSeededSequenceByteIdenticalAcrossIsa) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable; scalar-only build/CPU";
  IsaGuard guard;
  ASSERT_TRUE(simd::force(simd::Isa::kScalar));
  const auto scalar = run_warm_sequence(9002);
  ASSERT_TRUE(simd::force(simd::Isa::kAvx2));
  const auto avx2 = run_warm_sequence(9002);
  ASSERT_EQ(scalar.size(), avx2.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].status, avx2[i].status) << "step " << i;
    EXPECT_EQ(scalar[i].objective_bits, avx2[i].objective_bits) << "step " << i;
    EXPECT_EQ(scalar[i].x_bits, avx2[i].x_bits) << "step " << i;
  }
}

TEST(SimplexIsaParity, WarmSequenceMatchesColdObjectives) {
  // Blocked/transposed warm engine vs the plain cold path: identical
  // statuses and (to LP tolerance) identical objectives at every step.
  Rng rng(9003);
  Problem p(3);
  for (std::size_t j = 0; j < 3; ++j) {
    p.set_objective_coeff(j, rng.uniform(0.2, 1.0));
    p.set_bounds(j, -10.0, 10.0);
  }
  p.add_constraint(Vector{1, 0, 0}, Relation::kEqual, 0.0);
  p.add_constraint(Vector{1, 1, 0}, Relation::kLessEq, 4.0);
  p.add_constraint(Vector{0, 1, 1}, Relation::kGreaterEq, -4.0);
  PreparedProblem warm_prep(p), cold_prep(p);
  warm_prep.set_hot_rows({0});
  SolverWorkspace ws_warm, ws_cold;
  PreparedProblem::WarmState warm;
  double x0 = 0.5;
  for (int k = 0; k < 300; ++k) {
    x0 += rng.uniform(-0.3, 0.3);
    warm_prep.set_rhs(0, x0);
    cold_prep.set_rhs(0, x0);
    const oic::lp::Result rw = warm_prep.solve_warm(ws_warm, warm);
    const oic::lp::Result rc = cold_prep.solve(ws_cold);
    ASSERT_EQ(rc.status, rw.status) << "step " << k;
    if (rc.status == oic::lp::Status::kOptimal) {
      EXPECT_NEAR(rc.objective, rw.objective, 1e-8) << "step " << k;
    }
  }
}

}  // namespace
