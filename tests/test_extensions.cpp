// Tests for the extension features beyond the paper's core: multi-step
// strengthened safe sets (burst skipping), the weakly-hard (m, K) governor,
// and MLP serialization.

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/random.hpp"
#include "control/invariant.hpp"
#include "control/lqr.hpp"
#include "core/intermittent.hpp"
#include "core/policy.hpp"
#include "core/runner.hpp"
#include "core/safe_sets.hpp"
#include "rl/serialize.hpp"

namespace {

using oic::Rng;
using oic::control::AffineLTI;
using oic::linalg::Matrix;
using oic::linalg::Vector;
using oic::poly::HPolytope;

struct Rig {
  AffineLTI sys;
  Matrix k;
  HPolytope xi;

  static const Rig& get() {
    static Rig rig = [] {
      const double dt = 0.1;
      Matrix a{{1, dt}, {0, 1}};
      Matrix b{{0.5 * dt * dt}, {dt}};
      AffineLTI sys = AffineLTI::canonical(
          a, b, HPolytope::sym_box(Vector{5, 5}), HPolytope::sym_box(Vector{2}),
          HPolytope::sym_box(Vector{0.04, 0.04}));
      const auto lqr = oic::control::dlqr(sys.a(), sys.b(), Matrix::identity(2),
                                          Matrix{{1.0}});
      const auto inv =
          oic::control::maximal_robust_control_invariant(sys, lqr.k, Vector{0.0});
      return Rig{std::move(sys), lqr.k, inv.set};
    }();
    return rig;
  }
};

TEST(MultiStepSafeSets, ChainIsNested) {
  const Rig& rig = Rig::get();
  const auto chain =
      oic::core::compute_multi_step_safe_sets(rig.sys, rig.xi, Vector{0.0}, 5);
  ASSERT_GE(chain.size(), 2u);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_TRUE(contains_polytope(chain[i - 1], chain[i], 1e-6))
        << "X'_" << i + 1 << " not inside X'_" << i;
  }
  // Every element sits inside XI.
  for (const auto& s : chain) EXPECT_TRUE(contains_polytope(rig.xi, s, 1e-6));
}

TEST(MultiStepSafeSets, FirstElementMatchesDefinition3) {
  const Rig& rig = Rig::get();
  const auto chain =
      oic::core::compute_multi_step_safe_sets(rig.sys, rig.xi, Vector{0.0}, 1);
  ASSERT_EQ(chain.size(), 1u);
  const auto sets = oic::core::compute_safe_sets(rig.sys, rig.xi, Vector{0.0});
  EXPECT_TRUE(approx_equal(chain[0], sets.x_prime, 1e-6));
}

TEST(MultiStepSafeSets, BurstSkippingIsSafe) {
  // From any vertex of X'_k, skipping k times in a row with adversarial
  // vertex disturbances must remain inside XI the whole way.
  const Rig& rig = Rig::get();
  const std::size_t k = 4;
  const auto chain =
      oic::core::compute_multi_step_safe_sets(rig.sys, rig.xi, Vector{0.0}, k);
  if (chain.size() < k) GTEST_SKIP() << "chain collapsed before depth " << k;
  Rng rng(5);
  const auto verts = chain[k - 1].vertices_2d();
  ASSERT_FALSE(verts.empty());
  for (const auto& v0 : verts) {
    for (int trial = 0; trial < 8; ++trial) {
      Vector x = v0;
      for (std::size_t step = 0; step < k; ++step) {
        const Vector w{rng.bernoulli(0.5) ? 0.04 : -0.04,
                       rng.bernoulli(0.5) ? 0.04 : -0.04};
        x = rig.sys.step(x, Vector{0.0}, w);
        EXPECT_TRUE(rig.xi.contains(x, 1e-7))
            << "left XI at burst step " << step << " from vertex";
      }
    }
  }
}

TEST(MultiStepSafeSets, InvalidArgsThrow) {
  const Rig& rig = Rig::get();
  EXPECT_THROW(
      oic::core::compute_multi_step_safe_sets(rig.sys, rig.xi, Vector{0.0}, 0),
      oic::PreconditionError);
}

TEST(WeaklyHard, EnforcesSkipBudget) {
  oic::core::BangBangPolicy skip_always;
  oic::core::WeaklyHardPolicy gov(skip_always, 2, 4);  // at most 2 skips per 4
  const Vector x{0, 0};
  std::vector<int> zs;
  for (int i = 0; i < 20; ++i) zs.push_back(gov.decide(x, {}));
  // Every window of 4 consecutive decisions has at most 2 zeros.
  for (std::size_t i = 0; i + 4 <= zs.size(); ++i) {
    int skips = 0;
    for (std::size_t j = i; j < i + 4; ++j) skips += zs[j] == 0 ? 1 : 0;
    EXPECT_LE(skips, 2) << "window at " << i;
  }
  // And the budget is actually used (not trivially all-run).
  int total_skips = 0;
  for (int z : zs) total_skips += z == 0 ? 1 : 0;
  EXPECT_GE(total_skips, 8);
}

TEST(WeaklyHard, PassThroughWhenInnerRuns) {
  oic::core::AlwaysRunPolicy run;
  oic::core::WeaklyHardPolicy gov(run, 1, 3);
  const Vector x{0, 0};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(gov.decide(x, {}), 1);
  EXPECT_EQ(gov.skips_in_window(), 0u);
}

TEST(WeaklyHard, ResetClearsWindow) {
  oic::core::BangBangPolicy skip_always;
  oic::core::WeaklyHardPolicy gov(skip_always, 1, 4);
  const Vector x{0, 0};
  EXPECT_EQ(gov.decide(x, {}), 0);
  EXPECT_EQ(gov.decide(x, {}), 1);  // budget spent
  gov.reset();
  EXPECT_EQ(gov.decide(x, {}), 0);  // fresh window
}

TEST(WeaklyHard, NoteForcedRunCountsTowardWindow) {
  oic::core::BangBangPolicy skip_always;
  oic::core::WeaklyHardPolicy gov(skip_always, 1, 2);
  const Vector x{0, 0};
  EXPECT_EQ(gov.decide(x, {}), 0);
  gov.note_forced_run();
  // Window now holds {0, 1}: one skip used, so next decide is blocked.
  EXPECT_EQ(gov.decide(x, {}), 1);
}

TEST(WeaklyHard, InvalidConfigThrows) {
  oic::core::BangBangPolicy p;
  EXPECT_THROW(oic::core::WeaklyHardPolicy(p, 3, 2), oic::PreconditionError);
  EXPECT_THROW(oic::core::WeaklyHardPolicy(p, 0, 0), oic::PreconditionError);
}

TEST(WeaklyHard, SafeUnderTheMonitor) {
  // The governor composes with Algorithm 1 without breaking Theorem 1.
  const Rig& rig = Rig::get();
  const auto sets = oic::core::compute_safe_sets(rig.sys, rig.xi, Vector{0.0});
  oic::control::LinearFeedback kappa(rig.k);
  oic::core::BangBangPolicy inner;
  oic::core::WeaklyHardPolicy gov(inner, 3, 5);
  oic::core::IntermittentConfig cfg;
  cfg.u_skip = Vector{0.0};
  oic::core::IntermittentController ic(rig.sys, sets, kappa, gov, cfg);
  Rng rng(11);
  const auto rr = oic::core::run_closed_loop(
      rig.sys, ic, Vector{0.2, 0.1}, 150, [&](std::size_t, Vector& w) {
        w[0] = rng.uniform(-0.04, 0.04);
        w[1] = rng.uniform(-0.04, 0.04);
      });
  EXPECT_FALSE(rr.left_xi);
  EXPECT_GT(rr.skipped, 30u);
  EXPECT_LT(rr.skipped, 105u);  // the (3,5) budget caps skipping below 70%
}

TEST(Serialize, RoundTripPreservesOutputs) {
  Rng rng(9);
  oic::rl::Mlp net({3, 16, 8, 2}, rng);
  std::stringstream ss;
  oic::rl::save_mlp(net, ss);
  const oic::rl::Mlp loaded = oic::rl::load_mlp(ss);
  Rng probe(10);
  for (int i = 0; i < 20; ++i) {
    const Vector in{probe.uniform(-2, 2), probe.uniform(-2, 2), probe.uniform(-2, 2)};
    EXPECT_TRUE(approx_equal(net.forward(in), loaded.forward(in), 1e-15));
  }
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(13);
  oic::rl::Mlp net({2, 4, 2}, rng);
  const std::string path = "/tmp/oic_test_mlp.txt";
  oic::rl::save_mlp_file(net, path);
  const oic::rl::Mlp loaded = oic::rl::load_mlp_file(path);
  EXPECT_TRUE(approx_equal(net.forward(Vector{0.3, -0.4}),
                           loaded.forward(Vector{0.3, -0.4}), 1e-15));
}

TEST(Serialize, MalformedInputRejected) {
  std::stringstream bad1("not-a-model v1\n");
  EXPECT_THROW(oic::rl::load_mlp(bad1), oic::NumericalError);
  std::stringstream bad2("oic-mlp v1\nsizes: 2 2\n0.5\n");  // truncated
  EXPECT_THROW(oic::rl::load_mlp(bad2), oic::NumericalError);
  EXPECT_THROW(oic::rl::load_mlp_file("/nonexistent/path.txt"), oic::NumericalError);
}

}  // namespace
