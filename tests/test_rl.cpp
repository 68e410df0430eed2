// Tests for the RL substrate: MLP forward/backward (with numerical
// gradient checks), optimizers, replay buffer, epsilon schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "rl/dqn.hpp"
#include "rl/mlp.hpp"
#include "rl/optimizer.hpp"
#include "rl/replay.hpp"

namespace {

using oic::Rng;
using oic::linalg::Vector;
using oic::rl::ForwardCache;
using oic::rl::Gradients;
using oic::rl::Mlp;

TEST(Mlp, OutputShapeAndDeterminism) {
  Rng rng(3);
  Mlp net({3, 8, 2}, rng);
  const Vector out1 = net.forward(Vector{0.1, -0.2, 0.3});
  const Vector out2 = net.forward(Vector{0.1, -0.2, 0.3});
  ASSERT_EQ(out1.size(), 2u);
  EXPECT_TRUE(approx_equal(out1, out2, 0.0));
}

TEST(Mlp, ForwardCachedMatchesForward) {
  Rng rng(4);
  Mlp net({4, 16, 16, 3}, rng);
  const Vector in{0.5, -1.0, 2.0, 0.0};
  ForwardCache cache;
  EXPECT_TRUE(approx_equal(net.forward(in), net.forward_cached(in, cache), 1e-14));
  EXPECT_EQ(cache.pre.size(), 3u);
  EXPECT_EQ(cache.post.size(), 4u);
}

TEST(Mlp, NumParamsCountsEverything) {
  Rng rng(5);
  Mlp net({3, 8, 2}, rng);
  EXPECT_EQ(net.num_params(), 3u * 8 + 8 + 8 * 2 + 2);
}

TEST(Mlp, CopyFromMakesNetsIdentical) {
  Rng rng(6);
  Mlp a({2, 4, 1}, rng);
  Mlp b({2, 4, 1}, rng);
  const Vector in{0.3, -0.7};
  EXPECT_FALSE(approx_equal(a.forward(in), b.forward(in), 1e-12));
  b.copy_from(a);
  EXPECT_TRUE(approx_equal(a.forward(in), b.forward(in), 0.0));
}

TEST(Mlp, SoftUpdateInterpolates) {
  Rng rng(7);
  Mlp a({1, 2, 1}, rng);
  Mlp b({1, 2, 1}, rng);
  Mlp b0({1, 2, 1}, rng);
  b0.copy_from(b);
  b.soft_update_from(a, 1.0);  // tau = 1: full copy
  const Vector in{0.5};
  EXPECT_TRUE(approx_equal(b.forward(in), a.forward(in), 1e-14));
  b.copy_from(b0);
  b.soft_update_from(a, 0.0);  // tau = 0: unchanged
  EXPECT_TRUE(approx_equal(b.forward(in), b0.forward(in), 1e-14));
}

// Finite-difference gradient check across several architectures/seeds.
class MlpGradCheck : public ::testing::TestWithParam<int> {};

TEST_P(MlpGradCheck, BackwardMatchesFiniteDifferences) {
  Rng rng{static_cast<std::uint64_t>(GetParam() * 1299709 + 19)};
  const std::vector<std::size_t> archs[] = {
      {2, 5, 1}, {3, 4, 4, 2}, {1, 8, 3}, {4, 6, 2}};
  Mlp net(archs[GetParam() % 4], rng);

  Vector in(net.sizes().front());
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.uniform(-1.5, 1.5);
  Vector dout(net.sizes().back());
  for (std::size_t i = 0; i < dout.size(); ++i) dout[i] = rng.uniform(-1, 1);

  // Loss = dout . f(in); analytic parameter gradient via backward.
  ForwardCache cache;
  net.forward_cached(in, cache);
  const Gradients g = net.backward(cache, dout);

  const double eps = 1e-6;
  // Spot-check a handful of coordinates in every layer.
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    for (int probe = 0; probe < 4; ++probe) {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(net.weight(l).rows()) - 1));
      const std::size_t j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(net.weight(l).cols()) - 1));
      Mlp pert = net;
      pert.weight(l)(i, j) += eps;
      const double up = dot(dout, pert.forward(in));
      pert.weight(l)(i, j) -= 2 * eps;
      const double dn = dot(dout, pert.forward(in));
      const double fd = (up - dn) / (2 * eps);
      EXPECT_NEAR(g.dw[l](i, j), fd, 1e-4)
          << "layer " << l << " weight (" << i << "," << j << ")";
    }
    const std::size_t bi = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(net.bias(l).size()) - 1));
    Mlp pert = net;
    pert.bias(l)[bi] += eps;
    const double up = dot(dout, pert.forward(in));
    pert.bias(l)[bi] -= 2 * eps;
    const double dn = dot(dout, pert.forward(in));
    EXPECT_NEAR(g.db[l][bi], (up - dn) / (2 * eps), 1e-4) << "layer " << l << " bias";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlpGradCheck, ::testing::Range(0, 12));

TEST(Optimizers, AdamFitsSmallRegression) {
  // Fit y = sin-ish table with a small net; the loss must fall
  // substantially from its initial value.
  Rng rng(13);
  Mlp net({1, 16, 1}, rng);
  oic::rl::Adam opt(5e-3);
  const double xs[] = {-1.0, -0.5, 0.0, 0.5, 1.0};
  const double ys[] = {-0.8, -0.45, 0.0, 0.45, 0.8};
  auto loss = [&]() {
    double s = 0.0;
    for (int i = 0; i < 5; ++i) {
      const double e = net.forward(Vector{xs[i]})[0] - ys[i];
      s += e * e;
    }
    return s;
  };
  const double initial = loss();
  for (int it = 0; it < 500; ++it) {
    Gradients g = net.zero_gradients();
    for (int i = 0; i < 5; ++i) {
      ForwardCache cache;
      const Vector pred = net.forward_cached(Vector{xs[i]}, cache);
      g.add(net.backward(cache, Vector{pred[0] - ys[i]}));
    }
    g.scale(1.0 / 5.0);
    opt.step(net, g);
  }
  EXPECT_LT(loss(), 0.05 * initial);
}

/// Per-element Adam written element by element through the checked (i, j)
/// accessors: the reference the flat-loop Adam::step must match bit for bit.
struct ReferenceAdam {
  explicit ReferenceAdam(double learning_rate) : lr(learning_rate) {}

  double lr, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  std::size_t t = 0;
  Gradients m, v;

  void step(Mlp& net, const Gradients& g) {
    if (t == 0) {
      m = net.zero_gradients();
      v = net.zero_gradients();
    }
    ++t;
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    for (std::size_t l = 0; l < g.dw.size(); ++l) {
      auto& w = net.weight(l);
      auto& b = net.bias(l);
      for (std::size_t i = 0; i < w.rows(); ++i) {
        for (std::size_t j = 0; j < w.cols(); ++j) {
          const double grad = g.dw[l](i, j);
          double& mi = m.dw[l](i, j);
          double& vi = v.dw[l](i, j);
          mi = beta1 * mi + (1.0 - beta1) * grad;
          vi = beta2 * vi + (1.0 - beta2) * grad * grad;
          w(i, j) -= lr * (mi / bc1) / (std::sqrt(vi / bc2) + eps);
        }
      }
      for (std::size_t i = 0; i < b.size(); ++i) {
        const double grad = g.db[l][i];
        double& mi = m.db[l][i];
        double& vi = v.db[l][i];
        mi = beta1 * mi + (1.0 - beta1) * grad;
        vi = beta2 * vi + (1.0 - beta2) * grad * grad;
        b[i] -= lr * (mi / bc1) / (std::sqrt(vi / bc2) + eps);
      }
    }
  }
};

std::uint64_t bits_of(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

TEST(Optimizers, FlatAdamMatchesPerElementReferenceBitwise) {
  // Odd layer widths (no multiple of any vector width) and gradients with
  // exact zeros, signed zeros, tiny and huge magnitudes, over 250 steps.
  Rng rng(21);
  Mlp flat_net({6, 17, 9, 2}, rng);
  Mlp ref_net = flat_net;
  oic::rl::Adam flat(2e-3);
  ReferenceAdam ref(2e-3);
  const double specials[] = {0.0, -0.0, 1e-300, -3e-12, 7e5};
  for (int step = 0; step < 250; ++step) {
    Gradients g = flat_net.zero_gradients();
    auto draw = [&](double& x) {
      const int pick = rng.uniform_int(0, 9);
      x = pick < 5 ? specials[pick] : rng.normal(0.0, 1.0);
    };
    for (auto& dw : g.dw)
      for (std::size_t k = 0; k < dw.rows() * dw.cols(); ++k) draw(dw.data()[k]);
    for (auto& db : g.db)
      for (double& x : db) draw(x);
    flat.step(flat_net, g);
    ref.step(ref_net, g);
    for (std::size_t l = 0; l < flat_net.num_layers(); ++l) {
      const auto& wf = flat_net.weight(l);
      const auto& wr = ref_net.weight(l);
      for (std::size_t k = 0; k < wf.rows() * wf.cols(); ++k)
        ASSERT_EQ(bits_of(wf.data()[k]), bits_of(wr.data()[k]))
            << "step " << step << " layer " << l << " weight " << k;
      for (std::size_t i = 0; i < flat_net.bias(l).size(); ++i)
        ASSERT_EQ(bits_of(flat_net.bias(l)[i]), bits_of(ref_net.bias(l)[i]))
            << "step " << step << " layer " << l << " bias " << i;
    }
  }
  EXPECT_EQ(flat.steps(), 250u);
}

TEST(Optimizers, AdamRejectsMismatchedGradientShape) {
  Rng rng(22);
  Mlp net({3, 4, 2}, rng);
  Mlp other({3, 5, 2}, rng);
  oic::rl::Adam opt(1e-3);
  EXPECT_THROW(opt.step(net, other.zero_gradients()), oic::PreconditionError);
  // Moments sized by the first net must not be reused for another shape.
  opt.step(net, net.zero_gradients());
  EXPECT_THROW(opt.step(other, other.zero_gradients()), oic::PreconditionError);
}

TEST(Replay, RingBufferOverwritesOldest) {
  oic::rl::ReplayBuffer buf(3);
  for (int i = 0; i < 5; ++i) {
    oic::rl::Transition t;
    t.state = Vector{static_cast<double>(i)};
    t.next_state = Vector{0.0};
    buf.add(std::move(t));
  }
  EXPECT_EQ(buf.size(), 3u);
  // Entries 2, 3, 4 remain in some slot order.
  std::vector<double> seen;
  for (std::size_t i = 0; i < buf.size(); ++i) seen.push_back(buf.at(i).state[0]);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(Replay, SampleReturnsStoredPointers) {
  oic::rl::ReplayBuffer buf(10);
  oic::rl::Transition t;
  t.state = Vector{7.0};
  t.next_state = Vector{8.0};
  buf.add(t);
  Rng rng(1);
  const auto batch = buf.sample(4, rng);
  ASSERT_EQ(batch.size(), 4u);
  for (const auto* p : batch) EXPECT_DOUBLE_EQ(p->state[0], 7.0);
}

TEST(Replay, EmptySampleThrows) {
  oic::rl::ReplayBuffer buf(4);
  Rng rng(1);
  EXPECT_THROW(buf.sample(1, rng), oic::PreconditionError);
}

TEST(Replay, WraparoundOverwritesInInsertionOrder) {
  // The ring's head walks slot 0, 1, 2, 0, 1, ...: after 8 adds into
  // capacity 3, slot k holds the latest entry whose index is congruent to
  // k mod 3 -- pinning the wraparound arithmetic, not just the surviving
  // set.
  oic::rl::ReplayBuffer buf(3);
  for (int i = 0; i < 8; ++i) {
    oic::rl::Transition t;
    t.state = Vector{static_cast<double>(i)};
    t.next_state = Vector{0.0};
    buf.add(std::move(t));
    EXPECT_EQ(buf.size(), std::min<std::size_t>(static_cast<std::size_t>(i) + 1, 3u));
  }
  EXPECT_DOUBLE_EQ(buf.at(0).state[0], 6.0);
  EXPECT_DOUBLE_EQ(buf.at(1).state[0], 7.0);
  EXPECT_DOUBLE_EQ(buf.at(2).state[0], 5.0);
  EXPECT_THROW(buf.at(3), oic::PreconditionError);
}

TEST(Replay, CapacityOneAlwaysHoldsTheLatest) {
  oic::rl::ReplayBuffer buf(1);
  EXPECT_EQ(buf.capacity(), 1u);
  for (int i = 0; i < 4; ++i) {
    oic::rl::Transition t;
    t.state = Vector{static_cast<double>(i)};
    t.next_state = Vector{0.0};
    buf.add(std::move(t));
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_DOUBLE_EQ(buf.at(0).state[0], static_cast<double>(i));
  }
  Rng rng(3);
  for (const auto* p : buf.sample(5, rng)) EXPECT_DOUBLE_EQ(p->state[0], 3.0);
  EXPECT_THROW(oic::rl::ReplayBuffer(0), oic::PreconditionError);
}

TEST(Replay, SamplingIsDeterministicGivenTheRngAndUsesTheWholeBuffer) {
  oic::rl::ReplayBuffer buf(16);
  for (int i = 0; i < 16; ++i) {
    oic::rl::Transition t;
    t.state = Vector{static_cast<double>(i)};
    t.next_state = Vector{0.0};
    buf.add(std::move(t));
  }
  const auto draw = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> out;
    for (const auto* p : buf.sample(64, rng)) out.push_back(p->state[0]);
    return out;
  };
  const auto a = draw(42);
  EXPECT_EQ(a, draw(42));       // same seed, same indices
  EXPECT_NE(a, draw(43));       // another stream differs
  // Uniform-with-replacement over 64 draws from 16 slots: every draw must
  // be a stored value, and more than one distinct slot must appear.
  std::vector<double> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GE(sorted.front(), 0.0);
  EXPECT_LE(sorted.back(), 15.0);
  EXPECT_GT(std::unique(sorted.begin(), sorted.end()) - sorted.begin(), 4);
}

TEST(Epsilon, LinearDecaySaturates) {
  oic::rl::EpsilonSchedule sched(1.0, 0.1, 100);
  EXPECT_DOUBLE_EQ(sched.at(0), 1.0);
  EXPECT_NEAR(sched.at(50), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(sched.at(100), 0.1);
  EXPECT_DOUBLE_EQ(sched.at(1000), 0.1);
}

TEST(Epsilon, BoundaryBehavior) {
  // The step BEFORE decay_steps still interpolates; decay_steps itself is
  // saturated (at() is right-continuous at the knee).
  oic::rl::EpsilonSchedule sched(1.0, 0.0, 4);
  EXPECT_DOUBLE_EQ(sched.at(3), 0.25);
  EXPECT_DOUBLE_EQ(sched.at(4), 0.0);

  // decay_steps = 1 is the steepest legal schedule: start at 0, end from 1.
  oic::rl::EpsilonSchedule step(0.8, 0.2, 1);
  EXPECT_DOUBLE_EQ(step.at(0), 0.8);
  EXPECT_DOUBLE_EQ(step.at(1), 0.2);

  // A flat schedule is legal and constant.
  oic::rl::EpsilonSchedule flat(0.3, 0.3, 10);
  EXPECT_DOUBLE_EQ(flat.at(0), 0.3);
  EXPECT_DOUBLE_EQ(flat.at(5), 0.3);
  EXPECT_DOUBLE_EQ(flat.at(100), 0.3);

  // Rising schedules (end > start) are allowed -- "epsilon warmup".
  oic::rl::EpsilonSchedule rising(0.0, 1.0, 2);
  EXPECT_DOUBLE_EQ(rising.at(1), 0.5);

  EXPECT_THROW(oic::rl::EpsilonSchedule(1.5, 0.1, 10), oic::PreconditionError);
  EXPECT_THROW(oic::rl::EpsilonSchedule(1.0, -0.1, 10), oic::PreconditionError);
  EXPECT_THROW(oic::rl::EpsilonSchedule(1.0, 0.1, 0), oic::PreconditionError);
}

TEST(Mlp, BatchedForwardMatchesPerSampleBitwise) {
  Rng rng(21);
  Mlp net({5, 32, 32, 3}, rng);
  const std::size_t batch = 17;
  oic::linalg::Matrix in(batch, 5);
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < 5; ++c) in(r, c) = rng.uniform(-2.0, 2.0);
  }
  oic::rl::BatchWorkspace ws;
  const auto& out = net.forward_batch_into(in, ws);
  oic::rl::BatchForwardCache cache;
  const auto& out_cached = net.forward_batch_cached(in, cache);
  ASSERT_EQ(out.rows(), batch);
  ASSERT_EQ(out.cols(), 3u);
  for (std::size_t r = 0; r < batch; ++r) {
    const Vector ref = net.forward(in.row(r));
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(out(r, c), ref[c]) << "row " << r;
      EXPECT_EQ(out_cached(r, c), ref[c]) << "row " << r;
    }
  }
}

TEST(Mlp, BatchedBackwardMatchesPerSampleAccumulationBitwise) {
  Rng rng(22);
  Mlp net({4, 16, 2}, rng);
  const std::size_t batch = 9;
  oic::linalg::Matrix in(batch, 4);
  oic::linalg::Matrix dout(batch, 2);
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < 4; ++c) in(r, c) = rng.uniform(-1.0, 1.0);
    // Sparse rows like the TD loss: one nonzero entry per sample.
    dout(r, r % 2) = rng.uniform(-1.0, 1.0);
  }

  // The ReLU gate's edge cases, written into the hidden pre-activations of
  // both caches alike: +0.0 and -0.0 gate the delta, NaN keeps it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double edges[] = {0.0, -0.0, nan};
  for (bool inject : {false, true}) {
    std::vector<ForwardCache> caches(batch);
    oic::rl::BatchForwardCache bcache;
    net.forward_batch_cached(in, bcache);
    for (std::size_t r = 0; r < batch; ++r) {
      net.forward_cached(in.row(r), caches[r]);
      if (!inject) continue;
      for (std::size_t i = r % 3; i < 16; i += 3) {
        const double z = edges[(r + i) % 3];
        caches[r].pre[0][i] = z;
        bcache.pre[0](r, i) = z;
      }
    }

    // Per-sample reference: backward each row, add in row order.
    Gradients ref = net.zero_gradients();
    for (std::size_t r = 0; r < batch; ++r) ref.add(net.backward(caches[r], dout.row(r)));

    Gradients got = net.zero_gradients();
    oic::rl::BatchWorkspace ws;
    net.backward_batch(bcache, dout, ws, got);

    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      for (std::size_t i = 0; i < ref.dw[l].rows(); ++i) {
        for (std::size_t j = 0; j < ref.dw[l].cols(); ++j) {
          EXPECT_EQ(bits_of(ref.dw[l](i, j)), bits_of(got.dw[l](i, j)))
              << "layer " << l << " inject " << inject;
        }
      }
      for (std::size_t i = 0; i < ref.db[l].size(); ++i) {
        EXPECT_EQ(bits_of(ref.db[l][i]), bits_of(got.db[l][i]))
            << "layer " << l << " inject " << inject;
      }
    }
  }
}

}  // namespace
