// End-to-end tests of the double-DQN agent on tiny synthetic MDPs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/random.hpp"
#include "rl/dqn.hpp"

namespace {

using oic::Rng;
using oic::linalg::Vector;
using oic::rl::DoubleDqn;
using oic::rl::DqnConfig;
using oic::rl::Transition;

DqnConfig small_config() {
  DqnConfig cfg;
  cfg.hidden = {16, 16};
  cfg.learning_rate = 3e-3;
  cfg.gamma = 0.9;
  cfg.batch_size = 16;
  cfg.replay_capacity = 2000;
  cfg.min_replay = 64;
  cfg.target_sync_interval = 100;
  cfg.epsilon_start = 1.0;
  cfg.epsilon_end = 0.05;
  cfg.epsilon_decay_steps = 1500;
  return cfg;
}

TEST(DoubleDqn, ConstructionAndShapes) {
  DoubleDqn agent(3, 2, small_config(), Rng(1));
  const Vector q = agent.q_values(Vector{0.1, 0.2, 0.3});
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(agent.train_steps(), 0u);
}

TEST(DoubleDqn, TargetStartsSyncedToOnline) {
  DoubleDqn agent(2, 2, small_config(), Rng(2));
  const Vector s{0.4, -0.4};
  EXPECT_TRUE(approx_equal(agent.online().forward(s), agent.target().forward(s), 0.0));
}

TEST(DoubleDqn, EpsilonDecaysWithActionSelections) {
  DoubleDqn agent(1, 2, small_config(), Rng(3));
  const double e0 = agent.epsilon();
  for (int i = 0; i < 500; ++i) agent.select_action(Vector{0.0});
  EXPECT_LT(agent.epsilon(), e0);
}

TEST(DoubleDqn, RejectsZeroBatchSize) {
  // A zero batch would divide the minibatch gradient by zero and Adam
  // would write NaN into every weight; the constructor refuses it.
  DqnConfig cfg = small_config();
  cfg.batch_size = 0;
  EXPECT_THROW(DoubleDqn(2, 2, cfg, Rng(4)), oic::PreconditionError);
  cfg.batch_size = 1;
  EXPECT_NO_THROW(DoubleDqn(2, 2, cfg, Rng(4)));
}

TEST(DoubleDqn, RejectsGammaOutsideUnitInterval) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double gamma : {-1e-9, -1.0, 1.0 + 1e-12, 2.0, nan}) {
    DqnConfig cfg = small_config();
    cfg.gamma = gamma;
    EXPECT_THROW(DoubleDqn(2, 2, cfg, Rng(4)), oic::PreconditionError)
        << "gamma " << gamma;
  }
  for (double gamma : {0.0, 0.5, 1.0}) {
    DqnConfig cfg = small_config();
    cfg.gamma = gamma;
    EXPECT_NO_THROW(DoubleDqn(2, 2, cfg, Rng(4))) << "gamma " << gamma;
  }
}

TEST(DoubleDqn, InvalidInputsThrow) {
  DoubleDqn agent(2, 2, small_config(), Rng(4));
  EXPECT_THROW(agent.q_values(Vector{1.0}), oic::PreconditionError);
  Transition t;
  t.state = Vector{0, 0};
  t.next_state = Vector{0, 0};
  t.action = 7;
  EXPECT_THROW(agent.observe(t), oic::PreconditionError);
}

// Contextual bandit: reward = +1 when action matches sign of the state,
// else -1.  The greedy policy must learn the mapping.
TEST(DoubleDqn, LearnsContextualBandit) {
  DqnConfig cfg = small_config();
  cfg.gamma = 0.0;  // bandit: no bootstrapping
  DoubleDqn agent(1, 2, cfg, Rng(5));
  Rng env(17);
  for (int step = 0; step < 4000; ++step) {
    const double s = env.uniform(-1, 1);
    const Vector state{s};
    const int a = agent.select_action(state);
    const int correct = s >= 0 ? 1 : 0;
    Transition t;
    t.state = state;
    t.action = a;
    t.reward = a == correct ? 1.0 : -1.0;
    t.next_state = state;
    t.terminal = true;
    agent.observe(std::move(t));
  }
  int correct = 0;
  for (int i = 0; i < 200; ++i) {
    const double s = env.uniform(-1, 1);
    if (std::abs(s) < 0.1) continue;  // skip the ambiguous boundary
    const int a = agent.greedy_action(Vector{s});
    correct += (a == (s >= 0 ? 1 : 0)) ? 1 : 0;
  }
  EXPECT_GT(correct, 150);
}

// Two-state chain MDP with known optimal Q: state 0 --action1--> state 1
// (reward 0), state 1 --action1--> terminal reward +1; action 0 loops with
// reward 0.  With gamma = 0.9 the optimal values are Q(0,1) = 0.9,
// Q(1,1) = 1.0.
TEST(DoubleDqn, ChainMdpValuesConverge) {
  DqnConfig cfg = small_config();
  cfg.gamma = 0.9;
  cfg.epsilon_decay_steps = 3000;
  cfg.learning_rate = 2e-3;
  DoubleDqn agent(1, 2, cfg, Rng(7));

  Rng env(23);
  for (int episode = 0; episode < 1200; ++episode) {
    double s = 0.0;
    for (int t = 0; t < 6; ++t) {
      const Vector state{s};
      const int a = agent.select_action(state);
      Transition tr;
      tr.state = state;
      tr.action = a;
      if (a == 0) {
        tr.reward = 0.0;
        tr.next_state = state;
        tr.terminal = false;
        agent.observe(tr);
        continue;
      }
      if (s < 0.5) {
        tr.reward = 0.0;
        tr.next_state = Vector{1.0};
        tr.terminal = false;
        agent.observe(tr);
        s = 1.0;
      } else {
        tr.reward = 1.0;
        tr.next_state = Vector{1.0};
        tr.terminal = true;
        agent.observe(tr);
        break;
      }
    }
  }
  const Vector q0 = agent.q_values(Vector{0.0});
  const Vector q1 = agent.q_values(Vector{1.0});
  EXPECT_NEAR(q1[1], 1.0, 0.15);
  EXPECT_NEAR(q0[1], 0.9, 0.2);
  EXPECT_GT(q0[1], q0[0]);  // advancing beats looping
  EXPECT_GT(q1[1], q1[0]);
}

/// A fixed 600-transition training stream on a 2-state, 2-action agent.
DoubleDqn run_stream() {
  DoubleDqn agent(2, 2, small_config(), Rng(42));
  Rng env(9);
  for (int i = 0; i < 600; ++i) {
    const Vector s{env.uniform(-1, 1), env.uniform(-1, 1)};
    const int a = agent.select_action(s);
    Transition t;
    t.state = s;
    t.action = a;
    t.reward = env.uniform(-1, 1);
    t.next_state = Vector{env.uniform(-1, 1), env.uniform(-1, 1)};
    t.terminal = env.bernoulli(0.1);
    agent.observe(std::move(t));
  }
  return agent;
}

/// FNV-1a over the bit patterns of every weight and bias, layer by layer.
std::uint64_t weight_hash(const oic::rl::Mlp& net) {
  oic::Fnv1a h;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const oic::linalg::Matrix& w = net.weight(l);
    for (std::size_t k = 0; k < w.rows() * w.cols(); ++k) h.f64(w.data()[k]);
    for (double b : net.bias(l)) h.f64(b);
  }
  return h.value();
}

// Golden pin of the whole update path (batched forwards, backward, Adam,
// act-time forward): the online weights after the fixed stream, captured
// before the register-blocked kernels and the flat Adam landed.  Any
// change to a single bit of any update fails here, at every kernel ISA.
TEST(DoubleDqn, TrainedWeightsMatchGoldenHash) {
  const DoubleDqn agent = run_stream();
  ASSERT_GT(agent.train_steps(), 0u);
  EXPECT_EQ(weight_hash(agent.online()), 0xe5b8a6061a945b64ull)
      << "hash 0x" << std::hex << weight_hash(agent.online());
}

TEST(DoubleDqn, DeterministicGivenSeeds) {
  auto run = [] {
    DoubleDqn agent(1, 2, small_config(), Rng(42));
    Rng env(1);
    for (int i = 0; i < 500; ++i) {
      const Vector s{env.uniform(-1, 1)};
      const int a = agent.select_action(s);
      Transition t;
      t.state = s;
      t.action = a;
      t.reward = a == 1 ? 0.5 : -0.5;
      t.next_state = s;
      t.terminal = true;
      agent.observe(std::move(t));
    }
    return agent.q_values(Vector{0.3});
  };
  const Vector a = run();
  const Vector b = run();
  EXPECT_TRUE(approx_equal(a, b, 0.0));
}

}  // namespace
