#include "rl/dqn.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace oic::rl {

using linalg::Vector;

EpsilonSchedule::EpsilonSchedule(double start, double end, std::size_t decay_steps)
    : start_(start), end_(end), decay_steps_(decay_steps) {
  OIC_REQUIRE(start >= 0.0 && start <= 1.0, "EpsilonSchedule: start out of range");
  OIC_REQUIRE(end >= 0.0 && end <= 1.0, "EpsilonSchedule: end out of range");
  OIC_REQUIRE(decay_steps >= 1, "EpsilonSchedule: decay_steps must be positive");
}

double EpsilonSchedule::at(std::size_t step) const {
  if (step >= decay_steps_) return end_;
  const double t = static_cast<double>(step) / static_cast<double>(decay_steps_);
  return start_ + t * (end_ - start_);
}

namespace {

std::vector<std::size_t> net_sizes(std::size_t in, const std::vector<std::size_t>& hidden,
                                   std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

std::size_t argmax(const Vector& q) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < q.size(); ++i) {
    if (q[i] > q[best]) best = i;
  }
  return best;
}

}  // namespace

DoubleDqn::DoubleDqn(std::size_t state_dim, std::size_t num_actions, DqnConfig config,
                     Rng rng)
    : state_dim_(state_dim),
      num_actions_(num_actions),
      config_(std::move(config)),
      rng_(rng),
      online_(net_sizes(state_dim, config_.hidden, num_actions), rng_),
      target_(net_sizes(state_dim, config_.hidden, num_actions), rng_),
      optimizer_(config_.learning_rate),
      replay_(config_.replay_capacity),
      epsilon_schedule_(config_.epsilon_start, config_.epsilon_end,
                        config_.epsilon_decay_steps) {
  OIC_REQUIRE(num_actions >= 2, "DoubleDqn: need at least two actions");
  OIC_REQUIRE(state_dim >= 1, "DoubleDqn: state dimension must be positive");
  // A zero batch would scale the minibatch gradient by 1/0 and let Adam
  // write NaN into every weight.
  OIC_REQUIRE(config_.batch_size >= 1, "DoubleDqn: batch_size must be positive");
  OIC_REQUIRE(config_.gamma >= 0.0 && config_.gamma <= 1.0,
              "DoubleDqn: gamma must lie in [0, 1]");
  target_.copy_from(online_);
}

int DoubleDqn::select_action(const Vector& state) {
  OIC_REQUIRE(state.size() == state_dim_, "DoubleDqn::select_action: state mismatch");
  const double eps = epsilon_schedule_.at(action_steps_);
  ++action_steps_;
  if (rng_.bernoulli(eps)) {
    return rng_.uniform_int(0, static_cast<int>(num_actions_) - 1);
  }
  return static_cast<int>(argmax(online_.forward_into(state, act_ws_)));
}

int DoubleDqn::greedy_action(const Vector& state) const {
  OIC_REQUIRE(state.size() == state_dim_, "DoubleDqn::greedy_action: state mismatch");
  return static_cast<int>(argmax(online_.forward(state)));
}

int DoubleDqn::greedy_action(const Vector& state, MlpWorkspace& ws) const {
  OIC_REQUIRE(state.size() == state_dim_, "DoubleDqn::greedy_action: state mismatch");
  return static_cast<int>(argmax(online_.forward_into(state, ws)));
}

Vector DoubleDqn::q_values(const Vector& state) const {
  OIC_REQUIRE(state.size() == state_dim_, "DoubleDqn::q_values: state mismatch");
  return online_.forward(state);
}

double DoubleDqn::observe(Transition t) {
  OIC_REQUIRE(t.state.size() == state_dim_, "DoubleDqn::observe: state mismatch");
  OIC_REQUIRE(t.next_state.size() == state_dim_,
              "DoubleDqn::observe: next-state mismatch");
  OIC_REQUIRE(t.action >= 0 && t.action < static_cast<int>(num_actions_),
              "DoubleDqn::observe: action out of range");
  replay_.add(std::move(t));
  if (replay_.size() < std::max<std::size_t>(config_.min_replay, config_.batch_size)) {
    return 0.0;
  }
  const double loss = train_minibatch();
  if (config_.target_sync_interval > 0 &&
      train_steps_ % config_.target_sync_interval == 0) {
    sync_target();
  }
  return loss;
}

double DoubleDqn::train_minibatch() {
  // One contiguous SoA minibatch, three batched forwards, one batched
  // backward, all into member scratch: no allocation once warm.  Every
  // accumulation runs in the order of a per-sample update (see
  // linalg/kernels.hpp); DoubleDqn.TrainedWeightsMatchGoldenHash and
  // TrainerGolden.* pin the resulting weights bit for bit.
  const auto& batch = replay_.sample(config_.batch_size, rng_);
  const std::size_t bsz = batch.size();
  if (batch_states_.rows() != bsz || batch_states_.cols() != state_dim_) {
    batch_states_ = linalg::Matrix(bsz, state_dim_);
    batch_next_ = linalg::Matrix(bsz, state_dim_);
    batch_dout_ = linalg::Matrix(bsz, num_actions_);
    batch_actions_.assign(bsz, 0);
    batch_rewards_.assign(bsz, 0.0);
    batch_terminal_.assign(bsz, 0);
  }
  for (std::size_t b = 0; b < bsz; ++b) {
    const Transition& tr = *batch[b];
    std::copy(tr.state.data().begin(), tr.state.data().end(),
              batch_states_.row_data(b));
    std::copy(tr.next_state.data().begin(), tr.next_state.data().end(),
              batch_next_.row_data(b));
    batch_actions_[b] = tr.action;
    batch_rewards_[b] = tr.reward;
    batch_terminal_[b] = tr.terminal ? 1 : 0;
  }

  const linalg::Matrix& q_next_online =
      online_.forward_batch_into(batch_next_, ws_next_online_);
  const linalg::Matrix& q_next_target =
      target_.forward_batch_into(batch_next_, ws_next_target_);
  const linalg::Matrix& q = online_.forward_batch_cached(batch_states_, batch_cache_);

  std::fill(batch_dout_.data(), batch_dout_.data() + bsz * num_actions_, 0.0);
  double loss = 0.0;
  for (std::size_t b = 0; b < bsz; ++b) {
    double target_value = batch_rewards_[b];
    if (!batch_terminal_[b]) {
      // Double-DQN target: evaluate the online argmax under the target net.
      const double* row = q_next_online.row_data(b);
      std::size_t a_star = 0;
      for (std::size_t a = 1; a < num_actions_; ++a) {
        if (row[a] > row[a_star]) a_star = a;
      }
      target_value += config_.gamma * q_next_target(b, a_star);
    }
    const std::size_t a_taken = static_cast<std::size_t>(batch_actions_[b]);
    const double td = q(b, a_taken) - target_value;
    loss += td * td;
    batch_dout_(b, a_taken) = td;
  }

  if (grad_scratch_.dw.empty()) grad_scratch_ = online_.zero_gradients();
  grad_scratch_.zero();
  online_.backward_batch(batch_cache_, batch_dout_, ws_backward_, grad_scratch_);

  grad_scratch_.scale(1.0 / static_cast<double>(bsz));
  if (config_.grad_clip > 0.0) {
    const double n = grad_scratch_.norm_inf();
    if (n > config_.grad_clip) grad_scratch_.scale(config_.grad_clip / n);
  }
  optimizer_.step(online_, grad_scratch_);
  ++train_steps_;
  return loss / static_cast<double>(bsz);
}

void DoubleDqn::sync_target() { target_.copy_from(online_); }

void DoubleDqn::load_online(const Mlp& net) {
  online_.copy_from(net);
  target_.copy_from(net);
}

double DoubleDqn::epsilon() const { return epsilon_schedule_.at(action_steps_); }

}  // namespace oic::rl
