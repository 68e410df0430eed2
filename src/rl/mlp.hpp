#pragma once
/// \file mlp.hpp
/// Minimal fully-connected network with ReLU hidden activations and a
/// linear output layer, with hand-written backpropagation.  Sized for the
/// paper's DQN: the ACC agent maps {x(t), w-history} (3 inputs) to two
/// Q-values, so a dependency-free dense net is the right tool.

#include <cstddef>
#include <vector>

#include "common/random.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace oic::rl {

/// Per-layer parameter gradients produced by Mlp::backward.
struct Gradients {
  std::vector<linalg::Matrix> dw;
  std::vector<linalg::Vector> db;

  /// Accumulate another gradient (for minibatch averaging).
  void add(const Gradients& other);
  /// Scale all entries (e.g. by 1/batch).
  void scale(double s);
  /// Reset every entry to +0.0 (reuse a buffer across minibatches).
  void zero();
  /// Max-abs entry across all blocks (for gradient-clipping and tests).
  double norm_inf() const;
};

/// Forward-pass activations retained for backprop.
struct ForwardCache {
  std::vector<linalg::Vector> pre;   ///< pre-activations per layer
  std::vector<linalg::Vector> post;  ///< post-activations (post[0] = input)
};

/// Scratch buffers for the allocation-free forward pass.  One workspace per
/// thread; it grows to the widest layer on first use and never shrinks.
struct MlpWorkspace {
  std::vector<double> ping;
  std::vector<double> pong;
  linalg::Vector out;  ///< forward_into's result lives here
};

/// Scratch for the batched (minibatch) passes: layer activations ping-pong
/// through two batch-by-widest buffers; backward ping-pongs deltas the same
/// way.  Sized on first use for the largest (batch, net) seen, then reused
/// allocation-free.
struct BatchWorkspace {
  linalg::Matrix ping;   ///< forward activations (batch x widest layer)
  linalg::Matrix pong;
  linalg::Matrix out;    ///< forward_batch_into's result (batch x out_dim)
  linalg::Matrix delta;  ///< backward dLoss/d pre-activation ping
  linalg::Matrix delta_prev;  ///< backward delta pong
};

/// Batched forward activations retained for backward_batch: one matrix per
/// layer, one sample per row (post[0] = the input batch).  Shapes are exact
/// per layer so backward can stream them without stride bookkeeping.
struct BatchForwardCache {
  std::vector<linalg::Matrix> pre;
  std::vector<linalg::Matrix> post;
};

/// Dense feed-forward network: sizes = {in, h1, ..., out}.
class Mlp {
 public:
  /// He-initialized network; biases start at zero.
  Mlp(std::vector<std::size_t> sizes, Rng& rng);

  /// Layer sizes as given at construction.
  const std::vector<std::size_t>& sizes() const { return sizes_; }

  /// Plain inference.
  linalg::Vector forward(const linalg::Vector& in) const;

  /// Inference into caller-owned buffers: no allocation once `ws` has
  /// warmed up (fused GEMV+bias+ReLU per layer, ping-pong scratch).  The
  /// returned reference aliases ws.out and is bit-identical to forward().
  const linalg::Vector& forward_into(const linalg::Vector& in, MlpWorkspace& ws) const;

  /// Inference that records activations for a subsequent backward().
  linalg::Vector forward_cached(const linalg::Vector& in, ForwardCache& cache) const;

  /// Backpropagate dLoss/dOutput through the cached activations; returns
  /// parameter gradients (does not modify the network).
  Gradients backward(const ForwardCache& cache, const linalg::Vector& dout) const;

  // ---- batched (minibatch) passes -----------------------------------------
  // One sample per row of `in` (in.cols() == input dim).  Row r of every
  // result is bit-identical to the corresponding per-sample pass on row r:
  // the batched kernels reuse the per-sample accumulation order exactly
  // (see linalg/kernels.hpp), they just stream the whole minibatch through
  // fused loops with zero steady-state allocation.

  /// Batched inference; the returned reference aliases ws.out (batch rows,
  /// output-dim columns).
  const linalg::Matrix& forward_batch_into(const linalg::Matrix& in,
                                           BatchWorkspace& ws) const;

  /// Batched inference over the first `batch` rows of `in` (batch <=
  /// in.rows()).  The workspace only grows, so a caller whose batch size
  /// varies call to call allocates nothing once it has seen its largest
  /// batch; read the first `batch` rows of the result (it may hold more).
  const linalg::Matrix& forward_batch_into(const linalg::Matrix& in, std::size_t batch,
                                           BatchWorkspace& ws) const;

  /// Batched inference recording per-layer activations for backward_batch.
  /// Returns the output batch (aliases cache.post.back()).
  const linalg::Matrix& forward_batch_cached(const linalg::Matrix& in,
                                             BatchForwardCache& cache) const;

  /// Backpropagate a batch of output gradients through the cached
  /// activations, *accumulating* into `g` (callers zero() it first).  The
  /// result is bit-identical to backward()-ing each row and Gradients::add-
  /// ing the per-sample gradients in row order.
  void backward_batch(const BatchForwardCache& cache, const linalg::Matrix& dout,
                      BatchWorkspace& ws, Gradients& g) const;

  /// Zero-initialized gradient buffer with this network's shapes.
  Gradients zero_gradients() const;

  /// Overwrite parameters from another network of identical shape (target-
  /// network sync in DQN).
  void copy_from(const Mlp& other);

  /// Soft update: theta <- tau * other + (1 - tau) * theta.
  void soft_update_from(const Mlp& other, double tau);

  /// Number of layers (weight matrices).
  std::size_t num_layers() const { return w_.size(); }
  /// Weight matrix of layer l (out-by-in).
  const linalg::Matrix& weight(std::size_t l) const { return w_[l]; }
  linalg::Matrix& weight(std::size_t l) { return w_[l]; }
  /// Bias vector of layer l.
  const linalg::Vector& bias(std::size_t l) const { return b_[l]; }
  linalg::Vector& bias(std::size_t l) { return b_[l]; }

  /// Total scalar parameter count.
  std::size_t num_params() const;

 private:
  std::vector<std::size_t> sizes_;
  std::vector<linalg::Matrix> w_;
  std::vector<linalg::Vector> b_;
};

}  // namespace oic::rl
