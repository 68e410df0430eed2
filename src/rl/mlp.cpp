#include "rl/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "linalg/kernels.hpp"

namespace oic::rl {

using linalg::Matrix;
using linalg::Vector;

void Gradients::add(const Gradients& other) {
  OIC_REQUIRE(dw.size() == other.dw.size(), "Gradients::add: layer count mismatch");
  for (std::size_t l = 0; l < dw.size(); ++l) {
    dw[l] += other.dw[l];
    db[l] += other.db[l];
  }
}

void Gradients::scale(double s) {
  for (auto& m : dw) m *= s;
  for (auto& v : db) v *= s;
}

void Gradients::zero() {
  for (auto& m : dw) std::fill(m.data(), m.data() + m.rows() * m.cols(), 0.0);
  for (auto& v : db) std::fill(v.data().begin(), v.data().end(), 0.0);
}

double Gradients::norm_inf() const {
  double n = 0.0;
  for (const auto& m : dw) n = std::max(n, m.norm_inf_elem());
  for (const auto& v : db) n = std::max(n, v.norm_inf());
  return n;
}

Mlp::Mlp(std::vector<std::size_t> sizes, Rng& rng) : sizes_(std::move(sizes)) {
  OIC_REQUIRE(sizes_.size() >= 2, "Mlp: need at least input and output sizes");
  for (std::size_t s : sizes_) OIC_REQUIRE(s >= 1, "Mlp: zero-width layer");
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    const std::size_t in = sizes_[l];
    const std::size_t out = sizes_[l + 1];
    Matrix w(out, in);
    const double std_dev = std::sqrt(2.0 / static_cast<double>(in));  // He init
    for (std::size_t i = 0; i < out; ++i)
      for (std::size_t j = 0; j < in; ++j) w(i, j) = rng.normal(0.0, std_dev);
    w_.push_back(std::move(w));
    b_.emplace_back(out);
  }
}

Vector Mlp::forward(const Vector& in) const {
  OIC_REQUIRE(in.size() == sizes_.front(), "Mlp::forward: input dimension mismatch");
  Vector h = in;
  for (std::size_t l = 0; l < w_.size(); ++l) {
    h = w_[l] * h + b_[l];
    if (l + 1 < w_.size()) {
      for (double& v : h) v = v > 0.0 ? v : 0.0;  // ReLU on hidden layers
    }
  }
  return h;
}

const Vector& Mlp::forward_into(const Vector& in, MlpWorkspace& ws) const {
  OIC_REQUIRE(in.size() == sizes_.front(), "Mlp::forward_into: input dimension mismatch");
  std::size_t widest = 0;
  for (std::size_t s : sizes_) widest = std::max(widest, s);
  if (ws.ping.size() < widest) ws.ping.resize(widest);
  if (ws.pong.size() < widest) ws.pong.resize(widest);

  const double* src = in.data().data();
  for (std::size_t l = 0; l < w_.size(); ++l) {
    // Alternate destinations so a layer never writes the buffer it reads.
    double* dst = l % 2 == 0 ? ws.pong.data() : ws.ping.data();
    linalg::gemv_bias(w_[l], src, b_[l].data().data(), dst,
                      /*relu=*/l + 1 < w_.size());
    src = dst;
  }
  // src points at the output layer's activations; copy into the stable
  // result vector (assign reuses its capacity).
  ws.out.data().assign(src, src + sizes_.back());
  return ws.out;
}

namespace {

/// Exact reshape: keep the allocation when the shape already matches.
void ensure_shape(Matrix& m, std::size_t rows, std::size_t cols) {
  if (m.rows() != rows || m.cols() != cols) m = Matrix(rows, cols);
}

/// Grow-only reshape: keep the allocation while it holds `rows` rows.
void ensure_rows(Matrix& m, std::size_t rows, std::size_t cols) {
  if (m.rows() < rows || m.cols() != cols) m = Matrix(rows, cols);
}

}  // namespace

const Matrix& Mlp::forward_batch_into(const Matrix& in, BatchWorkspace& ws) const {
  ensure_shape(ws.out, in.rows(), sizes_.back());
  return forward_batch_into(in, in.rows(), ws);
}

const Matrix& Mlp::forward_batch_into(const Matrix& in, std::size_t batch,
                                      BatchWorkspace& ws) const {
  OIC_REQUIRE(in.cols() == sizes_.front() && batch <= in.rows(),
              "Mlp::forward_batch_into: input dimension mismatch");
  std::size_t widest = 0;
  for (std::size_t s : sizes_) widest = std::max(widest, s);
  ensure_rows(ws.ping, batch, widest);
  ensure_rows(ws.pong, batch, widest);

  const double* src = in.data();
  std::size_t ld_src = in.cols();
  for (std::size_t l = 0; l < w_.size(); ++l) {
    // Alternate destinations so a layer never writes the buffer it reads.
    double* dst = (l % 2 == 0 ? ws.pong : ws.ping).data();
    linalg::gemm_bias(w_[l], src, batch, ld_src, b_[l].data().data(), dst, widest,
                      /*relu=*/l + 1 < w_.size());
    src = dst;
    ld_src = widest;
  }
  ensure_rows(ws.out, batch, sizes_.back());
  for (std::size_t r = 0; r < batch; ++r) {
    const double* row = src + r * ld_src;
    std::copy(row, row + sizes_.back(), ws.out.row_data(r));
  }
  return ws.out;
}

const Matrix& Mlp::forward_batch_cached(const Matrix& in,
                                        BatchForwardCache& cache) const {
  OIC_REQUIRE(in.cols() == sizes_.front(),
              "Mlp::forward_batch_cached: input dimension mismatch");
  const std::size_t batch = in.rows();
  cache.pre.resize(w_.size());
  cache.post.resize(w_.size() + 1);
  cache.post[0] = in;
  for (std::size_t l = 0; l < w_.size(); ++l) {
    const std::size_t out_dim = sizes_[l + 1];
    ensure_shape(cache.pre[l], batch, out_dim);
    ensure_shape(cache.post[l + 1], batch, out_dim);
    linalg::gemm_bias(w_[l], cache.post[l].data(), batch, sizes_[l],
                      b_[l].data().data(), cache.pre[l].data(), out_dim,
                      /*relu=*/false);
    const double* z = cache.pre[l].data();
    double* h = cache.post[l + 1].data();
    const bool relu = l + 1 < w_.size();
    for (std::size_t k = 0; k < batch * out_dim; ++k) {
      h[k] = relu ? (z[k] > 0.0 ? z[k] : 0.0) : z[k];
    }
  }
  return cache.post.back();
}

void Mlp::backward_batch(const BatchForwardCache& cache, const Matrix& dout,
                         BatchWorkspace& ws, Gradients& g) const {
  OIC_REQUIRE(cache.pre.size() == w_.size(),
              "Mlp::backward_batch: cache layer mismatch");
  OIC_REQUIRE(dout.cols() == sizes_.back(),
              "Mlp::backward_batch: output grad mismatch");
  OIC_REQUIRE(g.dw.size() == w_.size(), "Mlp::backward_batch: gradient shape mismatch");
  const std::size_t batch = dout.rows();
  std::size_t widest = 0;
  for (std::size_t s : sizes_) widest = std::max(widest, s);
  ensure_shape(ws.delta, batch, widest);
  ensure_shape(ws.delta_prev, batch, widest);

  // delta holds dLoss/d pre-activation of the current layer, one row per
  // sample (stride = widest); starts as a copy of dout.
  for (std::size_t r = 0; r < batch; ++r) {
    std::copy(dout.row_data(r), dout.row_data(r) + dout.cols(),
              ws.delta.data() + r * widest);
  }
  double* delta = ws.delta.data();
  double* delta_prev = ws.delta_prev.data();
  for (std::size_t li = w_.size(); li-- > 0;) {
    const std::size_t out_dim = sizes_[li + 1];
    if (li + 1 < w_.size()) {
      // Coming from a ReLU layer above: gate by its pre-activation sign.
      // The select stores unconditionally, so it compiles to a blend: the
      // signs are random, and a branch per entry mispredicts about half the
      // time.  Same values as `if (z <= 0.0) d = 0.0` for every input: both
      // signed zeros gate, a NaN pre-activation keeps its delta.
      const double* pre = cache.pre[li].data();
      for (std::size_t r = 0; r < batch; ++r) {
        double* d = delta + r * widest;
        const double* z = pre + r * out_dim;
        for (std::size_t i = 0; i < out_dim; ++i) d[i] = z[i] <= 0.0 ? 0.0 : d[i];
      }
    }
    linalg::gemm_grad_accum(delta, batch, widest, cache.post[li].data(), sizes_[li],
                            g.dw[li], g.db[li].data().data());
    if (li > 0) {
      linalg::gemm_transpose(w_[li], delta, batch, widest, delta_prev, widest);
      std::swap(delta, delta_prev);
    }
  }
}

Vector Mlp::forward_cached(const Vector& in, ForwardCache& cache) const {
  OIC_REQUIRE(in.size() == sizes_.front(),
              "Mlp::forward_cached: input dimension mismatch");
  cache.pre.clear();
  cache.post.clear();
  cache.post.push_back(in);
  Vector h = in;
  for (std::size_t l = 0; l < w_.size(); ++l) {
    Vector z = w_[l] * h + b_[l];
    cache.pre.push_back(z);
    if (l + 1 < w_.size()) {
      for (double& v : z) v = v > 0.0 ? v : 0.0;
    }
    cache.post.push_back(z);
    h = std::move(z);
  }
  return h;
}

Gradients Mlp::backward(const ForwardCache& cache, const Vector& dout) const {
  OIC_REQUIRE(cache.pre.size() == w_.size(), "Mlp::backward: cache layer mismatch");
  OIC_REQUIRE(dout.size() == sizes_.back(), "Mlp::backward: output grad mismatch");

  Gradients g = zero_gradients();
  Vector delta = dout;  // dLoss/d pre-activation of the current layer
  for (std::size_t li = w_.size(); li-- > 0;) {
    if (li + 1 < w_.size()) {
      // Coming from a ReLU layer above: gate by its pre-activation sign.
      // (delta currently holds dLoss/d post-activation of layer li.)
      for (std::size_t i = 0; i < delta.size(); ++i) {
        if (cache.pre[li][i] <= 0.0) delta[i] = 0.0;
      }
    }
    // dW = delta * input^T ; db = delta.
    const Vector& input = cache.post[li];
    for (std::size_t i = 0; i < delta.size(); ++i) {
      if (delta[i] == 0.0) continue;
      for (std::size_t j = 0; j < input.size(); ++j) {
        g.dw[li](i, j) += delta[i] * input[j];
      }
    }
    g.db[li] += delta;
    if (li > 0) delta = linalg::transpose_mul(w_[li], delta);
  }
  return g;
}

Gradients Mlp::zero_gradients() const {
  Gradients g;
  for (std::size_t l = 0; l < w_.size(); ++l) {
    g.dw.emplace_back(w_[l].rows(), w_[l].cols());
    g.db.emplace_back(b_[l].size());
  }
  return g;
}

void Mlp::copy_from(const Mlp& other) {
  OIC_REQUIRE(sizes_ == other.sizes_, "Mlp::copy_from: architecture mismatch");
  w_ = other.w_;
  b_ = other.b_;
}

void Mlp::soft_update_from(const Mlp& other, double tau) {
  OIC_REQUIRE(sizes_ == other.sizes_, "Mlp::soft_update_from: architecture mismatch");
  OIC_REQUIRE(tau >= 0.0 && tau <= 1.0, "Mlp::soft_update_from: tau out of range");
  for (std::size_t l = 0; l < w_.size(); ++l) {
    w_[l] = tau * other.w_[l] + (1.0 - tau) * w_[l];
    b_[l] = tau * other.b_[l] + (1.0 - tau) * b_[l];
  }
}

std::size_t Mlp::num_params() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l < w_.size(); ++l) {
    n += w_[l].rows() * w_[l].cols() + b_[l].size();
  }
  return n;
}

}  // namespace oic::rl
