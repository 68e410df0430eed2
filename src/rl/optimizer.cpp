#include "rl/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace oic::rl {

namespace {

/// One Adam step over a flat parameter block: every element evaluates the
/// same expression, so weights and biases share it.  The blocks never
/// alias, and the TU is built with -fno-math-errno (CMakeLists.txt), so
/// the compiler can vectorize the divisions and the square root -- both
/// correctly rounded, hence bit-identical to the scalar loop.
void adam_update(double* __restrict w, double* __restrict m, double* __restrict v,
                 const double* __restrict grad, std::size_t n, double lr, double beta1,
                 double beta2, double eps, double bc1, double bc2) {
  for (std::size_t k = 0; k < n; ++k) {
    m[k] = beta1 * m[k] + (1.0 - beta1) * grad[k];
    v[k] = beta2 * v[k] + (1.0 - beta2) * grad[k] * grad[k];
    w[k] -= lr * (m[k] / bc1) / (std::sqrt(v[k] / bc2) + eps);
  }
}

}  // namespace

Adam::Adam(double learning_rate, double beta1, double beta2, double eps)
    : lr_(learning_rate), beta1_(beta1), beta2_(beta2), eps_(eps) {
  OIC_REQUIRE(learning_rate > 0.0, "Adam: learning rate must be positive");
  OIC_REQUIRE(beta1 >= 0.0 && beta1 < 1.0, "Adam: beta1 out of range");
  OIC_REQUIRE(beta2 >= 0.0 && beta2 < 1.0, "Adam: beta2 out of range");
}

void Adam::step(Mlp& net, const Gradients& g) {
  if (!initialized_) {
    m_ = net.zero_gradients();
    v_ = net.zero_gradients();
    initialized_ = true;
  }
  OIC_REQUIRE(m_.dw.size() == g.dw.size() && net.num_layers() == g.dw.size(),
              "Adam::step: gradient shape mismatch");
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t l = 0; l < g.dw.size(); ++l) {
    auto& w = net.weight(l);
    auto& b = net.bias(l);
    const std::size_t nw = w.rows() * w.cols();
    // The flat loops index all four blocks by the weight/bias size.
    const bool dw_ok = g.dw[l].rows() * g.dw[l].cols() == nw &&
                       m_.dw[l].rows() * m_.dw[l].cols() == nw;
    const bool db_ok = g.db[l].size() == b.size() && m_.db[l].size() == b.size();
    OIC_REQUIRE(dw_ok && db_ok, "Adam::step: gradient shape mismatch");
    adam_update(w.data(), m_.dw[l].data(), v_.dw[l].data(), g.dw[l].data(), nw, lr_,
                beta1_, beta2_, eps_, bc1, bc2);
    adam_update(b.data().data(), m_.db[l].data().data(), v_.db[l].data().data(),
                g.db[l].data().data(), b.size(), lr_, beta1_, beta2_, eps_, bc1, bc2);
  }
}

}  // namespace oic::rl
