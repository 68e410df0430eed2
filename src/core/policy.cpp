#include "core/policy.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace oic::core {

void SkipPolicy::decide_batch(const linalg::Vector* const* x, const WHistory* const* w,
                              std::size_t m, int* z) {
  for (std::size_t i = 0; i < m; ++i) z[i] = decide(*x[i], *w[i]);
}

PeriodicPolicy::PeriodicPolicy(std::size_t period) : period_(period) {
  OIC_REQUIRE(period >= 1, "PeriodicPolicy: period must be positive");
}

int PeriodicPolicy::decide(const linalg::Vector&, const WHistory&) {
  const int z = (t_ % period_ == 0) ? 1 : 0;
  ++t_;
  return z;
}

std::string PeriodicPolicy::name() const {
  std::ostringstream os;
  os << "periodic(" << period_ << ")";
  return os.str();
}

BurstSkipPolicy::BurstSkipPolicy(std::size_t depth) : depth_(depth) {
  OIC_REQUIRE(depth >= 1, "BurstSkipPolicy: depth must be positive");
}

std::string BurstSkipPolicy::name() const {
  std::ostringstream os;
  os << "burst(" << depth_ << ")";
  return os.str();
}

WeaklyHardPolicy::WeaklyHardPolicy(SkipPolicy& inner, std::size_t m, std::size_t k)
    : inner_(inner), m_(m), k_(k), window_(k, 1) {
  OIC_REQUIRE(k >= 1, "WeaklyHardPolicy: window must be positive");
  OIC_REQUIRE(m <= k, "WeaklyHardPolicy: m must not exceed K");
}

std::size_t WeaklyHardPolicy::skips_in_window() const {
  std::size_t skips = 0;
  for (std::size_t i = 0; i < filled_; ++i) {
    if (window_[i] == 0) ++skips;
  }
  return skips;
}

void WeaklyHardPolicy::push(int z) {
  window_[head_] = z;
  head_ = (head_ + 1) % k_;
  filled_ = std::min(filled_ + 1, k_);
}

int WeaklyHardPolicy::decide(const linalg::Vector& x, const WHistory& w_history) {
  int z = inner_.decide(x, w_history) == 0 ? 0 : 1;
  if (z == 0 && skips_in_window() >= m_) z = 1;  // (m, K) bound would break
  push(z);
  return z;
}

void WeaklyHardPolicy::note_forced_run() { push(1); }

void WeaklyHardPolicy::reset() {
  inner_.reset();
  std::fill(window_.begin(), window_.end(), 1);
  head_ = 0;
  filled_ = 0;
}

std::string WeaklyHardPolicy::name() const {
  std::ostringstream os;
  os << "weakly-hard(" << m_ << "," << k_ << ")[" << inner_.name() << "]";
  return os.str();
}

}  // namespace oic::core
