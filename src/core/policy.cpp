#include "core/policy.hpp"

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

}  // namespace oic::core
