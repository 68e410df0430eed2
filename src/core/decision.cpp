#include "core/decision.hpp"

#include "common/error.hpp"
#include "linalg/kernels.hpp"

namespace oic::core {

using linalg::Vector;

void SessionState::record_transition(const control::AffineLTI& sys, const Vector& x,
                                     const Vector& u, const Vector& x_next) {
  OIC_REQUIRE(x.size() == sys.nx() && x_next.size() == sys.nx() && u.size() == sys.nu(),
              "record_transition: dimension mismatch");
  // E w = x_next - A x - B u - c, accumulated into the scratch vector (same
  // operation order as the expression form) and pushed into the ring.
  ew_scratch_ = x_next;
  double* ew = ew_scratch_.data().data();
  linalg::gemv_sub(sys.a(), x.data().data(), ew);
  linalg::gemv_sub(sys.b(), u.data().data(), ew);
  for (std::size_t i = 0; i < ew_scratch_.size(); ++i) ew[i] -= sys.c()[i];
  w_history_.push(ew_scratch_);
}

void SessionState::arm_burst(const std::vector<poly::HPolytope>& ladder,
                             std::size_t max_burst, const Vector& x) {
  for (std::size_t k = max_burst; k >= 2; --k) {
    if (ladder[k - 1].contains(x)) {
      burst_remaining_ = k - 1;
      return;
    }
  }
}

namespace {

/// XI (strict mode) and X' violations of `count` rows of stride nx.
void membership(const MonitorSpec& spec, const double* x, std::size_t count,
                std::size_t nx, double* xi_viol, double* xp_viol) {
  if (count == 0) return;
  const poly::HPolytope& xi = spec.sets.xi;
  const poly::HPolytope& xp = spec.sets.x_prime;
  if (spec.strict) {
    linalg::batch_max_violation(xi.a(), xi.b().data().data(), x, count, nx, xi_viol);
  }
  linalg::batch_max_violation(xp.a(), xp.b().data().data(), x, count, nx, xp_viol);
}

}  // namespace

void DecisionCore::decide(const MonitorSpec& spec, const DecisionRow* rows,
                          std::size_t k, bool policy_ok, RowDecision* out,
                          ThreadPool* pool) {
  if (k == 0) return;
  const std::size_t nx = spec.sets.x_prime.dim();
  for (std::size_t r = 0; r < k; ++r) {
    OIC_REQUIRE(rows[r].x->size() == nx,
                "DecisionCore::decide: state dimension mismatch");
  }

  // XI / X' membership: one SoA pass per set (bit-identical per row to
  // HPolytope::violation).  A single row is read in place.
  const double* x = rows[0].x->data().data();
  double xi_one = 0.0, xp_one = 0.0;
  double* xi_viol = &xi_one;
  double* xp_viol = &xp_one;
  if (k > 1) {
    if (xbatch_.rows() < k || xbatch_.cols() != nx) {
      xbatch_ = linalg::Matrix(k + k / 2 + 1, nx);
    }
    for (std::size_t r = 0; r < k; ++r) {
      const double* src = rows[r].x->data().data();
      double* dst = xbatch_.row_data(r);
      for (std::size_t j = 0; j < nx; ++j) dst[j] = src[j];
    }
    x = xbatch_.data();
    xi_viol_.resize(k);
    xp_viol_.resize(k);
    xi_viol = xi_viol_.data();
    xp_viol = xp_viol_.data();
  }
  if (pool != nullptr && k >= kPoolRows) {
    const std::size_t chunks = pool->size();
    const std::size_t base = k / chunks, rem = k % chunks;
    std::size_t begin = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t end = begin + base + (c < rem ? 1 : 0);
      pool->submit([&spec, x, nx, begin, end, xi_viol, xp_viol] {
        membership(spec, x + begin * nx, end - begin, nx, xi_viol + begin,
                   xp_viol + begin);
      });
      begin = end;
    }
    pool->wait_idle();
  } else {
    membership(spec, x, k, nx, xi_viol, xp_viol);
  }

  // Verdicts; the inside-X' rows queue for Omega.
  consult_.clear();
  for (std::size_t r = 0; r < k; ++r) {
    if (spec.strict && xi_viol[r] > kInvariantSlack) {
      out[r] = {Verdict::kLeftXi, 1};
    } else if (xp_viol[r] > kStrengthenedSlack) {
      out[r] = {Verdict::kForced, 1};
    } else if (!policy_ok) {
      // The monitor never skips without Omega's say-so; z = 1 is always
      // safe.
      out[r] = {Verdict::kUnavailable, 1};
    } else {
      out[r] = {Verdict::kConsulted, 1};
      consult_.push_back(r);
    }
  }

  // One consult per run of consecutive rows sharing a policy; a run of
  // one is decide() itself.
  const std::size_t m = consult_.size();
  for (std::size_t begin = 0; begin < m;) {
    const DecisionRow& first = rows[consult_[begin]];
    std::size_t end = begin + 1;
    while (end < m && rows[consult_[end]].policy == first.policy) ++end;
    if (end - begin == 1) {
      const int z = first.policy->decide(*first.x, first.state->w_history());
      out[consult_[begin]].z = z == 0 ? 0 : 1;
    } else {
      consult_x_.clear();
      consult_w_.clear();
      for (std::size_t i = begin; i < end; ++i) {
        consult_x_.push_back(rows[consult_[i]].x);
        consult_w_.push_back(&rows[consult_[i]].state->w_history());
      }
      consult_z_.resize(end - begin);
      first.policy->decide_batch(consult_x_.data(), consult_w_.data(), end - begin,
                                 consult_z_.data());
      for (std::size_t i = begin; i < end; ++i) {
        out[consult_[i]].z = consult_z_[i - begin] == 0 ? 0 : 1;
      }
    }
    begin = end;
  }

  // Granted skips arm the deepest certified burst.
  if (spec.max_burst < 2) return;
  for (const std::size_t r : consult_) {
    if (out[r].z == 0) rows[r].state->arm_burst(spec.ladder, spec.max_burst, *rows[r].x);
  }
}

}  // namespace oic::core
