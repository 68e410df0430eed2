/// \file safety_monitor_demo.cpp
/// Theorem 1 made visible: an adversarial skipping policy (decides at
/// random, trying nothing clever) drives the ACC plant while the monitor
/// of Algorithm 1 overrides it whenever the state leaves the strengthened
/// safe set X'.  The demo prints an ASCII phase portrait of X, XI, X' and
/// the trajectory, and verifies the loop never leaves XI.
///
/// Run: ./build/examples/safety_monitor_demo

#include <cstdio>
#include <string>
#include <vector>

#include "acc/acc.hpp"
#include "acc/scenarios.hpp"
#include "core/runner.hpp"
#include "eval/harness.hpp"

namespace {

/// Uniform-random skipping decisions: the "any Omega" of Theorem 1.
class AdversarialPolicy final : public oic::core::SkipPolicy {
 public:
  explicit AdversarialPolicy(std::uint64_t seed) : rng_(seed) {}
  int decide(const oic::linalg::Vector&, const oic::core::WHistory&) override {
    return rng_.bernoulli(0.5) ? 1 : 0;
  }
  std::string name() const override { return "adversarial-random"; }

 private:
  oic::Rng rng_;
};

}  // namespace

int main() {
  using namespace oic;
  using linalg::Vector;

  std::printf("Safety monitor demo: a RANDOM skipping policy on the ACC plant.\n");
  std::printf("Theorem 1: the monitor keeps the loop inside XI regardless.\n\n");

  acc::AccCase acc_case;
  AdversarialPolicy policy(2020);
  core::IntermittentConfig icfg;
  icfg.u_skip = acc_case.u_skip();
  core::IntermittentController ic(acc_case.system(), acc_case.sets(), acc_case.rmpc(),
                                  policy, icfg);

  // Worst-case disturbance: the front vehicle bangs between its speed limits.
  Rng rng(99);
  Vector x0 = acc_case.sample_x0(rng);
  std::vector<Vector> visited;
  const auto rr = core::run_closed_loop(
      acc_case.system(), ic, x0, 300,
      [&](std::size_t, Vector& w) {
        const double vf = rng.bernoulli(0.5) ? acc_case.params().vf_max
                                             : acc_case.params().vf_min;
        w[0] = acc_case.w_from_vf(vf);
      },
      [&](const core::Period& p) { visited.push_back(p.x); });

  // ---- ASCII phase portrait: gap error (x) vs speed error (y). ----
  const int w = 64, h = 24;
  const auto bbx = acc_case.sets().x.bounding_box();
  const double x_lo = bbx->first[0] * 1.05, x_hi = bbx->second[0] * 1.05;
  const double y_lo = bbx->first[1] * 1.05, y_hi = bbx->second[1] * 1.05;
  std::vector<std::string> canvas(h, std::string(w, ' '));
  auto plot = [&](double px, double py, char c) {
    const int cx = static_cast<int>((px - x_lo) / (x_hi - x_lo) * (w - 1));
    const int cy = static_cast<int>((py - y_lo) / (y_hi - y_lo) * (h - 1));
    if (cx < 0 || cx >= w || cy < 0 || cy >= h) return;
    char& cell =
        canvas[static_cast<std::size_t>(h - 1 - cy)][static_cast<std::size_t>(cx)];
    // Trajectory marks win over set shading.
    if (c == '*' || cell == ' ' || (c == '+' && cell == '.')) cell = c;
  };
  for (int iy = 0; iy < h * 2; ++iy) {
    for (int ix = 0; ix < w * 2; ++ix) {
      const double px = x_lo + (x_hi - x_lo) * ix / (w * 2 - 1);
      const double py = y_lo + (y_hi - y_lo) * iy / (h * 2 - 1);
      const Vector p{px, py};
      if (acc_case.sets().x_prime.contains(p))
        plot(px, py, '+');
      else if (acc_case.sets().xi.contains(p))
        plot(px, py, '.');
    }
  }
  for (const auto& v : visited) plot(v[0], v[1], '*');

  std::printf("phase portrait (gap error vs speed error):\n");
  std::printf("  '+' = strengthened safe set X', '.' = XI \\ X', '*' = trajectory\n\n");
  for (const auto& row : canvas) std::printf("  |%s|\n", row.c_str());

  std::printf("\n%zu steps: skipped=%zu, monitor overrides=%zu\n", visited.size(),
              rr.skipped, rr.forced);
  std::printf("left XI: %s, left X: %s  (Theorem 1 requires: no, no)\n",
              rr.left_xi ? "YES (BUG!)" : "no", rr.left_x ? "YES (BUG!)" : "no");
  return (rr.left_xi || rr.left_x) ? 1 : 0;
}
