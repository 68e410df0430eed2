#include "lp/prepared.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "linalg/dispatch.hpp"

namespace oic::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Scheduled-refactorization cadence for warm-started solving: after this
/// many warm continuations the carried tableau is rebuilt (from the
/// canonical seed when one exists, through the two-phase path otherwise)
/// to bound accumulated round-off.  At ~1.4 dual pivots per warm solve
/// this caps the pivots compounded into one tableau at a few hundred --
/// comfortable for the well-scaled MPC tableaus (the 300-step warm
/// sequences in test_simd and the production-shape pins in test_tube_mpc
/// cross refactor windows).
constexpr std::size_t kRefactorEvery = 256;

/// Monotonic token source shared by problem identities and warm-state /
/// workspace pairing stamps.
std::atomic<std::uint64_t> g_serial{0};

/// The relation a row effectively has after the rhs-sign normalization
/// (negating a row swaps <= and >=; equality is orientation-free).  Every
/// cold/warm code path that reasons about a row's slack/artificial layout
/// must agree with this one definition.
Relation effective_relation(Relation rel, bool flipped) {
  if (!flipped) return rel;
  if (rel == Relation::kLessEq) return Relation::kGreaterEq;
  if (rel == Relation::kGreaterEq) return Relation::kLessEq;
  return Relation::kEqual;
}

/// One simplex phase over explicit reduced costs computed from `phase_cost`.
/// Semantically identical to the classical dense tableau phase this file
/// used to carry, rewritten on the sparse-packed pivot:
///
///   * pricing and the z updates run through the per-ISA dispatch kernels
///     (linalg/dispatch.hpp) -- the Dantzig scan is exactly "first index
///     of the global minimum below -cost_tol", which vectorizes without
///     changing which column wins;
///   * the entering column is gathered contiguously once per pivot and
///     feeds both the ratio test and the row-update factors (the dense
///     version walked the strided column twice);
///   * the pivot row is scaled skip-zero and packed as (index, value)
///     pairs; each touched row is then updated over the packed support
///     (~10% of the width on the MPC tableaus) or, above a density
///     threshold, through the vectorized dense kernel.
///
/// Every variant is bit-identical to the dense original: template zeros
/// are +0.0 and skip-zero scaling never manufactures -0.0, so a skipped
/// entry's dense update would have been an exact no-op
/// (x -= f*(+-0) == x for every value the tableau holds); the dense
/// kernel applies the identical mul+sub per element.  docs/perf.md spells
/// out the signed-zero argument.
Status run_phase(std::size_t m, std::size_t n, SolverWorkspace& ws,
                 const unsigned char* blocked, const std::vector<double>& phase_cost,
                 const SimplexOptions& opt) {
  const linalg::detail::KernelTable& kt = linalg::detail::table();
  std::vector<double>& a = ws.a;
  std::vector<double>& rhs = ws.rhs;
  std::vector<std::size_t>& basis = ws.basis;
  std::vector<double>& z = ws.z;

  // Reduced-cost row mirrors the classical bottom row.
  z.assign(phase_cost.begin(), phase_cost.end());
  double obj = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double cb = phase_cost[basis[i]];
    if (cb == 0.0) continue;
    obj += cb * rhs[i];
    kt.lp_row_sub_scaled(z.data(), &a[i * n], cb, n);
  }

  ws.col.resize(m);
  ws.nz.resize(n);
  ws.nzv.resize(n);
  double* col = ws.col.data();
  std::uint32_t* nzi = ws.nz.data();
  double* nzv = ws.nzv.data();

  std::size_t stall = 0;
  double best_obj = obj;
  bool use_bland = false;

  for (std::size_t iter = 0; iter < opt.max_iterations; ++iter) {
    // --- Choose the entering column ---
    std::size_t enter = n;
    if (use_bland) {
      for (std::size_t j = 0; j < n; ++j) {
        if (!(blocked && blocked[j]) && z[j] < -opt.cost_tol) {
          enter = j;
          break;
        }
      }
    } else {
      const std::ptrdiff_t e = kt.lp_argmin_masked(z.data(), blocked, n, -opt.cost_tol);
      if (e >= 0) enter = static_cast<std::size_t>(e);
    }
    if (enter == n) return Status::kOptimal;

    // --- Gather the entering column; ratio test over it ---
    for (std::size_t i = 0; i < m; ++i) col[i] = a[i * n + enter];

    std::size_t leave = m;
    double best_ratio = kInf;
    for (std::size_t i = 0; i < m; ++i) {
      const double aie = col[i];
      if (aie > opt.pivot_tol) {
        const double ratio = rhs[i] / aie;
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 && leave != m && basis[i] < basis[leave])) {
          best_ratio = ratio;
          leave = i;
        }
      }
    }
    if (leave == m) return Status::kUnbounded;

    // --- Pivot: skip-zero scale + pack the pivot row ---
    const double piv = col[leave];
    OIC_CHECK(std::fabs(piv) > opt.pivot_tol,
              "simplex: degenerate pivot slipped through");
    const double inv = 1.0 / piv;
    double* arow = &a[leave * n];
    std::size_t nnz = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const double v = arow[j];
      if (v == 0.0) continue;
      const double sv = (j == enter) ? 1.0 : v * inv;  // clean exact unit entry
      arow[j] = sv;
      nzi[nnz] = static_cast<std::uint32_t>(j);
      nzv[nnz] = sv;
      ++nnz;
    }
    rhs[leave] *= inv;
    const bool dense_update = nnz * 4 > n;

    for (std::size_t i = 0; i < m; ++i) {
      if (i == leave) continue;
      const double f = col[i];
      if (f == 0.0) continue;
      double* irow = &a[i * n];
      if (dense_update) {
        kt.lp_row_sub_scaled(irow, arow, f, n);
      } else {
        for (std::size_t k = 0; k < nnz; ++k) irow[nzi[k]] -= f * nzv[k];
      }
      irow[enter] = 0.0;
      rhs[i] -= f * rhs[leave];
      if (rhs[i] < 0.0 && rhs[i] > -1e-11) rhs[i] = 0.0;
    }
    const double fz = z[enter];
    if (fz != 0.0) {
      if (dense_update) {
        kt.lp_row_sub_scaled(z.data(), arow, fz, n);
      } else {
        for (std::size_t k = 0; k < nnz; ++k) z[nzi[k]] -= fz * nzv[k];
      }
      z[enter] = 0.0;
      obj -= fz * rhs[leave];
    }
    basis[leave] = enter;

    // --- Anti-cycling bookkeeping ---
    if (obj < best_obj - 1e-12) {
      best_obj = obj;
      stall = 0;
      use_bland = false;
    } else if (++stall >= opt.stall_limit) {
      use_bland = true;
    }
  }
  return Status::kIterLimit;
}

}  // namespace

void PreparedProblem::emit_structural(std::size_t r, const linalg::Vector& coeffs,
                                      double sign) {
  double* row = &a_[r * n_];
  for (std::size_t j = 0; j < ncols_; ++j) row[j] = 0.0;
  for (std::size_t j = 0; j < nv_; ++j) {
    const double aij = coeffs[j] * sign;
    if (aij == 0.0) continue;
    switch (vmap_[j].kind) {
      case VarMap::Kind::kShiftedLow:
        row[vmap_[j].col] += aij;
        break;
      case VarMap::Kind::kShiftedHigh:
        row[vmap_[j].col] -= aij;
        break;
      case VarMap::Kind::kSplit:
        row[vmap_[j].col] += aij;
        row[vmap_[j].col2] -= aij;
        break;
    }
  }
}

PreparedProblem::PreparedProblem(const Problem& p,
                                 const std::vector<std::size_t>& dynamic_rows) {
  problem_id_ = ++g_serial;
  nv_ = p.num_vars();
  mc_ = p.num_constraints();
  c_ = p.objective();

  // ---------- Variable mapping ----------
  // Variables become non-negative columns; finite upper bounds on shifted
  // variables become extra <= rows appended after the user's rows.
  vmap_.resize(nv_);
  ncols_ = 0;
  struct BoundRow {
    std::size_t col;
    double rhs;
  };
  std::vector<BoundRow> bound_rows;
  for (std::size_t j = 0; j < nv_; ++j) {
    const double lo = p.lower(j);
    const double hi = p.upper(j);
    if (std::isfinite(lo)) {
      vmap_[j] = {VarMap::Kind::kShiftedLow, ncols_, 0, lo};
      ++ncols_;
      if (std::isfinite(hi)) bound_rows.push_back({vmap_[j].col, hi - lo});
    } else if (std::isfinite(hi)) {
      vmap_[j] = {VarMap::Kind::kShiftedHigh, ncols_, 0, hi};
      ++ncols_;
    } else {
      vmap_[j] = {VarMap::Kind::kSplit, ncols_, ncols_ + 1, 0.0};
      ncols_ += 2;
    }
  }

  m_ = mc_ + bound_rows.size();
  rows_.assign(m_, RowInfo{});
  row_coeffs_.reserve(mc_);
  for (std::size_t i = 0; i < mc_; ++i) {
    const Constraint& row = p.constraint(i);
    OIC_REQUIRE(row.coeffs.size() == nv_, "PreparedProblem: ragged constraint row");
    row_coeffs_.push_back(row.coeffs);
    rows_[i].rel = row.rel;
  }
  for (std::size_t i : dynamic_rows) {
    OIC_REQUIRE(i < mc_, "PreparedProblem: dynamic row index out of range");
    rows_[i].dynamic = true;
  }
  // Normalized-rhs shift terms, built once: set_rhs replays exactly these
  // subtractions, in this order, on every patch.
  for (std::size_t i = 0; i < mc_; ++i) {
    const linalg::Vector& coeffs = row_coeffs_[i];
    rows_[i].shift_begin = shift_terms_.size();
    for (std::size_t j = 0; j < nv_; ++j) {
      const double aij = coeffs[j];
      if (aij == 0.0) continue;
      if (vmap_[j].kind != VarMap::Kind::kSplit) {
        shift_terms_.push_back({aij, vmap_[j].offset});
      }
    }
    rows_[i].shift_end = shift_terms_.size();
  }

  // ---------- Column reservation ----------
  // Walk the rows in emission order assigning slack/artificial columns, so
  // the layout matches what a fresh conversion of the same Problem builds
  // (dynamic inequality rows additionally reserve an artificial up front).
  std::size_t next_extra = ncols_;
  for (std::size_t i = 0; i < mc_; ++i) {
    RowInfo& info = rows_[i];
    // The *effective* relation depends on the rhs sign at emission time.
    info.flipped = shifted_rhs(i, p.constraint(i).rhs) < 0.0;
    const Relation eff = effective_relation(info.rel, info.flipped);
    if (eff == Relation::kEqual) {
      info.art_col = next_extra++;
    } else if (eff == Relation::kLessEq) {
      info.slack_col = next_extra++;
      if (info.dynamic) info.art_col = next_extra++;
    } else {  // kGreaterEq
      info.slack_col = next_extra++;
      info.art_col = next_extra++;
    }
  }
  for (std::size_t i = 0; i < bound_rows.size(); ++i) {
    rows_[mc_ + i].rel = Relation::kLessEq;
    rows_[mc_ + i].slack_col = next_extra++;
  }
  n_ = next_extra;

  // ---------- Template tableau ----------
  a_.assign(m_ * n_, 0.0);
  rhs_.assign(m_, 0.0);
  basis0_.assign(m_, 0);
  phase1_cost_.assign(n_, 0.0);
  blocked0_.assign(n_, 0);
  any_artificial_ = false;
  for (const RowInfo& info : rows_) {
    if (info.art_col != kNoCol) {
      blocked0_[info.art_col] = 1;
      any_artificial_ = true;  // column layout is fixed; never changes again
    }
  }
  hot_.assign(m_, 1);  // every row patchable until set_hot_rows narrows it
  hot_rows_.resize(m_);
  for (std::size_t r = 0; r < m_; ++r) hot_rows_[r] = r;
  update_live_cols();
  for (std::size_t i = 0; i < mc_; ++i) set_rhs(i, p.constraint(i).rhs);
  for (std::size_t i = 0; i < bound_rows.size(); ++i) {
    const std::size_t r = mc_ + i;
    a_[r * n_ + bound_rows[i].col] = 1.0;
    a_[r * n_ + rows_[r].slack_col] = 1.0;
    rhs_[r] = bound_rows[i].rhs;
    basis0_[r] = rows_[r].slack_col;
  }

  set_objective(c_);
}

void PreparedProblem::set_rhs(std::size_t i, double rhs) {
  OIC_REQUIRE(i < mc_, "PreparedProblem::set_rhs: row index out of range");
  OIC_REQUIRE(hot_[i],
              "PreparedProblem::set_rhs: row is not hot; set_hot_rows dropped "
              "its B^-1 column from the warm tableau");
  RowInfo& info = rows_[i];

  const double b = shifted_rhs(i, rhs);
  const bool flip = b < 0.0;

  // Hot path: orientation unchanged -- the structural row, slack/artificial
  // layout, starting basis and phase-1 costs already in the template are
  // all still correct; only the scalar rhs moves.
  if (info.emitted && flip == info.flipped) {
    rhs_[i] = flip ? -b : b;
    return;
  }

  if (flip != info.flipped && info.rel != Relation::kEqual) {
    OIC_REQUIRE(info.dynamic,
                "PreparedProblem::set_rhs: rhs sign change on a non-dynamic "
                "inequality row would alter the standard-form structure; "
                "declare the row dynamic at construction");
  }
  info.flipped = flip;
  const Relation eff = effective_relation(info.rel, flip);

  emit_structural(i, row_coeffs_[i], flip ? -1.0 : 1.0);
  double* row = &a_[i * n_];
  if (info.slack_col != kNoCol) row[info.slack_col] = 0.0;
  if (info.art_col != kNoCol) {
    row[info.art_col] = 0.0;
    phase1_cost_[info.art_col] = 0.0;
  }
  if (eff == Relation::kLessEq) {
    row[info.slack_col] = 1.0;
    basis0_[i] = info.slack_col;
  } else if (eff == Relation::kGreaterEq) {
    row[info.slack_col] = -1.0;
    row[info.art_col] = 1.0;
    basis0_[i] = info.art_col;
    phase1_cost_[info.art_col] = 1.0;
  } else {  // kEqual
    row[info.art_col] = 1.0;
    basis0_[i] = info.art_col;
    phase1_cost_[info.art_col] = 1.0;
  }
  rhs_[i] = flip ? -b : b;
  info.emitted = true;
}

double PreparedProblem::shifted_rhs(std::size_t i, double rhs) const {
  // Normalized right-hand side, accumulated in the same order as a fresh
  // standard-form conversion (bit-parity matters for reproducibility).
  double b = rhs;
  const ShiftTerm* t = shift_terms_.data() + rows_[i].shift_begin;
  const ShiftTerm* end = shift_terms_.data() + rows_[i].shift_end;
  for (; t != end; ++t) b -= t->coeff * t->offset;
  return b;
}

void PreparedProblem::update_live_cols() {
  // A column is live when it may enter (not blocked) or when it is the
  // artificial -- hence, for >= and equality rows, the B^-1 unit column --
  // of a row whose rhs may still be patched.  Slack unit columns are never
  // blocked, so they are always live.
  std::vector<unsigned char> dead = blocked0_;
  for (std::size_t r = 0; r < m_; ++r) {
    if (hot_[r] && rows_[r].art_col != kNoCol) dead[rows_[r].art_col] = 0;
  }
  live_cols_.clear();
  for (std::size_t j = 0; j < n_; ++j) {
    if (!dead[j]) live_cols_.push_back(static_cast<std::uint32_t>(j));
  }
}

void PreparedProblem::set_objective(const linalg::Vector& c) {
  OIC_REQUIRE(c.size() == nv_, "PreparedProblem::set_objective: dimension mismatch");
  ++objective_revision_;  // carried warm bases priced the old objective
  c_ = c;
  cost_.assign(n_, 0.0);
  for (std::size_t j = 0; j < nv_; ++j) {
    const double cj = c_[j];
    if (cj == 0.0) continue;
    switch (vmap_[j].kind) {
      case VarMap::Kind::kShiftedLow:
        cost_[vmap_[j].col] += cj;
        break;
      case VarMap::Kind::kShiftedHigh:
        cost_[vmap_[j].col] -= cj;
        break;
      case VarMap::Kind::kSplit:
        cost_[vmap_[j].col] += cj;
        cost_[vmap_[j].col2] -= cj;
        break;
    }
  }
}

void PreparedProblem::set_hot_rows(const std::vector<std::size_t>& rows) {
  for (std::size_t r : rows) {
    OIC_REQUIRE(r < m_, "PreparedProblem::set_hot_rows: row index out of range");
  }
  hot_.assign(m_, 0);
  for (std::size_t r : rows) hot_[r] = 1;
  hot_rows_.clear();
  for (std::size_t r = 0; r < m_; ++r) {
    if (hot_[r]) hot_rows_.push_back(r);
  }
  update_live_cols();
  // A tableau carried under the old live set may hold stale columns that
  // are live now: a fresh identity sends every existing WarmState cold.
  problem_id_ = ++g_serial;

  // Canonical-seed capture: snapshot the template as it stands right now.
  // Callers invoke this immediately after construction (before any set_rhs
  // patch), so the seed is a pure function of the problem structure and
  // every copy of the problem shares one canonical restart point -- the
  // property that keeps parallel-worker episode schedules bit-identical.
  seed_.a = a_;
  seed_.rhs = rhs_;
  seed_.basis = basis0_;
  seed_b_ = rhs_;
  seed_flip_.resize(m_);
  for (std::size_t i = 0; i < m_; ++i) seed_flip_[i] = rows_[i].flipped ? 1 : 0;
  seed_obj_revision_ = objective_revision_;
  seed_captured_ = true;
  seed_built_ = false;
  seed_ok_ = false;
}

Result PreparedProblem::solve(SolverWorkspace& ws, const SimplexOptions& opt) const {
  // Overwriting the tableau orphans any WarmState annotating this
  // workspace; clear the pairing token so solve_warm notices.
  ws.warm_serial = 0;
  // Working copies; std::vector::assign reuses capacity, so repeated solves
  // through one workspace do not allocate.
  ws.a.assign(a_.begin(), a_.end());
  ws.rhs.assign(rhs_.begin(), rhs_.end());
  ws.basis.assign(basis0_.begin(), basis0_.end());
  return run_phases(ws, opt);
}

Result PreparedProblem::solve_once(const SimplexOptions& opt) && {
  // The template will never be reused: hand its buffers to the phase
  // driver directly instead of copying them.
  SolverWorkspace ws;
  ws.a = std::move(a_);
  ws.rhs = std::move(rhs_);
  ws.basis = std::move(basis0_);
  return run_phases(ws, opt);
}

Result PreparedProblem::run_phases(SolverWorkspace& ws, const SimplexOptions& opt) const {
  // ---------- Phase 1 ----------
  if (any_artificial_) {
    const Status s1 = run_phase(m_, n_, ws, nullptr, phase1_cost_, opt);
    if (s1 == Status::kIterLimit) return {Status::kIterLimit, 0.0, {}};
    OIC_CHECK(s1 != Status::kUnbounded, "simplex: phase 1 cannot be unbounded");
    // Residual infeasibility = sum of artificial basic values.
    double resid = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      if (phase1_cost_[ws.basis[i]] > 0.0) resid += ws.rhs[i];
    }
    if (resid > opt.feas_tol) return {Status::kInfeasible, 0.0, {}};

    // Drive remaining zero-level artificials out of the basis where possible.
    const linalg::detail::KernelTable& kt = linalg::detail::table();
    for (std::size_t i = 0; i < m_; ++i) {
      if (phase1_cost_[ws.basis[i]] == 0.0) continue;
      std::size_t piv_col = n_;
      for (std::size_t j = 0; j < n_; ++j) {
        if (phase1_cost_[j] > 0.0) continue;  // never pivot in an artificial
        if (std::fabs(ws.a[i * n_ + j]) > opt.pivot_tol) {
          piv_col = j;
          break;
        }
      }
      if (piv_col == n_) continue;  // redundant row; artificial stays at zero
      const double piv = ws.a[i * n_ + piv_col];
      const double inv = 1.0 / piv;
      double* prow = &ws.a[i * n_];
      // Skip-zero scale (zeros stay +0.0); the historical dense loop's only
      // difference was scaling zeros, an exact no-op by value.
      for (std::size_t j = 0; j < n_; ++j) {
        if (prow[j] != 0.0) prow[j] *= inv;
      }
      ws.rhs[i] *= inv;
      for (std::size_t r = 0; r < m_; ++r) {
        if (r == i) continue;
        const double f = ws.a[r * n_ + piv_col];
        if (f == 0.0) continue;
        kt.lp_row_sub_scaled(&ws.a[r * n_], prow, f, n_);
        ws.rhs[r] -= f * ws.rhs[i];
      }
      ws.basis[i] = piv_col;
    }
  }

  // ---------- Phase 2 ----------
  // Artificial columns are barred from entering (blocked0_ marks them).
  const Status s2 = run_phase(m_, n_, ws, any_artificial_ ? blocked0_.data() : nullptr,
                              cost_, opt);
  if (s2 != Status::kOptimal) return {s2, 0.0, {}};

  return extract(ws);
}

Result PreparedProblem::extract(SolverWorkspace& ws) const {
  // Recover the original variables from the basic solution.  The variable
  // map reads only the structural columns [0, ncols_), so only those need
  // their nonbasic zero.
  ws.y.resize(n_);
  std::fill(ws.y.begin(), ws.y.begin() + static_cast<std::ptrdiff_t>(ncols_), 0.0);
  for (std::size_t i = 0; i < m_; ++i) ws.y[ws.basis[i]] = ws.rhs[i];

  linalg::Vector x(nv_);
  for (std::size_t j = 0; j < nv_; ++j) {
    switch (vmap_[j].kind) {
      case VarMap::Kind::kShiftedLow:
        x[j] = vmap_[j].offset + ws.y[vmap_[j].col];
        break;
      case VarMap::Kind::kShiftedHigh:
        x[j] = vmap_[j].offset - ws.y[vmap_[j].col];
        break;
      case VarMap::Kind::kSplit:
        x[j] = ws.y[vmap_[j].col] - ws.y[vmap_[j].col2];
        break;
    }
  }
  // Recompute the objective from the original data; this is immune to any
  // accumulated tableau round-off.
  const double obj = linalg::dot(c_, x);
  return {Status::kOptimal, obj, std::move(x)};
}

void PreparedProblem::condense(SolverWorkspace& ws) const {
  // A live basic column is implicit when it is exactly the unit column of
  // its row: 1.0 there and the bits of +0.0 everywhere else.  Round-off
  // residue or a -0.0 left by the two-phase path keeps a slot instead.
  // Runs only when the warm tableau is anchored, off the row-major tableau.
  ws.where.assign(n_, SolverWorkspace::kDead);
  for (const std::uint32_t j : live_cols_) ws.where[j] = 0;  // live; slot below
  for (std::size_t r = 0; r < m_; ++r) {
    const std::size_t j = ws.basis[r];
    bool unit = ws.where[j] != SolverWorkspace::kDead;
    for (std::size_t i = 0; i < m_ && unit; ++i) {
      const double v = ws.a[i * n_ + j];
      unit = i == r ? v == 1.0 : v == 0.0 && !std::signbit(v);
    }
    if (unit) ws.where[j] = SolverWorkspace::kImplicit | static_cast<std::uint32_t>(r);
  }
  ws.listed.clear();
  for (const std::uint32_t j : live_cols_) {
    if (ws.where[j] != 0) continue;
    ws.where[j] = static_cast<std::uint32_t>(ws.listed.size());
    ws.listed.push_back({j, ws.where[j]});
  }
  ws.blk.resize(ws.listed.size() * m_);
  for (const SolverWorkspace::Slot& c : ws.listed) {
    for (std::size_t i = 0; i < m_; ++i) ws.blk[c.slot * m_ + i] = ws.a[i * n_ + c.col];
  }
  ws.rhs_neg_zero = std::any_of(ws.rhs.begin(), ws.rhs.end(),
                                [](double v) { return v == 0.0 && std::signbit(v); });
}

void PreparedProblem::build_seed(const SimplexOptions& opt) const {
  seed_built_ = true;  // one attempt; failures fall back to two-phase colds
  seed_ok_ = run_phases(seed_, opt).status == Status::kOptimal;
  if (seed_ok_) condense(seed_);
  std::vector<double>().swap(seed_.a);  // restarts copy only the condensed block
}

Result PreparedProblem::solve_warm(SolverWorkspace& ws, WarmState& warm,
                                   const SimplexOptions& opt) const {
  return solve_warm_inner(ws, warm, opt, /*allow_seed=*/true);
}

Result PreparedProblem::solve_warm_inner(SolverWorkspace& ws, WarmState& warm,
                                         const SimplexOptions& opt,
                                         bool allow_seed) const {
  if (warm.objective_revision != objective_revision_) warm.valid = false;
  // A valid WarmState annotates the tableau of the exact (problem,
  // workspace, solve) triple it was produced with; any mismatch -- fresh
  // workspace, foreign workspace of any shape, one since overwritten by
  // another solve, or a snapshot taken by a different PreparedProblem --
  // means the carried tableau is not ours: fall back cold.
  if (warm.serial == 0 || warm.serial != ws.warm_serial ||
      warm.problem_id != problem_id_) {
    warm.valid = false;
  }

  // Cold path: re-anchor on the canonical seed when one was captured
  // (set_hot_rows), otherwise run both phases; either way snapshot the
  // optimum so the next call can continue from it.
  if (!warm.valid) {
    const bool seed_usable =
        allow_seed && seed_captured_ && seed_obj_revision_ == objective_revision_;
    if (seed_usable && !seed_built_) build_seed(opt);
    const bool from_seed = seed_usable && seed_ok_;
    if (from_seed) {
      // Canonical-seed restart: adopt the canonical optimum as the warm
      // snapshot, then fall through to the ordinary rhs-update + dual
      // continuation, which patches it to the CURRENT rhs.  The restart
      // point depends only on the problem structure, never on solve
      // history -- every copy of the problem lands on the same tableau.
      ws.blk = seed_.blk;
      ws.listed = seed_.listed;
      ws.where = seed_.where;
      ws.rhs_neg_zero = seed_.rhs_neg_zero;
      ws.rhs = seed_.rhs;
      ws.z = seed_.z;
      ws.basis = seed_.basis;
      warm.b = seed_b_;
      warm.flip = seed_flip_;
    } else {
      const Result r = solve(ws, opt);
      if (r.status != Status::kOptimal) return r;
      condense(ws);
      warm.b.assign(rhs_.begin(), rhs_.end());
      warm.flip.resize(m_);
      for (std::size_t i = 0; i < m_; ++i) warm.flip[i] = rows_[i].flipped ? 1 : 0;
    }
    warm.valid = true;
    warm.solves_since_cold = 0;
    warm.objective_revision = objective_revision_;
    warm.serial = ++g_serial;
    warm.problem_id = problem_id_;
    ws.warm_serial = warm.serial;
    // A plain cold solve already sits at the optimum for the current rhs;
    // only a seed restart needs the continuation below to patch it.
    if (!from_seed) return extract(ws);
  }

  const linalg::detail::KernelTable& kt = linalg::detail::table();
  constexpr std::uint32_t kImplicit = SolverWorkspace::kImplicit;
  double* const blk = ws.blk.data();
  double* const rhs = ws.rhs.data();

  // ---- Rhs update in the carried basis ----
  // The tableau rows keep the orientation they had at snapshot time; a row
  // whose template orientation has since flipped (set_rhs crossed zero) is
  // accounted for by negating the target value.  Each row's standard-form
  // unit column -- the one that carried +1 at snapshot time: the slack for
  // an effectively-<= row, the artificial for >= and equality rows -- holds
  // the matching column of B^-1, so the basic solution shifts by
  // B^-1 e_r * delta_r: an axpy over the column's slot, or one add on its
  // basic row when it is implicit.  Only hot rows can carry a nonzero
  // delta: every other row is frozen since set_hot_rows, and both the seed
  // and a cold snapshot recorded it as it stands.
  for (const std::size_t r : hot_rows_) {
    const double oriented =
        (rows_[r].flipped ? 1 : 0) == warm.flip[r] ? rhs_[r] : -rhs_[r];
    const double delta = oriented - warm.b[r];
    if (delta == 0.0) continue;
    const Relation eff_snap = effective_relation(rows_[r].rel, warm.flip[r] != 0);
    const std::size_t unit =
        eff_snap == Relation::kLessEq ? rows_[r].slack_col : rows_[r].art_col;
    const std::uint32_t w = ws.where[unit];
    if (w < kImplicit) {
      kt.lp_row_add_scaled(rhs, blk + w * m_, delta, m_);
    } else {
      // Off the basic row the full add is rhs[i] += 0.0 * delta, a no-op
      // unless it turns a -0.0 into +0.0.
      if (ws.rhs_neg_zero) {
        const double zero = 0.0 * delta;
        for (std::size_t i = 0; i < m_; ++i) rhs[i] += zero;
      }
      rhs[w & ~kImplicit] += delta;
    }
    warm.b[r] = oriented;
  }

  // ---- Dual simplex: restore primal feasibility, keep dual feasibility ----
  // Runs on the condensed tableau: the rank-1 update is one contiguous axpy
  // over the slot of each pivot-row support column (~10% dense on the MPC
  // tableaus).  Every explicit value gets the identical mul+sub on the
  // identical operands a full row-major tableau would, and an implicit
  // column holds exactly the full tableau's bits (docs/perf.md, "The
  // condensed warm tableau").
  const unsigned char* blocked = any_artificial_ ? blocked0_.data() : nullptr;
  const std::size_t max_dual_iters = m_ + 200;
  ws.nz.resize(n_);
  ws.nzv.resize(n_);
  std::uint32_t* nzk = ws.nz.data();
  double* nzv = ws.nzv.data();
  std::vector<SolverWorkspace::Slot>& listed = ws.listed;
  bool ok = false;
  for (std::size_t iter = 0; iter <= max_dual_iters; ++iter) {
    // Leaving row: most negative basic value (argmin kernel == the
    // sequential scan seeded at -1e-9).
    const std::ptrdiff_t lv = kt.lp_argmin(rhs, m_, -1e-9);
    if (lv < 0) {
      ok = true;
      break;
    }
    const std::size_t leave = static_cast<std::size_t>(lv);
    if (iter == max_dual_iters) break;  // stalled; fall back to a cold solve

    // Pack the leaving row's nonzeros once, as positions into `listed`
    // (ascending columns).  Dead columns have no slot (docs/perf.md, "The
    // live-column argument"); an implicit column is +0.0 off its own row,
    // and the leaving row's own one is handled apart below.  Branch-free:
    // always store, advance past a nonzero (a NaN is packed).
    std::size_t nnz = 0;
    for (std::size_t k = 0; k < listed.size(); ++k) {
      const double v = blk[listed[k].slot * m_ + leave];
      nzk[nnz] = static_cast<std::uint32_t>(k);
      nzv[nnz] = v;
      nnz += v != 0.0 ? 1 : 0;
    }

    // Entering column: dual ratio test over the leaving row's negative
    // entries (artificials stay barred).  Strict improvement only: a near
    // tie keeps the lower column -- a Bland-style bias against dual cycling.
    std::size_t pick = nnz;
    double best_ratio = kInf;
    for (std::size_t k = 0; k < nnz; ++k) {
      const std::size_t j = listed[nzk[k]].col;
      if (blocked && blocked[j]) continue;
      if (nzv[k] < -opt.pivot_tol) {
        const double ratio = ws.z[j] / -nzv[k];
        if (ratio < best_ratio - 1e-12) {
          best_ratio = ratio;
          pick = k;
        }
      }
    }
    if (pick == nnz) {
      // No entering column: the carried tableau says the patched LP is
      // primal infeasible.  The dual test triggers at a much tighter
      // tolerance than phase 1's feas_tol, so confirm through a two-phase
      // solve (allow_seed=false keeps the retry from looping on the seed).
      warm.valid = false;
      return solve_warm_inner(ws, warm, opt, /*allow_seed=*/false);
    }
    const std::size_t epos = nzk[pick];
    const std::uint32_t enter = listed[epos].col;
    const std::uint32_t eslot = listed[epos].slot;

    // --- Pivot over the packed support ---
    // The entering column's slot holds every row's update factor.  Its
    // nonzeros span rows [lo, hi); outside, the updates are exact no-ops
    // on a -0.0-free tableau (docs/perf.md, "The row-span argument").
    double* ecol = blk + eslot * m_;
    std::size_t lo = 0, hi = m_;
    while (ecol[lo] == 0.0) ++lo;
    while (ecol[hi - 1] == 0.0) --hi;
    const double inv = 1.0 / ecol[leave];
    for (std::size_t k = 0; k < nnz; ++k) {
      if (k == pick) {
        nzv[k] = 1.0;  // clean exact unit entry
        continue;
      }
      const double sv = nzv[k] * inv;
      nzv[k] = sv;
      double* cj = blk + listed[nzk[k]].slot * m_;
      // cj[i] -= f_i * sv over the span; the pivot row is overwritten with
      // its scaled value right after.
      kt.lp_row_sub_scaled(cj + lo, ecol + lo, sv, hi - lo);
      cj[leave] = sv;
    }
    rhs[leave] *= inv;
    // Rows with a zero factor are untouched and must NOT see the clamp.
    kt.lp_rhs_pivot(rhs + lo, ecol + lo, leave - lo, hi - lo);
    // An implicit leaving column's 1.0 scales to 1.0 * inv.
    const std::uint32_t out = static_cast<std::uint32_t>(ws.basis[leave]);
    const bool out_implicit =
        ws.where[out] != SolverWorkspace::kDead && ws.where[out] >= kImplicit;
    const double sv_out = 1.0 * inv;
    const double fz = ws.z[enter];
    if (fz != 0.0) {
      for (std::size_t k = 0; k < nnz; ++k) ws.z[listed[nzk[k]].col] -= fz * nzv[k];
      if (out_implicit) ws.z[out] -= fz * sv_out;
      ws.z[enter] = 0.0;
    }

    // The entering column becomes the exact unit column of `leave`.  An
    // implicit leaving column takes its slot, filled with what the full
    // tableau computes for that unit column (+0.0 outside the span, where
    // ecol already holds +0.0), and its entry moves to its sorted place.
    // Otherwise the slot falls out of use: a listed leaving column was
    // updated in place above, a dead one is never read.
    ws.where[enter] = kImplicit | static_cast<std::uint32_t>(leave);
    ws.basis[leave] = enter;
    if (out_implicit) {
      for (std::size_t i = lo; i < hi; ++i) ecol[i] = 0.0 - ecol[i] * sv_out;
      ecol[leave] = sv_out;
      ws.where[out] = eslot;
      std::size_t p = epos;
      for (; p > 0 && listed[p - 1].col > out; --p) listed[p] = listed[p - 1];
      for (; p + 1 < listed.size() && listed[p + 1].col < out; ++p) listed[p] = listed[p + 1];
      listed[p] = {out, eslot};
    } else {
      listed.erase(listed.begin() + static_cast<std::ptrdiff_t>(epos));
    }
  }

  if (!ok) {
    // Dual iteration stalled (degenerate cycling); redo a cold solve
    // through the two-phase path (not the seed, which could stall again).
    warm.valid = false;
    return solve_warm_inner(ws, warm, opt, /*allow_seed=*/false);
  }
  // Scheduled refactorization: bound accumulated round-off in the carried
  // tableau by forcing the next call through the cold path.
  if (++warm.solves_since_cold >= kRefactorEvery) warm.valid = false;
  return extract(ws);
}

}  // namespace oic::lp
