#include "lp/prepared.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
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

constexpr std::uint32_t kImplicit = SolverWorkspace::kImplicit;
constexpr std::uint32_t kDead = SolverWorkspace::kDead;

bool same_options(const SimplexOptions& a, const SimplexOptions& b) {
  return a.max_iterations == b.max_iterations && a.cost_tol == b.cost_tol &&
         a.pivot_tol == b.pivot_tol && a.feas_tol == b.feas_tol &&
         a.stall_limit == b.stall_limit;
}

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Copy the condensed tableau a warm continuation resumes from: the
/// block, the slot list, the column map, rhs, z and the basis.
void copy_tableau(SolverWorkspace& to, const SolverWorkspace& from) {
  to.blk = from.blk;
  to.listed = from.listed;
  to.where = from.where;
  to.rhs_neg_zero = from.rhs_neg_zero;
  to.rhs = from.rhs;
  to.z = from.z;
  to.basis = from.basis;
}

/// One memoized seed restart: the key it answers for and what the dual
/// continuation left -- the condensed workspace (blk, listed, where, rhs,
/// z, basis, rhs_neg_zero) and the warm snapshot b/flip.
struct RestartMemoEntry {
  std::uint64_t family = 0;  ///< 0: empty
  std::size_t objective_revision = 0;
  SimplexOptions options;
  const linalg::detail::KernelTable* kernels = nullptr;
  std::vector<std::uint64_t> hot_rhs;  ///< each hot row's rhs bits
  std::vector<unsigned char> hot_flip;  ///< each hot row's orientation
  SolverWorkspace ws;
  std::vector<double> b;
  std::vector<unsigned char> flip;
};

/// Per-thread, so it needs no lock and cannot couple two workers.
struct RestartMemo {
  RestartMemoEntry entry[2];  ///< [0] the most recently used
  RestartMemoStats stats;
};
/// Allocated on a thread's first memoized restart, so threads that never
/// restart a family-tagged problem (serve's connection threads) carry only
/// the pointer.
thread_local std::unique_ptr<RestartMemo> t_memo;

RestartMemo& thread_memo() {
  if (!t_memo) t_memo = std::make_unique<RestartMemo>();
  return *t_memo;
}

/// Pack row `row` of the explicit columns: positions into ws.listed
/// (ascending columns) and values, nonzeros only.  Implicit columns hold
/// +0.0 off their own basic row, so they are not packed; the pivot handles
/// the leaving row's own one apart.  Branch-free: always store, advance
/// past a nonzero (a NaN is packed).
std::size_t pack_row(SolverWorkspace& ws, std::size_t m, std::size_t row) {
  const double* blk = ws.blk.data();
  std::uint32_t* nzk = ws.nz.data();
  double* nzv = ws.nzv.data();
  std::size_t nnz = 0;
  for (std::size_t k = 0; k < ws.listed.size(); ++k) {
    const double v = blk[ws.listed[k].slot * m + row];
    nzk[nnz] = static_cast<std::uint32_t>(k);
    nzv[nnz] = v;
    nnz += v != 0.0 ? 1 : 0;
  }
  return nnz;
}

/// One pivot on the condensed tableau, shared by both primal phases and
/// the warm dual continuation: packed entry `pick` of the `nnz` that
/// pack_row left for row `leave` enters there.  Every explicit value gets
/// the mul+sub a full row-major tableau gives it, and an implicit column
/// holds exactly the full tableau's bits (docs/perf.md, "The condensed
/// warm tableau" and "Certificate synthesis").
void pivot(SolverWorkspace& ws, std::size_t m, std::size_t leave, std::size_t nnz,
           std::size_t pick) {
  const linalg::detail::KernelTable& kt = linalg::detail::table();
  double* const blk = ws.blk.data();
  double* const rhs = ws.rhs.data();
  std::uint32_t* nzk = ws.nz.data();
  double* nzv = ws.nzv.data();
  std::vector<SolverWorkspace::Slot>& listed = ws.listed;
  const std::size_t epos = nzk[pick];
  const std::uint32_t enter = listed[epos].col;
  const std::uint32_t eslot = listed[epos].slot;

  // The entering column's slot holds every row's update factor.  Its
  // nonzeros span rows [lo, hi); outside, the updates are exact no-ops on
  // a -0.0-free tableau (docs/perf.md, "The row-span argument").
  double* ecol = blk + eslot * m;
  std::size_t lo = 0, hi = m;
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
    double* cj = blk + listed[nzk[k]].slot * m;
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
  const bool out_implicit = ws.where[out] != kDead && ws.where[out] >= kImplicit;
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

/// One primal simplex phase over explicit reduced costs computed from
/// `phase_cost`, on the condensed tableau.  It makes the choices of the
/// classical dense tableau phase:
///
///   * pricing runs through the per-ISA dispatch kernels
///     (linalg/dispatch.hpp) over the full reduced-cost row -- the Dantzig
///     scan is exactly "first index of the global minimum below
///     -cost_tol"; an implicit column's reduced cost is exactly +0.0, so it
///     never enters;
///   * the ratio test walks the entering column's slot in row order, ties
///     broken by the lower basic column index;
///   * the pivot row is packed skip-zero over the explicit columns and
///     the update runs column by column over the packed support (pivot()).
///
/// Every entry is computed by the same single x - f*p as on the dense
/// tableau, so every result keeps its bits: template zeros are +0.0 and
/// skip-zero scaling never manufactures -0.0, so a skipped entry's dense
/// update would have been an exact no-op.  docs/perf.md spells out the
/// signed-zero argument and "Certificate synthesis" the implicit columns.
Status run_phase(std::size_t m, std::size_t n, SolverWorkspace& ws,
                 const unsigned char* blocked, const std::vector<double>& phase_cost,
                 const SimplexOptions& opt) {
  const linalg::detail::KernelTable& kt = linalg::detail::table();
  std::vector<double>& rhs = ws.rhs;
  std::vector<std::size_t>& basis = ws.basis;
  std::vector<double>& z = ws.z;
  ws.nz.resize(n);
  ws.nzv.resize(n);

  // Reduced-cost row: z = c - sum_i c_B(i) * (row i), the rows subtracted
  // in ascending order as the classical bottom row does.  An explicit
  // column replays that sum over its slot; an implicit column basic in
  // row r gets c_j - c_j * 1.0 from row r and exact no-ops from the rest,
  // which is +0.0 (c_B(r) is c_j itself; costs are finite and never -0.0).
  z.assign(phase_cost.begin(), phase_cost.end());
  double obj = 0.0;
  std::size_t nb = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double cb = phase_cost[basis[i]];
    if (cb == 0.0) continue;
    obj += cb * rhs[i];
    ws.nz[nb] = static_cast<std::uint32_t>(i);
    ws.nzv[nb] = cb;
    ++nb;
  }
  for (const SolverWorkspace::Slot& s : ws.listed) {
    const double* c = ws.blk.data() + s.slot * m;
    double zj = z[s.col];
    for (std::size_t k = 0; k < nb; ++k) zj -= ws.nzv[k] * c[ws.nz[k]];
    z[s.col] = zj;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t w = ws.where[basis[i]];
    if (w != kDead && w >= kImplicit) z[basis[i]] = 0.0;
  }

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

    // --- Ratio test over the entering column's slot ---
    const std::uint32_t w = ws.where[enter];
    OIC_CHECK(w < kImplicit, "simplex: a basic or dropped column priced to enter");
    const double* col = ws.blk.data() + w * m;
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
    OIC_CHECK(std::fabs(col[leave]) > opt.pivot_tol,
              "simplex: degenerate pivot slipped through");

    // --- Pivot ---
    const std::size_t nnz = pack_row(ws, m, leave);
    std::size_t pick = 0;
    while (ws.listed[ws.nz[pick]].col != enter) ++pick;
    const double fz = z[enter];
    pivot(ws, m, leave, nnz, pick);
    if (fz != 0.0) obj -= fz * rhs[leave];

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

void PreparedProblem::emit_structural(std::size_t r, const double* coeffs, double sign) {
  // Structural columns are always explicit; the template is +0.0 here.
  for (std::size_t j = 0; j < nv_; ++j) {
    const double aij = coeffs[j] * sign;
    if (aij == 0.0) continue;
    switch (vmap_[j].kind) {
      case VarMap::Kind::kShiftedLow:
        entry(r, vmap_[j].col) += aij;
        break;
      case VarMap::Kind::kShiftedHigh:
        entry(r, vmap_[j].col) -= aij;
        break;
      case VarMap::Kind::kSplit:
        entry(r, vmap_[j].col) += aij;
        entry(r, vmap_[j].col2) -= aij;
        break;
    }
  }
}

void PreparedProblem::emit_layout(std::size_t r) {
  // An implicit column is the row's unit column by definition: only
  // explicit entries are written.
  const RowInfo& info = rows_[r];
  const auto put = [&](std::size_t col, double v) {
    if (where_[col] < kImplicit) entry(r, col) = v;
  };
  if (info.art_col != kNoCol) {
    put(info.art_col, 0.0);
    phase1_cost_[info.art_col] = 0.0;
  }
  const Relation eff = effective_relation(info.rel, info.flipped);
  if (eff == Relation::kLessEq) {
    put(info.slack_col, 1.0);
    basis0_[r] = info.slack_col;
  } else if (eff == Relation::kGreaterEq) {
    put(info.slack_col, -1.0);
    put(info.art_col, 1.0);
    basis0_[r] = info.art_col;
    phase1_cost_[info.art_col] = 1.0;
  } else {  // kEqual
    put(info.art_col, 1.0);
    basis0_[r] = info.art_col;
    phase1_cost_[info.art_col] = 1.0;
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
  for (std::size_t i = 0; i < mc_; ++i) rows_[i].rel = p.constraint(i).rel;
  for (std::size_t i : dynamic_rows) {
    OIC_REQUIRE(i < mc_, "PreparedProblem: dynamic row index out of range");
    rows_[i].dynamic = true;
  }
  // Normalized-rhs shift terms, built once: set_rhs replays exactly these
  // subtractions, in this order, on every patch.
  for (std::size_t i = 0; i < mc_; ++i) {
    const double* coeffs = p.constraint(i).coeffs;
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

  // ---------- Template tableau, condensed ----------
  // Each row's starting basic column -- the slack of an effectively-<=
  // row, the artificial of a >= or equality row -- is exactly its unit
  // column, so it stays implicit.  Every other column (the structurals,
  // the -1 slacks of >= rows) gets a column-major slot, in column order:
  // the m x m slack identity is never stored.  A dynamic inequality row
  // may flip between <= and >=, which swaps its basic column, so both of
  // its columns keep slots (an explicit exact unit pivots as stored).
  where_.assign(n_, kDead);
  for (std::size_t r = 0; r < m_; ++r) {
    const RowInfo& info = rows_[r];
    if (info.dynamic && info.rel != Relation::kEqual) continue;
    const bool le = effective_relation(info.rel, info.flipped) == Relation::kLessEq;
    where_[le ? info.slack_col : info.art_col] = kImplicit | static_cast<std::uint32_t>(r);
  }
  listed_.clear();
  for (std::size_t j = 0; j < n_; ++j) {
    if (where_[j] != kDead) continue;
    where_[j] = static_cast<std::uint32_t>(listed_.size());
    listed_.push_back({static_cast<std::uint32_t>(j), where_[j]});
  }
  blk_.assign(listed_.size() * m_, 0.0);
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
  update_dead_cols();
  // The structural rows straight from the Problem's row block, no copy.
  for (std::size_t i = 0; i < mc_; ++i) {
    const Constraint row = p.constraint(i);
    emit_structural(i, row.coeffs, rows_[i].flipped ? -1.0 : 1.0);
    emit_layout(i);
    const double b = shifted_rhs(i, row.rhs);
    rhs_[i] = rows_[i].flipped ? -b : b;
  }
  for (std::size_t i = 0; i < bound_rows.size(); ++i) {
    const std::size_t r = mc_ + i;
    entry(r, bound_rows[i].col) = 1.0;
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

  // Orientation change: re-emit the row.  Hot path (no change): the
  // structural row, slack/artificial layout, starting basis and phase-1
  // costs in the template are all still correct; only the scalar rhs moves.
  if (flip != info.flipped) {
    if (info.rel != Relation::kEqual) {
      OIC_REQUIRE(info.dynamic,
                  "PreparedProblem::set_rhs: rhs sign change on a non-dynamic "
                  "inequality row would alter the standard-form structure; "
                  "declare the row dynamic at construction");
    }
    info.flipped = flip;
    // Negating the nonzero structural entries writes the bits an emission
    // with the other sign would (coeff * -1 is exact), and zeros stay +0.0.
    for (std::size_t c = 0; c < ncols_; ++c) {
      double& v = entry(i, c);
      if (v != 0.0) v = -v;
    }
    emit_layout(i);
  }
  rhs_[i] = flip ? -b : b;
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

void PreparedProblem::update_dead_cols() {
  // A column is live when it may enter (not blocked) or when it is the
  // artificial -- hence, for >= and equality rows, the B^-1 unit column --
  // of a row whose rhs may still be patched.  Slack unit columns are never
  // blocked, so they are always live.
  dead_ = blocked0_;
  for (std::size_t r = 0; r < m_; ++r) {
    if (hot_[r] && rows_[r].art_col != kNoCol) dead_[rows_[r].art_col] = 0;
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

void PreparedProblem::set_hot_rows(const std::vector<std::size_t>& rows,
                                   std::uint64_t family) {
  for (std::size_t r : rows) {
    OIC_REQUIRE(r < m_, "PreparedProblem::set_hot_rows: row index out of range");
  }
  hot_.assign(m_, 0);
  for (std::size_t r : rows) hot_[r] = 1;
  hot_rows_.clear();
  for (std::size_t r = 0; r < m_; ++r) {
    if (hot_[r]) hot_rows_.push_back(r);
  }
  update_dead_cols();
  // A tableau carried under the old live set may hold stale columns that
  // are live now: a fresh identity sends every existing WarmState cold.
  problem_id_ = ++g_serial;

  // Canonical-seed capture: snapshot the template as it stands right now.
  // Callers invoke this immediately after construction (before any set_rhs
  // patch), so the seed is a pure function of the problem structure and
  // every copy of the problem shares one canonical restart point -- the
  // property that keeps parallel-worker episode schedules bit-identical.
  seed_.blk = blk_;
  seed_.listed = listed_;
  seed_.where = where_;
  seed_.rhs = rhs_;
  seed_.basis = basis0_;
  seed_b_ = rhs_;
  seed_flip_.resize(m_);
  for (std::size_t i = 0; i < m_; ++i) seed_flip_[i] = rows_[i].flipped ? 1 : 0;
  seed_obj_revision_ = objective_revision_;
  family_ = family;
  seed_captured_ = true;
  seed_built_ = false;
  seed_ok_ = false;
}

Result PreparedProblem::solve(SolverWorkspace& ws, const SimplexOptions& opt) const {
  return solve_cold(ws, opt, /*anchor=*/false);
}

Result PreparedProblem::solve_cold(SolverWorkspace& ws, const SimplexOptions& opt,
                                   bool anchor) const {
  // Overwriting the tableau orphans any WarmState annotating this
  // workspace; clear the pairing token so solve_warm notices.
  ws.warm_serial = 0;
  // Working copies; std::vector::assign reuses capacity, so repeated solves
  // through one workspace do not allocate.
  ws.blk.assign(blk_.begin(), blk_.end());
  ws.listed.assign(listed_.begin(), listed_.end());
  ws.where.assign(where_.begin(), where_.end());
  ws.rhs.assign(rhs_.begin(), rhs_.end());
  ws.basis.assign(basis0_.begin(), basis0_.end());
  return run_phases(ws, opt, anchor);
}

Result PreparedProblem::solve_once(const SimplexOptions& opt) && {
  // The template will never be reused: hand its buffers to the phase
  // driver directly instead of copying them.
  SolverWorkspace ws;
  ws.blk = std::move(blk_);
  ws.listed = std::move(listed_);
  ws.where = std::move(where_);
  ws.rhs = std::move(rhs_);
  ws.basis = std::move(basis0_);
  return run_phases(ws, opt, /*anchor=*/false);
}

Result PreparedProblem::run_phases(SolverWorkspace& ws, const SimplexOptions& opt,
                                   bool anchor) const {
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
    drive_out(ws, opt);

    // Artificial columns never enter phase 2 (blocked0_ bars them), so no
    // later pivot reads them: drop them from the tableau.  A warm anchor
    // keeps the hot rows' artificials, its B^-1 columns.
    const unsigned char* drop = anchor ? dead_.data() : blocked0_.data();
    for (std::size_t j = 0; j < n_; ++j) {
      if (drop[j]) ws.where[j] = kDead;
    }
    ws.listed.erase(std::remove_if(ws.listed.begin(), ws.listed.end(),
                                   [&](const SolverWorkspace::Slot& s) {
                                     return drop[s.col] != 0;
                                   }),
                    ws.listed.end());
  }

  // ---------- Phase 2 ----------
  // Artificial columns are barred from entering (blocked0_ marks them).
  const Status s2 = run_phase(m_, n_, ws, any_artificial_ ? blocked0_.data() : nullptr,
                              cost_, opt);
  if (s2 != Status::kOptimal) return {s2, 0.0, {}};
  if (anchor) this->anchor(ws);
  return extract(ws);
}

void PreparedProblem::drive_out(SolverWorkspace& ws, const SimplexOptions& opt) const {
  // Drive remaining zero-level artificials out of the basis where possible:
  // pivot row i on its first non-artificial column, ascending, whose entry
  // exceeds pivot_tol.  An implicit column holds +0.0 off its own row, and
  // the one basic in row i is the artificial, so only listed columns can
  // qualify.  The row is scaled skip-zero, with no clean 1.0 for the
  // entering entry, and every other row with a nonzero factor gets the
  // plain x - f*p of the dense drive-out (no clamp).  The entering column
  // is generally not an exact unit afterwards, so it stays explicit.
  const std::size_t m = m_;
  for (std::size_t i = 0; i < m; ++i) {
    if (phase1_cost_[ws.basis[i]] == 0.0) continue;
    std::size_t pk = ws.listed.size();
    for (std::size_t k = 0; k < ws.listed.size(); ++k) {
      if (phase1_cost_[ws.listed[k].col] > 0.0) continue;  // never pivot in an artificial
      if (std::fabs(ws.blk[ws.listed[k].slot * m + i]) > opt.pivot_tol) {
        pk = k;
        break;
      }
    }
    if (pk == ws.listed.size()) continue;  // redundant row; artificial stays at zero
    const std::size_t piv_col = ws.listed[pk].col;
    const double* pcol = ws.blk.data() + ws.listed[pk].slot * m;
    const double inv = 1.0 / pcol[i];
    ws.col.assign(pcol, pcol + m);  // the row factors, before the update
    const double* f = ws.col.data();

    // An implicit artificial leaving row i takes a new slot: its 1.0
    // scales to 1.0 * inv, and a row with factor f gets 0.0 - f * that.
    const std::size_t out = ws.basis[i];
    const bool out_implicit = ws.where[out] != kDead && ws.where[out] >= kImplicit;
    if (out_implicit) {
      const std::uint32_t slot = static_cast<std::uint32_t>(ws.blk.size() / m);
      ws.blk.resize(ws.blk.size() + m, 0.0);
      double* c = ws.blk.data() + slot * m;
      const double p = 1.0 * inv;
      for (std::size_t r = 0; r < m; ++r) {
        if (r != i && f[r] != 0.0) c[r] = 0.0 - f[r] * p;
      }
      c[i] = p;
      ws.where[out] = slot;
      auto at = std::lower_bound(
          ws.listed.begin(), ws.listed.end(), out,
          [](const SolverWorkspace::Slot& s, std::size_t j) { return s.col < j; });
      ws.listed.insert(at, {static_cast<std::uint32_t>(out), slot});
    }
    for (const SolverWorkspace::Slot& s : ws.listed) {
      if (out_implicit && s.col == out) continue;  // written above
      double* c = ws.blk.data() + s.slot * m;
      if (c[i] == 0.0) continue;
      c[i] *= inv;
      const double p = c[i];
      for (std::size_t r = 0; r < m; ++r) {
        if (r != i && f[r] != 0.0) c[r] -= f[r] * p;
      }
    }
    ws.rhs[i] *= inv;
    for (std::size_t r = 0; r < m; ++r) {
      if (r != i && f[r] != 0.0) ws.rhs[r] -= f[r] * ws.rhs[i];
    }
    ws.basis[i] = piv_col;
  }
}

void PreparedProblem::anchor(SolverWorkspace& ws) const {
  // Settle a two-phase optimum for warm continuation.  A listed basic
  // column that is exactly its row's unit column (1.0 there, the bits of
  // +0.0 everywhere else) turns implicit; round-off residue or a -0.0 left
  // by the drive-out keeps its slot.  The remaining slots are then packed
  // in column order, so a seed restart copies no hole.
  const std::size_t m = m_;
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t j = ws.basis[r];
    const std::uint32_t w = ws.where[j];
    if (w >= kImplicit) continue;
    const double* c = ws.blk.data() + w * m;
    bool unit = true;
    for (std::size_t i = 0; i < m && unit; ++i) {
      unit = i == r ? c[i] == 1.0 : c[i] == 0.0 && !std::signbit(c[i]);
    }
    if (unit) ws.where[j] = kImplicit | static_cast<std::uint32_t>(r);
  }
  std::vector<double> packed;
  packed.reserve(ws.listed.size() * m);
  std::uint32_t kept = 0;
  for (std::size_t k = 0; k < ws.listed.size(); ++k) {
    const std::uint32_t col = ws.listed[k].col;
    if (ws.where[col] >= kImplicit) continue;
    const double* c = ws.blk.data() + ws.listed[k].slot * m;
    packed.insert(packed.end(), c, c + m);
    ws.where[col] = kept;
    ws.listed[kept] = {col, kept};
    ++kept;
  }
  ws.listed.resize(kept);
  ws.blk.swap(packed);
  ws.rhs_neg_zero = std::any_of(ws.rhs.begin(), ws.rhs.end(),
                                [](double v) { return v == 0.0 && std::signbit(v); });
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

void PreparedProblem::build_seed(const SimplexOptions& opt) const {
  seed_built_ = true;  // one attempt; failures fall back to two-phase colds
  seed_opt_ = opt;
  seed_kernels_ = &linalg::detail::table();
  seed_ok_ = run_phases(seed_, opt, /*anchor=*/true).status == Status::kOptimal;
}

bool PreparedProblem::memo_usable(const SimplexOptions& opt) const {
  return family_ != 0 && same_options(seed_opt_, opt) &&
         seed_kernels_ == &linalg::detail::table();
}

bool PreparedProblem::memo_load(SolverWorkspace& ws, WarmState& warm,
                                const SimplexOptions& opt) const {
  // The key is exact: within a family the seed is fixed, and the
  // continuation from it reads nothing else but the hot rows' rhs and
  // orientation, the options and the kernels.
  RestartMemo& memo = thread_memo();
  const linalg::detail::KernelTable* kernels = &linalg::detail::table();
  const auto matches = [&](const RestartMemoEntry& e) {
    if (e.family != family_ || e.objective_revision != objective_revision_ ||
        e.kernels != kernels || !same_options(e.options, opt)) {
      return false;
    }
    for (std::size_t k = 0; k < hot_rows_.size(); ++k) {
      const std::size_t r = hot_rows_[k];
      const unsigned char flip = rows_[r].flipped ? 1 : 0;
      if (e.hot_rhs[k] != bits_of(rhs_[r]) || e.hot_flip[k] != flip) return false;
    }
    return true;
  };
  std::size_t at = 0;
  while (at < 2 && !matches(memo.entry[at])) ++at;
  if (at == 2) {
    ++memo.stats.misses;
    return false;
  }
  ++memo.stats.hits;
  if (at == 1) std::swap(memo.entry[0], memo.entry[1]);
  const RestartMemoEntry& e = memo.entry[0];
  copy_tableau(ws, e.ws);
  warm.b = e.b;
  warm.flip = e.flip;
  return true;
}

void PreparedProblem::memo_store(const SolverWorkspace& ws, const WarmState& warm,
                                 const SimplexOptions& opt) const {
  RestartMemo& memo = thread_memo();
  RestartMemoEntry& e = memo.entry[1];  // the older entry is evicted
  e.family = 0;  // matches nothing until it is whole
  e.objective_revision = objective_revision_;
  e.options = opt;
  e.kernels = &linalg::detail::table();
  e.hot_rhs.clear();
  e.hot_flip.clear();
  for (const std::size_t r : hot_rows_) {
    e.hot_rhs.push_back(bits_of(rhs_[r]));
    e.hot_flip.push_back(rows_[r].flipped ? 1 : 0);
  }
  copy_tableau(e.ws, ws);
  e.b = warm.b;
  e.flip = warm.flip;
  e.family = family_;
  std::swap(memo.entry[0], memo.entry[1]);
}

RestartMemoStats restart_memo_stats() {
  return t_memo ? t_memo->stats : RestartMemoStats{};
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
  bool hit = false;    // the restart came out of the memo, already continued
  bool store = false;  // memoize the restart once its continuation succeeds
  if (!warm.valid) {
    Result cold;
    const bool seed_usable =
        allow_seed && seed_captured_ && seed_obj_revision_ == objective_revision_;
    if (seed_usable && !seed_built_) build_seed(opt);
    const bool from_seed = seed_usable && seed_ok_;
    if (from_seed) {
      // Canonical-seed restart: adopt the canonical optimum as the warm
      // snapshot, then fall through to the ordinary rhs-update + dual
      // continuation, which patches it to the CURRENT rhs.  The restart
      // point depends only on the problem structure, never on solve
      // history -- every copy of the problem lands on the same tableau,
      // which is also why a memoized continuation of it can stand in.
      const bool memo = memo_usable(opt);
      hit = memo && memo_load(ws, warm, opt);
      store = memo && !hit;
      if (!hit) {
        copy_tableau(ws, seed_);
        warm.b = seed_b_;
        warm.flip = seed_flip_;
      }
    } else {
      cold = solve_cold(ws, opt, /*anchor=*/true);
      if (cold.status != Status::kOptimal) return cold;
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
    if (!from_seed) return cold;
  }

  if (!hit) {
    if (!continue_dual(ws, warm, opt)) {
      // No entering column (the patched LP looks primal infeasible, at a
      // much tighter tolerance than phase 1's feas_tol) or a stalled dual
      // iteration: confirm or redo through the two-phase path.
      // allow_seed=false keeps the retry off the seed, which could stall
      // again.
      warm.valid = false;
      return solve_warm_inner(ws, warm, opt, /*allow_seed=*/false);
    }
    // Only a restart whose continuation reached optimality is memoized.
    if (store) memo_store(ws, warm, opt);
  }
  // Scheduled refactorization: bound accumulated round-off in the carried
  // tableau by forcing the next call through the cold path.
  if (++warm.solves_since_cold >= kRefactorEvery) warm.valid = false;
  return extract(ws);
}

bool PreparedProblem::continue_dual(SolverWorkspace& ws, WarmState& warm,
                                    const SimplexOptions& opt) const {
  const linalg::detail::KernelTable& kt = linalg::detail::table();
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
  for (std::size_t iter = 0; iter <= max_dual_iters; ++iter) {
    // Leaving row: most negative basic value (argmin kernel == the
    // sequential scan seeded at -1e-9).
    const std::ptrdiff_t lv = kt.lp_argmin(rhs, m_, -1e-9);
    if (lv < 0) return true;
    const std::size_t leave = static_cast<std::size_t>(lv);
    if (iter == max_dual_iters) break;  // stalled (degenerate cycling)

    // Pack the leaving row's nonzeros once, as positions into `listed`
    // (ascending columns).  Dead columns have no slot (docs/perf.md, "The
    // live-column argument").
    const std::size_t nnz = pack_row(ws, m_, leave);

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
    if (pick == nnz) return false;  // the carried tableau says infeasible
    pivot(ws, m_, leave, nnz, pick);
  }
  return false;
}

}  // namespace oic::lp
