#pragma once
/// \file prepared.hpp
/// Workspace-reuse LP solving.
///
/// lp::solve() converts the Problem to a standard-form tableau from scratch
/// on every call.  That conversion (column mapping, row normalization,
/// slack/artificial placement) depends only on the problem *structure*, not
/// on the numbers, yet it dominates the cost of the small LPs this library
/// solves in inner loops (MPC steps, support functions).
///
/// A PreparedProblem performs the conversion once and caches the resulting
/// tableau as an immutable template.  Each solve copies the template into a
/// caller-provided SolverWorkspace (buffer reuses, no allocation after
/// warm-up) and runs the two-phase simplex, so results are bit-for-bit the
/// same as a fresh lp::solve() of the same Problem.
///
/// Between solves the caller may patch
///   * the objective (set_objective)           -- any values, and
///   * individual constraint right-hand sides (set_rhs) -- for kEqual rows
///     always; for inequality rows only while the normalized rhs keeps its
///     sign (the standard-form column structure would change otherwise;
///     declare such rows "dynamic" at construction to reserve the extra
///     slack+artificial columns up front).
///
/// Every solve -- both phases, the artificial drive-out and the warm
/// continuation (solve_warm) -- runs on one CONDENSED tableau: every basic
/// column that is exactly a unit column stays implicit (the basis map says
/// which row it is basic in), and every other column gets one column-major
/// slot.  A pivot's rank-1 update touches only the pivot row's support
/// columns, each one contiguous streaming axpy over its slot, and the
/// template never stores the m x m slack identity.  Receding-horizon
/// callers that re-solve the same structure thousands of times
/// additionally call set_hot_rows: this snapshots the construction-time
/// template as a canonical warm-start seed -- every "cold" restart (episode
/// reset, scheduled refactorization) then copies the seed's condensed block
/// and continues from the canonical optimum with a few dual pivots instead
/// of re-running both phases -- and narrows the warm pivots to the *live*
/// columns: those that may enter plus the B^-1 unit columns of the hot
/// rows.  See docs/perf.md.
///
/// This is the engine behind poly::SupportSolver (repeated support queries
/// on one polytope) and the TubeMpc per-step solve (only the x(0) = x0
/// equality rows change between control periods).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/vector.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace oic::lp {

/// Reusable solve-time scratch memory.  One workspace may be shared by any
/// number of PreparedProblems, but not by concurrent solves; give each
/// thread its own.
struct SolverWorkspace {
  std::vector<double> rhs;
  std::vector<double> z;       ///< reduced-cost row
  std::vector<std::size_t> basis;
  std::vector<double> y;       ///< basic-solution scratch for recovery
  std::uint64_t warm_serial = 0;  ///< pairing token; see WarmState::serial

  // Pivot scratch: the pivot row's nonzeros packed as (position in
  // `listed`, value) pairs, so updates touch only its support, and the
  // drive-out's pivot column saved as its row factors.
  std::vector<double> col;
  std::vector<std::uint32_t> nz;
  std::vector<double> nzv;

  /// The condensed working tableau (docs/perf.md, "The condensed warm
  /// tableau" and "Certificate synthesis"): one column-major slot
  /// [s*m, (s+1)*m) of `blk` per explicit column.  A column is implicit
  /// when it is basic and exactly its row's unit column (1.0 there, +0.0
  /// elsewhere).  `listed` holds the explicit columns ascending, for the
  /// order-sensitive scans; `where` maps each column to its slot, to
  /// kImplicit | its basic row, or to kDead (a column no later pivot reads).
  struct Slot {
    std::uint32_t col, slot;
  };
  static constexpr std::uint32_t kImplicit = 0x80000000u, kDead = 0xffffffffu;
  std::vector<double> blk;
  std::vector<Slot> listed;
  std::vector<std::uint32_t> where;
  /// `rhs` may hold a -0.0 (a two-phase drive-out can leave one), so an
  /// implicit column's rhs update replays the full column's zero adds.
  bool rhs_neg_zero = false;
};

/// A Problem converted to standard form once, solvable many times.
class PreparedProblem {
 public:
  /// Convert `p`.  `dynamic_rows` lists constraint rows whose rhs will be
  /// patched with set_rhs to values that may flip the sign of the
  /// normalized right-hand side; such inequality rows get both a slack and
  /// an artificial column reserved eagerly.  kEqual rows never need to be
  /// declared (their structure is sign-independent).  The Problem is copied
  /// from; it may be destroyed afterwards.
  explicit PreparedProblem(const Problem& p,
                           const std::vector<std::size_t>& dynamic_rows = {});

  /// Number of original variables.
  std::size_t num_vars() const { return nv_; }
  /// Number of original constraint rows.
  std::size_t num_constraints() const { return mc_; }

  /// Patch the right-hand side of constraint row `i`.  See the class
  /// comment for which rows accept which values.  After set_hot_rows only
  /// the hot rows accept patches (PreconditionError otherwise).
  void set_rhs(std::size_t i, double rhs);

  /// Replace the objective vector (minimized); dimension must be num_vars().
  void set_objective(const linalg::Vector& c);

  /// Declare the constraint rows whose right-hand sides change between
  /// warm solves (e.g. the x(0) = x0 equalities of an MPC step); every
  /// other row is frozen from here on, and set_rhs on it throws
  /// PreconditionError.  That contract is what lets the warm tableau drop
  /// the dead columns: an artificial column never enters, and the warm
  /// path reads it back only as the B^-1 unit column of a patched row, so
  /// only the hot rows' artificials stay live (2 of 22 on the acc MPC) and
  /// the rest get no slot.  The call also sends every existing WarmState of
  /// this problem cold.
  ///
  /// The template AS IT STANDS RIGHT NOW is snapshotted as the canonical
  /// warm-start seed: the first cold solve_warm lazily solves it once, and
  /// every later cold restart (reset, scheduled refactorization)
  /// re-anchors on that optimum with a short dual continuation instead of
  /// a full two-phase solve.  Transparent to results up to LP argmin
  /// selection on non-unique optima.
  /// Call immediately after construction, BEFORE any set_rhs patch, so the
  /// captured seed is a pure function of the problem structure -- that is
  /// what keeps parallel-worker episode schedules bit-identical (every
  /// copy of the controller shares one canonical restart point).  A later
  /// set_objective disables the seed (restarts fall back to the two-phase
  /// path).
  void set_hot_rows(const std::vector<std::size_t>& rows);

  /// Solve with the current objective/rhs.  Identical semantics to
  /// lp::solve() of the equivalent Problem.
  Result solve(SolverWorkspace& ws, const SimplexOptions& options = {}) const;

  /// Warm-start continuation state for solve_warm.  Owned by the caller
  /// alongside the SolverWorkspace whose tableau it annotates.
  struct WarmState {
    bool valid = false;
    std::vector<double> b;            ///< rhs snapshot, fixed row orientation
    std::vector<unsigned char> flip;  ///< row orientation at snapshot time
    std::size_t solves_since_cold = 0;
    std::size_t objective_revision = 0;
    /// Pairing token stamped into both this state and the workspace whose
    /// tableau it annotates; a mismatch (foreign or reused workspace, even
    /// of identical dimensions) forces the cold path instead of continuing
    /// from an unrelated tableau.
    std::uint64_t serial = 0;
    /// Identity of the PreparedProblem the snapshot belongs to; a warm
    /// state handed to a different problem instance falls back cold.
    std::uint64_t problem_id = 0;
  };

  /// Solve like solve(), but when `warm` holds the optimum of a previous
  /// solve through the same workspace, continue from that basis with the
  /// dual simplex instead of restarting both phases.
  ///
  /// Rationale: between successive solves of a receding-horizon controller
  /// only a few right-hand sides change.  The old optimal basis stays dual
  /// feasible (the objective is unchanged), and the standard-form unit
  /// columns of the final tableau hold B^-1, so the new basic solution is a
  /// rank-k rhs update followed by a handful of dual pivots -- versus ~50
  /// two-phase pivots for a cold MPC solve.  Falls back to the cold path on
  /// any numerical trouble, after an objective change, or every
  /// kRefactorEvery solves (bounds round-off drift in the carried
  /// tableau); when set_hot_rows captured a canonical seed, those cold
  /// restarts are themselves dual continuations from the seed optimum.
  /// The result is an exact optimum either way; it may differ from the
  /// cold solve's argmin only when the optimum is non-unique.
  Result solve_warm(SolverWorkspace& ws, WarmState& warm,
                    const SimplexOptions& options = {}) const;

  /// One-shot solve for a PreparedProblem that will not be reused: moves
  /// the template tableau into the phase driver instead of copying it.
  /// Rvalue-qualified -- only callable on a temporary; leaves the object
  /// unusable.  This is lp::solve()'s backend.
  Result solve_once(const SimplexOptions& options = {}) &&;

  /// Columns of the standard-form tableau (diagnostics / sizing).
  std::size_t num_cols() const { return n_; }
  /// Rows of the standard-form tableau (constraints + bound rows).
  std::size_t num_rows() const { return m_; }

 private:
  /// How an original variable maps into the standard-form columns.
  struct VarMap {
    enum class Kind { kShiftedLow, kShiftedHigh, kSplit } kind = Kind::kSplit;
    std::size_t col = 0;   ///< primary standard column
    std::size_t col2 = 0;  ///< negative part for kSplit
    double offset = 0.0;   ///< x = offset + y (kShiftedLow) / offset - y (kShiftedHigh)
  };

  /// Per-row patch metadata.
  struct RowInfo {
    Relation rel = Relation::kLessEq;
    bool flipped = false;        ///< row was negated to make rhs >= 0
    bool dynamic = false;        ///< eager slack+artificial columns reserved
    std::size_t slack_col = kNoCol;
    std::size_t art_col = kNoCol;
    /// The row's normalized-rhs shift terms: shift_terms_[shift_begin,
    /// shift_end).
    std::size_t shift_begin = 0, shift_end = 0;
  };
  static constexpr std::size_t kNoCol = static_cast<std::size_t>(-1);

  void emit_structural(std::size_t r, const double* coeffs, double sign);
  /// Row r's slack/artificial entries, starting basic column and phase-1
  /// cost for its current orientation.
  void emit_layout(std::size_t r);
  /// Template entry (r, col) of an explicit column.
  double& entry(std::size_t r, std::size_t col) { return blk_[where_[col] * m_ + r]; }
  /// `rhs` of constraint row i less the row's shift terms.
  double shifted_rhs(std::size_t i, double rhs) const;

  std::size_t nv_ = 0;  ///< original variables
  std::size_t mc_ = 0;  ///< original constraint rows
  std::size_t m_ = 0;   ///< tableau rows (mc_ + bound rows)
  std::size_t n_ = 0;   ///< tableau columns
  std::size_t ncols_ = 0;  ///< structural columns (before slack/artificial)

  std::vector<VarMap> vmap_;
  std::vector<RowInfo> rows_;
  /// One term of a row's normalized-rhs shift b -= coeff * offset: the
  /// nonzero coefficients of non-split variables, j ascending per row.
  struct ShiftTerm {
    double coeff;
    double offset;
  };
  std::vector<ShiftTerm> shift_terms_;

  // Immutable-per-structure template, condensed like the working tableau
  // (SolverWorkspace::blk/listed/where); rhs/cost blocks mutate via setters.
  std::vector<double> blk_;
  std::vector<SolverWorkspace::Slot> listed_;
  std::vector<std::uint32_t> where_;
  std::vector<double> rhs_;
  std::vector<double> cost_;          ///< phase-2 costs over standard columns
  std::vector<double> phase1_cost_;
  std::vector<std::size_t> basis0_;   ///< starting basis
  std::vector<unsigned char> blocked0_;
  bool any_artificial_ = false;
  std::size_t objective_revision_ = 0;  ///< bumped by set_objective (invalidates warm)
  std::uint64_t problem_id_ = 0;        ///< unique per instance (warm-state pairing)

  linalg::Vector c_;  ///< original objective (objective recovery)

  /// Rows whose rhs may be patched: all of them until set_hot_rows.
  std::vector<unsigned char> hot_;
  /// The hot rows, ascending (the warm rhs patch walks only these).
  std::vector<std::size_t> hot_rows_;
  /// Columns no warm pivot reads: blocked, and not the artificial of a hot
  /// row.  A warm anchor drops them when phase 2 starts.
  std::vector<unsigned char> dead_;

  // ---- canonical warm-start seed (set_hot_rows) ----
  // All seed state is mutable: it is a lazily materialized pure function
  // of the structure captured by set_hot_rows, and PreparedProblem's
  // concurrency contract is already per-instance single-threaded.
  bool seed_captured_ = false;
  std::size_t seed_obj_revision_ = 0;
  mutable bool seed_built_ = false;  ///< build attempted (ok or not)
  mutable bool seed_ok_ = false;     ///< canonical solve reached optimality
  // The canonical template, solved in place by build_seed into the
  // condensed optimum every restart copies, plus the pre-solve
  // rhs+orientation it answers for (the warm snapshot).
  mutable SolverWorkspace seed_;
  std::vector<double> seed_b_;
  std::vector<unsigned char> seed_flip_;

  /// Load the template into `ws` and run both phases; see run_phases.
  Result solve_cold(SolverWorkspace& ws, const SimplexOptions& options,
                    bool anchor) const;
  /// Phase 1, the drive-out and phase 2 on the tableau in `ws`.  With
  /// `anchor` the optimum is left ready for warm continuation: phase 2
  /// drops only the dead columns, and the result is settled by anchor().
  Result run_phases(SolverWorkspace& ws, const SimplexOptions& options,
                    bool anchor) const;
  void drive_out(SolverWorkspace& ws, const SimplexOptions& options) const;
  void anchor(SolverWorkspace& ws) const;
  Result extract(SolverWorkspace& ws) const;
  Result solve_warm_inner(SolverWorkspace& ws, WarmState& warm,
                          const SimplexOptions& options, bool allow_seed) const;
  void build_seed(const SimplexOptions& options) const;
  void update_dead_cols();
};

}  // namespace oic::lp
