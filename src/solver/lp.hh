/**
 * @file
 * Linear-program model and solver interface.
 *
 * The paper casts both message-interval allocation (Sec. 5.2,
 * constraints (3)-(4)) and interval scheduling (Sec. 5.3, the
 * Blazewicz-style formulation over link-feasible sets) as mathematical
 * programs. srsim solves them with this self-contained two-phase dense
 * simplex. Variables are preemptive transmission *durations*, which
 * are naturally continuous, so the LP relaxation carries the same
 * feasibility semantics as the paper's integer programs.
 *
 * Model: minimize c^T x subject to linear constraints, with every
 * variable constrained to x >= 0.
 */

#ifndef SRSIM_SOLVER_LP_HH_
#define SRSIM_SOLVER_LP_HH_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace srsim {

namespace metrics {
class Registry;
} // namespace metrics

namespace lp {

/** Constraint sense. */
enum class Relation { LessEq, GreaterEq, Equal };

/**
 * Solver outcome.
 *
 * NumericalFailure means the tableau degraded past what the scaled
 * tolerances can certify (a degenerate pivot with no acceptable
 * alternative, or a non-finite value appearing during elimination).
 * It is a *structured* verdict: callers decide how to degrade; the
 * solver never aborts the process on a numerically hard instance.
 */
enum class Status
{
    Optimal,
    Infeasible,
    Unbounded,
    IterationLimit,
    NumericalFailure,
};

/** Alias used by the compile pipeline's error taxonomy. */
using SolveStatus = Status;

/** @return human-readable status name. */
const char *statusName(Status s);

/** One linear constraint: sum(coeff_i * x_i) REL rhs. */
struct Constraint
{
    std::vector<std::pair<std::size_t, double>> terms;
    Relation rel = Relation::LessEq;
    double rhs = 0.0;
};

/**
 * A linear program in minimization form with non-negative variables.
 * Variables may additionally be marked integral, in which case
 * solveMip() enforces integrality by branch and bound (solve()
 * ignores the marks and returns the LP relaxation).
 */
class Problem
{
  public:
    /**
     * Add a decision variable.
     * @param cost objective coefficient
     * @param name optional diagnostic name
     * @return variable index
     */
    std::size_t addVariable(double cost, std::string name = "");

    /** Require variable i to take an integer value in solveMip(). */
    void markInteger(std::size_t i);

    /** @return true if variable i is integrality-constrained. */
    bool isInteger(std::size_t i) const { return integer_[i]; }

    /** @return true if any variable is integrality-constrained. */
    bool hasIntegers() const;

    /** Add a constraint; all variable indices must already exist. */
    void addConstraint(Constraint c);

    /** Convenience: add sum(terms) REL rhs. */
    void
    addConstraint(std::vector<std::pair<std::size_t, double>> terms,
                  Relation rel, double rhs)
    {
        addConstraint(Constraint{std::move(terms), rel, rhs});
    }

    /**
     * Drop every constraint with index >= n (variables are kept).
     * Branch and bound uses this to push/pop branch bound rows on a
     * single working instance instead of copying the whole problem
     * at every node.
     */
    void truncateConstraints(std::size_t n);

    std::size_t numVariables() const { return costs_.size(); }
    std::size_t numConstraints() const { return constraints_.size(); }

    const std::vector<double> &costs() const { return costs_; }
    const std::vector<Constraint> &constraints() const
    {
        return constraints_;
    }
    const std::string &variableName(std::size_t i) const
    {
        return names_[i];
    }

  private:
    std::vector<double> costs_;
    std::vector<std::string> names_;
    std::vector<bool> integer_;
    std::vector<Constraint> constraints_;
};

/**
 * A snapshot of an optimal simplex basis, used to warm-start a
 * re-solve of the same (or a structurally similar) problem.
 *
 * Entries are *symbolic* — "structural variable i", "row r's slack /
 * surplus", "row r's artificial" — rather than raw standard-form
 * column indices, so a basis survives re-solves whose slack column
 * layout shifted (e.g. a branch-and-bound child that appended one
 * bound row). The sparse solver validates a candidate basis against
 * the new problem (dimension check, factorization, feasibility) and
 * falls back to a cold two-phase solve when it does not fit.
 */
struct Basis
{
    enum class Kind : std::uint8_t { Structural, Slack, Artificial };
    struct Entry
    {
        Kind kind = Kind::Slack;
        /** Variable index (Structural) or row index (otherwise). */
        std::uint32_t index = 0;
    };
    /** Basic entry per constraint row, in row order. */
    std::vector<Entry> rows;
    /** numVariables() of the problem the basis was taken from. */
    std::size_t structurals = 0;

    bool empty() const { return rows.empty(); }
};

/** Result of a solve. */
struct Solution
{
    Status status = Status::Infeasible;
    /** Objective value; meaningful only when status == Optimal. */
    double objective = 0.0;
    /** Variable values; meaningful only when status == Optimal. */
    std::vector<double> values;
    /**
     * Simplex pivots consumed, *cumulative* across phase 1, phase 2,
     * warm-start continuation, and (for solveMip) every explored
     * branch-and-bound node.
     */
    std::size_t pivots = 0;
    /**
     * Optimal basis snapshot for warm-starting a re-solve. Filled
     * by both solvers on Optimal; empty otherwise.
     */
    Basis basis;

    bool feasible() const { return status == Status::Optimal; }
};

/**
 * Which solver stack the lp::solve dispatcher uses.
 *
 * Dense runs the two-phase tableau simplex for everything and
 * ignores warm-start bases. Sparse layers the revised-simplex
 * warm-start machinery on top of it: a solve carrying a usable warm
 * basis resumes with revised primal/dual pivots, and everything
 * else — cold solves, and any warm attempt that falls through the
 * fallback ladder — runs the identical tableau path.
 *
 * Cold solves are therefore bit-identical across both kinds by
 * construction. That is deliberate: published schedules print raw
 * doubles, so the golden byte-identity suite requires the cold
 * pipeline to be arithmetic-for-arithmetic deterministic, which no
 * independently-implemented elimination order can provide. The
 * genuinely independent sparse implementation (solveRevised) is the
 * differential oracle instead: `srfuzz --solver-diff` cross-checks
 * its verdicts and objectives against the tableau on every case.
 */
enum class SolverKind { Dense, Sparse };

/** Solver knobs. */
struct SolveOptions
{
    /**
     * Solver stack for this solve. There is no process-wide default
     * any more: the engine context carries the configured kind
     * (EngineContext::solveOptions() pre-fills it) and the CLI entry
     * layer parses SRSIM_SOLVER exactly once into the root context,
     * so a mid-run environment change cannot flip the solver.
     */
    SolverKind kind = SolverKind::Sparse;
    /** Hard cap on pivots across both phases. */
    std::size_t maxIterations = 200000;
    /**
     * Base numeric tolerance for pivoting and pricing. Applied
     * *relative* to the tableau's magnitude: a column whose largest
     * entry is ~1e8 treats entries below ~1e8 * eps as zero, so
     * well-scaled-but-large instances neither pivot on rounding
     * noise nor abort.
     */
    double eps = 1e-9;
    /**
     * Relative phase-1 feasibility tolerance: the instance counts as
     * infeasible when the residual artificial sum exceeds
     * feasTol * max(rhsScale, feasFloor), where rhsScale is the
     * largest |rhs| of the instance. Tiny instances therefore get a
     * proportionally tiny acceptance threshold instead of the old
     * absolute 1e-6.
     */
    double feasTol = 1e-7;
    /** Floor for the feasibility scale (guards all-zero RHS). */
    double feasFloor = 1e-6;
    /**
     * Candidate warm-start basis (borrowed; must outlive the call).
     * Honored by the sparse revised solver only: when the basis fits
     * the problem it resumes with primal phase-2 or dual-simplex
     * steps; on dimension mismatch, singular factorization, or
     * numerical failure it falls back to a cold two-phase solve.
     * The dense solver ignores it.
     */
    const Basis *warmStart = nullptr;
    /**
     * When set, the dispatcher bumps "solver.solves"/"solver.pivots",
     * the warm-start machinery bumps
     * "solver.warmstart.{attempts,hits,misses}", and branch and bound
     * bumps "solver.mip.{nodes,problem_copies}" against this registry
     * — a per-session child registry under the daemon, the process
     * registry under the default context. These counters count on
     * every run, metrics enabled or not: they are the only solver
     * totals. nullptr records nothing.
     *
     * "solver.warmstart.misses" counts failed warm attempts *and*
     * BasisCache lookups that found no stored basis (a re-solve
     * site seen for the first time), so it can exceed "attempts".
     */
    metrics::Registry *registry = nullptr;
};

/**
 * Differential oracle mode: when enabled, every lp::solve runs the
 * dense tableau, the sparse cold, and (when a warm basis was passed)
 * the sparse warm solver, cross-checks status agreement and
 * objective equality to 1e-6 relative, and records disagreements.
 * The production result (per defaultSolver) is still returned, so
 * enabling the oracle never changes published schedules.
 */
void setSolverDiff(bool enabled);

/** Tally of the differential oracle. */
struct SolverDiffStats
{
    std::uint64_t solves = 0;
    std::uint64_t disagreements = 0;
    /** Description of the first disagreement (empty when none). */
    std::string firstReport;
};

SolverDiffStats solverDiffStats();
void resetSolverDiffStats();

/**
 * Solve the LP relaxation with the stack selected by
 * SolveOptions::kind: warm-start-capable (SolverKind::Sparse, the
 * default) or pure dense tableau. Cold solves produce bit-identical
 * results under either kind; only solves carrying a usable
 * SolveOptions::warmStart diverge, by resuming from the candidate
 * basis instead of re-running two phases. Integrality marks are
 * ignored (this is the relaxation).
 */
Solution solve(const Problem &p, const SolveOptions &opts = {});

/** The dense two-phase tableau simplex (the differential oracle). */
Solution solveDense(const Problem &p, const SolveOptions &opts = {});

/** Branch-and-bound knobs. */
struct MipOptions
{
    /** Hard cap on explored branch-and-bound nodes. */
    std::size_t maxNodes = 20000;
    /** A value within this of an integer counts as integral. */
    double integralityTol = 1e-6;
    /** Options for the LP relaxations. */
    SolveOptions lp;
};

/**
 * Solve the problem with integrality enforced on the marked
 * variables, by LP-based branch and bound (most-fractional
 * branching, depth-first, best-solution pruning).
 *
 * Status semantics: Optimal = best integral solution found and the
 * tree was fully explored; IterationLimit = the node cap was hit
 * (values hold the incumbent if one was found); Infeasible = no
 * integral solution exists.
 */
Solution solveMip(const Problem &p, const MipOptions &opts = {});

} // namespace lp
} // namespace srsim

#endif // SRSIM_SOLVER_LP_HH_
