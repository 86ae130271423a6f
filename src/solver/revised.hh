/**
 * @file
 * Sparse revised simplex with warm-start support.
 *
 * The compiler's LPs (allocation Sec. 5.2, interval covering
 * Sec. 5.3) carry 1-3 nonzeros per column, so maintaining an explicit
 * basis inverse and pricing against the sparse column store does an
 * O(m^2 + nnz) iteration where the dense tableau pays O(m*n). More
 * importantly for the incremental paths (branch-and-bound children,
 * fault repair, online admission churn), a revised solver can *warm
 * start*: resume from a previously optimal basis with a handful of
 * primal or dual pivots instead of a cold two-phase solve.
 *
 * Two entry points with different roles:
 *
 * solveRevisedWarm() is the production warm-start path used by the
 * lp::solve dispatcher under SolverKind::Sparse. It only ever runs
 * *from a candidate basis*; if the basis does not pan out it
 * reports failure and the dispatcher runs the deterministic tableau
 * solver, so cold results stay bit-identical to SolverKind::Dense
 * (published schedules print raw doubles, making golden
 * byte-identity arithmetic-sensitive; see SolverKind).
 *
 * solveRevised() is the complete independent solver — cold
 * two-phase sparse simplex plus the same warm machinery. Its pivot
 * rules mirror the dense solver (same standard form and column
 * order, Dantzig pricing with scale-relative tolerances, same
 * ratio-test tie-break, sticky Bland switch), but its arithmetic
 * (explicit basis inverse, sparse pricing) is independent, so
 * degenerate ties can resolve differently and it may return an
 * alternate optimal vertex. That independence is the point: it is
 * the differential oracle `srfuzz --solver-diff` cross-checks
 * against the tableau for status and objective agreement.
 *
 * Warm-start fallback ladder, most to least reusable:
 *  1. basis fits and factorizes, x_B = B^-1 b primal feasible:
 *     continue with phase-2 primal pivots (0 pivots when the data
 *     did not move the optimum);
 *  2. primal infeasible but reduced costs still dual feasible (the
 *     branch-and-bound child case: one new bound row): dual-simplex
 *     steps restore feasibility;
 *  3. anything else — dimension mismatch, singular basis, an
 *     artificial stuck basic at a nonzero value, numerical failure
 *     mid-flight — falls back to the cold two-phase solve.
 * Every attempt bumps "solver.warmstart.attempts" in the caller's
 * registry; a fallback also bumps "solver.warmstart.misses", and a
 * re-solve completed from the candidate basis counts as a hit.
 */

#ifndef SRSIM_SOLVER_REVISED_HH_
#define SRSIM_SOLVER_REVISED_HH_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "solver/lp.hh"

namespace srsim {
namespace lp {

/**
 * Solve with the sparse revised simplex. Honors
 * SolveOptions::warmStart; exports Solution::basis on Optimal.
 */
Solution solveRevised(const Problem &p, const SolveOptions &opts = {});

/**
 * Attempt a warm-started revised solve from opts.warmStart only.
 * @return true when the warm continuation produced a final verdict
 *         in `sol` (counted as a warm hit). On false — no usable
 *         basis, or any rung of the fallback ladder failed — `sol`
 *         is meaningless except for sol.pivots, which holds the
 *         pivots consumed by the attempt so the caller can fold
 *         them into its cold re-solve's cumulative count.
 */
bool solveRevisedWarm(const Problem &p, const SolveOptions &opts,
                      Solution &sol);

/**
 * Structural fingerprint of a problem: dimensions, constraint
 * relations, and the sparsity pattern (term indices), but *not* the
 * numeric data (costs, coefficients, rhs). Two problems with equal
 * signatures accept each other's bases dimensionally; the solver
 * still validates feasibility, so a stale signature match costs at
 * most a failed warm attempt.
 */
std::uint64_t structureSignature(const Problem &p);

/**
 * Keyed store of the last optimal basis per re-solve site (one entry
 * per maximal subset / interval work item). Thread-safe: the
 * allocation and scheduling stages solve subsets concurrently.
 * Unbounded by design — entries are a few hundred bytes and the key
 * population is the workload's subset count.
 */
class BasisCache
{
  public:
    /**
     * @param registry when given, lookup misses bump the
     * "solver.warmstart.misses" counter there (the owning session's
     * child registry under the daemon), metrics enabled or not.
     */
    explicit BasisCache(metrics::Registry *registry = nullptr)
        : registry_(registry)
    {
    }

    /**
     * @return true and fill `out` when `key` holds a basis whose
     *         structure signature matches `structSig`. A miss (no
     *         entry or signature mismatch) counts toward
     *         "solver.warmstart.misses".
     */
    bool lookup(const std::string &key, std::uint64_t structSig,
                Basis &out) const;

    /** Insert or overwrite the basis stored under `key`. */
    void store(const std::string &key, std::uint64_t structSig,
               const Basis &basis);

    std::size_t size() const;

  private:
    struct Entry
    {
        std::uint64_t sig = 0;
        Basis basis;
    };
    metrics::Registry *registry_ = nullptr;
    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> map_;
};

} // namespace lp
} // namespace srsim

#endif // SRSIM_SOLVER_REVISED_HH_
