/**
 * @file
 * Incremental rescheduling: reroute a few messages and re-solve only
 * the dirty maximal subsets.
 *
 * Both degraded-mode repair (src/fault) and online admission control
 * (src/online) exploit the same two invariants of the Fig. 3
 * decomposition:
 *
 *  - message time bounds and the interval decomposition depend only
 *    on the TFG, the allocation, and the timing model — not on
 *    routes;
 *  - maximal related subsets share no (link, interval) pair, so a
 *    subset none of whose members changed (route, bounds, or link
 *    capacity) keeps its transmission segments verbatim.
 *
 * This module is the one place that reroutes and re-solves: greedily
 * route the listed messages, partition the messages into maximal
 * related subsets under the resulting path assignment, run
 * message-interval allocation and interval scheduling on the subsets
 * touched by dirty messages or derated links only, splice the fresh
 * segments into the prior schedule, and verify the result. Callers
 * keep their own policy (what counts as dirty, fallback strategy,
 * metrics namespaces).
 */

#ifndef SRSIM_CORE_INCREMENTAL_HH_
#define SRSIM_CORE_INCREMENTAL_HH_

#include <cstddef>
#include <vector>

#include "core/sr_compiler.hh"

namespace srsim {

/** Outcome of one incremental re-solve. */
struct IncrementalSolveResult
{
    /**
     * A verified schedule came out. False means "fall back to a full
     * compile": a listed message has no surviving route, the greedy
     * routes exceed the utilization ceiling, a dirty subset is
     * infeasible, or the spliced schedule failed verification.
     */
    bool feasible = false;

    /** Subset bookkeeping (zero when routing already failed). */
    std::size_t subsetsTotal = 0;
    std::size_t subsetsResolved = 0;
    std::size_t subsetsCopied = 0;

    /**
     * The spliced schedule at the prior period, without provenance:
     * fresh segments for members of re-solved subsets, the prior's
     * otherwise.
     */
    GlobalSchedule omega;
    VerifyResult verification;
    /** Peak utilization of omega.paths. */
    double peakUtilization = 0.0;
};

/**
 * Reroute, re-solve the dirty subsets, splice and verify.
 *
 * @param bounds    time bounds of the (new) workload
 * @param intervals interval decomposition of `bounds`
 * @param prior     the prior schedule re-indexed to bounds.messages:
 *        its period, and per message the path and segments it had
 *        (anything for rerouted or brand-new messages)
 * @param dirty     message indices whose subsets must be re-solved
 *        although they keep their route (moved bounds)
 * @param reroute   message indices routed afresh, in this order, by
 *        greedyRouteMessages(); their subsets are re-solved too
 * @param basisCache when given, the subset LPs warm-start from (and
 *        store back to) it; nullptr keeps every solve cold
 * @param tracePrefix trace phases are "<prefix>_reroute",
 *        "<prefix>_allocation" and "<prefix>_scheduling"
 *
 * Subsets touching a derated link of `topo` are re-solved even when
 * none of their members is dirty.
 */
IncrementalSolveResult
resolveIncrementally(const TaskFlowGraph &g, const Topology &topo,
                     const TaskAllocation &alloc,
                     const TimeBounds &bounds,
                     const IntervalSet &intervals,
                     GlobalSchedule prior,
                     const std::vector<std::size_t> &dirty,
                     const std::vector<std::size_t> &reroute,
                     const SrCompilerConfig &cfg,
                     const TimingModel &tm,
                     lp::BasisCache *basisCache,
                     const char *tracePrefix);

} // namespace srsim

#endif // SRSIM_CORE_INCREMENTAL_HH_
