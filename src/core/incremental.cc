#include "core/incremental.hh"

#include <string>
#include <utility>

#include "engine/context.hh"
#include "trace/trace.hh"

namespace srsim {

namespace {

/**
 * Re-partition under `pa`, re-solve the subsets touched by a dirty
 * message or a derated link, and splice their fresh rows over
 * `segments` (the prior rows on entry). False when a dirty subset's
 * allocation or scheduling is infeasible.
 */
bool
resolveDirtySubsets(const Topology &topo, const TimeBounds &bounds,
                    const IntervalSet &intervals,
                    const PathAssignment &pa,
                    const std::vector<char> &dirtyMessage,
                    const SrCompilerConfig &cfg, Time packetTime,
                    lp::BasisCache *basisCache,
                    const std::string &tracePrefix,
                    IncrementalSolveResult &res,
                    std::vector<std::vector<TimeWindow>> &segments)
{
    const engine::EngineContext &ectx = engine::resolve(cfg.ctx);

    // Subsets free of dirty members and derated links kept exactly
    // their prior relatedness, so their segments are reused verbatim.
    const std::vector<MessageSubset> subsets =
        computeMaximalSubsets(bounds, intervals, pa);
    std::vector<MessageSubset> dirtySubsets;
    for (const MessageSubset &sub : subsets) {
        bool isDirty = false;
        for (std::size_t h : sub.members)
            isDirty = isDirty || dirtyMessage[h] != 0;
        for (LinkId l : sub.links)
            isDirty = isDirty || topo.linkCapacity(l) < 1.0;
        if (isDirty)
            dirtySubsets.push_back(sub);
    }

    res.subsetsTotal = subsets.size();
    res.subsetsResolved = dirtySubsets.size();
    res.subsetsCopied = subsets.size() - dirtySubsets.size();
    if (dirtySubsets.empty())
        return true;

    // ScopedPhase keeps the name's pointer: the strings outlive it.
    IntervalAllocation fresh;
    {
        const std::string name = tracePrefix + "_allocation";
        trace::ScopedPhase phase(name.c_str(), ectx.tracer(),
                                 ectx.metricsRegistry());
        fresh = allocateMessageIntervals(
            bounds, intervals, pa, dirtySubsets, cfg.allocMethod,
            cfg.scheduling.guardTime, packetTime, &topo, basisCache,
            cfg.ctx);
    }
    if (!fresh.feasible)
        return false;

    IntervalScheduleResult freshSched;
    {
        const std::string name = tracePrefix + "_scheduling";
        trace::ScopedPhase phase(name.c_str(), ectx.tracer(),
                                 ectx.metricsRegistry());
        IntervalSchedulingOptions sopts = cfg.scheduling;
        sopts.packetTime = packetTime;
        if (sopts.basisCache == nullptr)
            sopts.basisCache = basisCache;
        if (sopts.ctx == nullptr)
            sopts.ctx = cfg.ctx;
        freshSched = scheduleIntervals(bounds, intervals, pa,
                                       dirtySubsets, fresh, sopts);
    }
    if (!freshSched.feasible)
        return false;

    for (const MessageSubset &sub : dirtySubsets)
        for (std::size_t h : sub.members)
            segments[h] = std::move(freshSched.segments[h]);
    return true;
}

} // namespace

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
                     const char *tracePrefix)
{
    IncrementalSolveResult res;
    const engine::EngineContext &ectx = engine::resolve(cfg.ctx);
    const std::string prefix(tracePrefix);
    GlobalSchedule &omega = res.omega;
    omega.period = prior.period;
    omega.paths = std::move(prior.paths);
    omega.segments = std::move(prior.segments);

    if (!reroute.empty()) {
        const std::string name = prefix + "_reroute";
        trace::ScopedPhase phase(name.c_str(), ectx.tracer(),
                                 ectx.metricsRegistry());
        // Greedy deterministic reroute: every listed message first
        // takes its first surviving minimal path, then (in list
        // order) keeps the candidate minimizing the peak utilization
        // with all other routes fixed. A missing route or a ceiling
        // bust (where a global re-route might not bust it) leaves
        // the verdict to the full compiler.
        const GreedyRouteResult gr = greedyRouteMessages(
            g, topo, alloc, bounds, intervals, reroute,
            cfg.assign.maxPathsPerMessage, omega.paths);
        if (!gr.ok || gr.report.peak > 1.0 + 1e-9)
            return res;
    }

    std::vector<char> dirtyMessage(bounds.messages.size(), 0);
    for (std::size_t i : dirty)
        dirtyMessage[i] = 1;
    for (std::size_t i : reroute)
        dirtyMessage[i] = 1;
    if (!resolveDirtySubsets(topo, bounds, intervals, omega.paths,
                             dirtyMessage, cfg,
                             effectivePacketTime(cfg, tm), basisCache,
                             prefix, res, omega.segments))
        return res;

    res.verification = verifySchedule(g, topo, alloc, bounds, omega);
    if (!res.verification.ok)
        return res;
    res.peakUtilization =
        UtilizationAnalyzer(bounds, intervals, topo)
            .analyze(omega.paths)
            .peak;
    res.feasible = true;
    return res;
}

} // namespace srsim
