#include "fault/repair.hh"

#include <algorithm>
#include <sstream>

#include "core/incremental.hh"
#include "engine/context.hh"
#include "metrics/metrics.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace srsim {
namespace fault {

const char *
messageFateName(MessageFate f)
{
    switch (f) {
      case MessageFate::Survived: return "survived";
      case MessageFate::Rerouted: return "rerouted";
      case MessageFate::Degraded: return "degraded";
      case MessageFate::Shed: return "shed";
    }
    return "unknown";
}

namespace {

/**
 * Messages that cannot be served at all on the degraded fabric:
 * an endpoint task sits on a dead node, or (for network messages)
 * no surviving route connects the endpoints.
 */
std::vector<MessageId>
shedSet(const TaskFlowGraph &g, const Topology &topo,
        const TaskAllocation &alloc)
{
    std::vector<MessageId> shed;
    for (const Message &m : g.messages()) {
        const NodeId s = alloc.nodeOf(m.src);
        const NodeId d = alloc.nodeOf(m.dst);
        if (!topo.nodeUp(s) || !topo.nodeUp(d)) {
            shed.push_back(m.id);
            continue;
        }
        if (s != d && topo.minimalPaths(s, d, 1).empty())
            shed.push_back(m.id);
    }
    return shed;
}

/** Copy of g without the given messages (all tasks kept). */
TaskFlowGraph
reducedTfg(const TaskFlowGraph &g, const std::vector<MessageId> &drop,
           std::vector<MessageId> &kept)
{
    TaskFlowGraph out;
    for (const Task &t : g.tasks())
        out.addTask(t.name, t.operations);
    kept.clear();
    for (const Message &m : g.messages()) {
        if (std::find(drop.begin(), drop.end(), m.id) != drop.end())
            continue;
        out.addMessage(m.name, m.src, m.dst, m.bytes);
        kept.push_back(m.id);
    }
    return out;
}

/**
 * The incremental per-subset repair. Returns true when it produced
 * a verified schedule into `res`; false means "fall back to full
 * recompilation" (res untouched beyond counters).
 */
bool
tryIncrementalRepair(const TaskFlowGraph &g, const Topology &topo,
                     const TaskAllocation &alloc,
                     const TimingModel &tm,
                     const SrCompilerConfig &cfg,
                     const SrCompileResult &healthy,
                     lp::BasisCache *basisCache,
                     const engine::EngineContext *ctx,
                     RepairResult &res)
{
    const engine::EngineContext &ectx = engine::resolve(ctx);
    const TimeBounds &bounds = healthy.bounds;
    if (!healthy.intervals)
        return false; // degenerate: no network messages
    const IntervalSet &ivs = *healthy.intervals;

    // Dirty = routed over a failed or derated resource.
    std::vector<std::size_t> dirty;
    for (std::size_t i = 0; i < bounds.messages.size(); ++i) {
        const Path &p = healthy.paths.pathFor(i);
        if (!topo.pathAlive(p) || topo.crossesDerated(p))
            dirty.push_back(i);
    }

    PathAssignment pa = healthy.paths;

    if (!dirty.empty()) {
        trace::ScopedPhase phase("repair_reroute", ectx.tracer(),
                                 ectx.metricsRegistry());
        // Greedy deterministic reroute: every dirty message first
        // takes its first surviving minimal path, then (in index
        // order) keeps the candidate minimizing the peak utilization
        // with all other routes fixed.
        const GreedyRouteResult gr = greedyRouteMessages(
            g, topo, alloc, bounds, ivs, dirty,
            cfg.assign.maxPathsPerMessage, pa);
        if (!gr.ok)
            return false; // disconnected: shed path handles it
        if (gr.report.peak > 1.0 + 1e-9)
            return false;
    }

    // Re-solve only the subsets touched by rerouted messages or
    // derated links; everything else keeps its healthy segments
    // verbatim (see src/core/incremental.hh for the invariants).
    std::vector<char> dirtyFlags(bounds.messages.size(), 0);
    for (std::size_t i : dirty)
        dirtyFlags[i] = 1;

    IncrementalSolveOptions iopts;
    iopts.allocMethod = cfg.allocMethod;
    iopts.scheduling = cfg.scheduling;
    iopts.scheduling.packetTime = effectivePacketTime(cfg, tm);
    iopts.topo = &topo;
    iopts.tracePrefix = "repair";
    iopts.basisCache = basisCache;
    iopts.ctx = ctx;
    const IncrementalSolveResult inc = resolveDirtySubsets(
        bounds, ivs, pa, dirtyFlags, healthy.omega.segments, iopts);

    res.subsetsTotal = inc.subsetsTotal;
    res.subsetsResolved = inc.subsetsResolved;
    res.subsetsReused = inc.subsetsCopied;
    if (!inc.feasible)
        return false;

    GlobalSchedule omega;
    omega.period = healthy.omega.period;
    omega.paths = pa;
    omega.segments = inc.segments;

    const VerifyResult v =
        verifySchedule(g, topo, alloc, bounds, omega);
    if (!v.ok)
        return false; // safety net: fall back to full recompile

    res.feasible = true;
    res.usedIncremental = true;
    res.degradedPeriod = omega.period;
    res.omega = std::move(omega);
    res.verification = v;
    for (std::size_t i : dirty)
        res.fates[static_cast<std::size_t>(
            bounds.messages[i].msg)] = MessageFate::Rerouted;
    metrics::Registry &mreg = ectx.metricsRegistry();
    metrics::bump(mreg, "repair.incremental");
    metrics::bump(mreg, "repair.subsets_reused",
                static_cast<std::uint64_t>(res.subsetsReused));
    metrics::bump(mreg, "repair.subsets_resolved",
                static_cast<std::uint64_t>(res.subsetsResolved));
    return true;
}

} // namespace

RepairResult
repairSchedule(const TaskFlowGraph &g, const Topology &topo,
               const TaskAllocation &alloc, const TimingModel &tm,
               const SrCompilerConfig &cfg,
               const SrCompileResult &healthy,
               const RepairOptions &opts)
{
    // The repair's context: its own when set, else the compile's.
    const engine::EngineContext &ectx = engine::resolve(
        opts.ctx != nullptr ? opts.ctx : cfg.ctx);
    metrics::Registry &mreg = ectx.metricsRegistry();
    trace::ScopedPhase phase("fault_repair", ectx.tracer(), mreg);
    RepairResult res;
    res.fates.assign(static_cast<std::size_t>(g.numMessages()),
                     MessageFate::Survived);

    if (!healthy.feasible) {
        res.detail = "healthy compile was not feasible";
        return res;
    }
    if (!topo.degraded()) {
        // Nothing failed: the healthy schedule stands as-is.
        res.feasible = true;
        res.degradedPeriod = healthy.omega.period;
        res.omega = healthy.omega;
        res.verification = healthy.verification;
        res.subsetsTotal = res.subsetsReused = healthy.numSubsets;
        return res;
    }

    res.shedMessages = shedSet(g, topo, alloc);
    for (MessageId m : res.shedMessages)
        res.fates[static_cast<std::size_t>(m)] = MessageFate::Shed;

    if (res.shedMessages.empty() && opts.allowIncremental &&
        tryIncrementalRepair(g, topo, alloc, tm, cfg, healthy,
                             opts.basisCache, &ectx, res)) {
        res.omega.faultSpec = opts.faultSpec;
        return res;
    }

    // Full recompilation on the surviving fabric — on a reduced TFG
    // when messages had to be shed — at the original period first,
    // then at stretched periods.
    metrics::bump(mreg, "repair.full_recompiles");
    TaskFlowGraph reduced;
    const bool shedding = !res.shedMessages.empty();
    if (shedding)
        reduced = reducedTfg(g, res.shedMessages, res.keptMessages);
    const TaskFlowGraph &g2 = shedding ? reduced : g;

    std::vector<double> factors{1.0};
    if (opts.allowPeriodStretch)
        factors.insert(factors.end(), opts.stretchFactors.begin(),
                       opts.stretchFactors.end());

    for (double f : factors) {
        SrCompilerConfig cfg2 = cfg;
        cfg2.inputPeriod = healthy.omega.period * f;
        cfg2.verify = true;
        cfg2.ctx = &ectx;
        const SrCompileResult attempt = compileScheduledRouting(
            g2, topo, alloc, tm, cfg2);
        if (!attempt.feasible) {
            res.compile = attempt;
            std::ostringstream oss;
            oss << "recompile at period " << cfg2.inputPeriod
                << " failed at stage "
                << srFailureStageName(attempt.stage) << ": "
                << attempt.detail;
            res.detail = oss.str();
            continue;
        }

        res.feasible = true;
        res.usedFullRecompile = true;
        res.degradedPeriod = cfg2.inputPeriod;
        res.compile = attempt;
        res.omega = res.compile.omega;
        res.omega.faultSpec = opts.faultSpec;
        if (f > 1.0)
            res.omega.degradedFrom = healthy.omega.period;
        res.verification = res.compile.verification;
        res.subsetsTotal = res.subsetsResolved =
            res.compile.numSubsets;
        res.detail.clear();

        // Fates of the messages that kept their service.
        const bool stretched = f > 1.0;
        for (const MessageBounds &b :
             res.compile.bounds.messages) {
            const MessageId orig =
                shedding ? res.keptMessages[static_cast<
                               std::size_t>(b.msg)]
                         : b.msg;
            MessageFate fate = MessageFate::Survived;
            if (stretched) {
                fate = MessageFate::Degraded;
            } else {
                const int hi = healthy.bounds.indexOf[
                    static_cast<std::size_t>(orig)];
                const std::size_t ni = static_cast<std::size_t>(
                    res.compile.bounds.indexOf[
                        static_cast<std::size_t>(b.msg)]);
                if (hi < 0 ||
                    !(res.compile.paths.pathFor(ni) ==
                      healthy.paths.pathFor(
                          static_cast<std::size_t>(hi))))
                    fate = MessageFate::Rerouted;
            }
            res.fates[static_cast<std::size_t>(orig)] = fate;
        }
        if (stretched) {
            // Local messages degrade with the period too.
            for (std::size_t i = 0; i < res.fates.size(); ++i)
                if (res.fates[i] == MessageFate::Survived)
                    res.fates[i] = MessageFate::Degraded;
        }
        metrics::bump(mreg, "repair.subsets_resolved",
                    static_cast<std::uint64_t>(
                        res.subsetsResolved));
        return res;
    }

    metrics::bump(mreg, "repair.failures");
    return res;
}

} // namespace fault
} // namespace srsim
