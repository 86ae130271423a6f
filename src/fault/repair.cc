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

} // namespace

RepairResult
repairSchedule(const TaskFlowGraph &g, const Topology &topo,
               const TaskAllocation &alloc, const TimingModel &tm,
               const SrCompilerConfig &cfg,
               const SrCompileResult &healthy,
               const std::string &faultSpec)
{
    const engine::EngineContext &ectx = engine::resolve(cfg.ctx);
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

    // Incremental path: reroute only the messages routed over a
    // failed or derated resource and re-solve only their subsets
    // (and those on derated links); everything else keeps its
    // healthy segments verbatim. Needs network messages and no
    // shedding.
    if (res.shedMessages.empty() && healthy.intervals) {
        const TimeBounds &bounds = healthy.bounds;
        std::vector<std::size_t> dirty;
        for (std::size_t i = 0; i < bounds.messages.size(); ++i) {
            const Path &p = healthy.paths.pathFor(i);
            if (!topo.pathAlive(p) || topo.crossesDerated(p))
                dirty.push_back(i);
        }
        IncrementalSolveResult inc = resolveIncrementally(
            g, topo, alloc, bounds, *healthy.intervals, healthy.omega,
            {}, dirty, cfg, tm, nullptr, "repair");
        res.subsetsTotal = inc.subsetsTotal;
        res.subsetsResolved = inc.subsetsResolved;
        res.subsetsReused = inc.subsetsCopied;
        if (inc.feasible) {
            res.feasible = true;
            res.usedIncremental = true;
            res.degradedPeriod = inc.omega.period;
            res.omega = std::move(inc.omega);
            res.omega.faultSpec = faultSpec;
            res.verification = std::move(inc.verification);
            for (std::size_t i : dirty)
                res.fates[static_cast<std::size_t>(
                    bounds.messages[i].msg)] = MessageFate::Rerouted;
            metrics::bump(mreg, "repair.incremental");
            metrics::bump(mreg, "repair.subsets_reused",
                          static_cast<std::uint64_t>(res.subsetsReused));
            metrics::bump(mreg, "repair.subsets_resolved",
                          static_cast<std::uint64_t>(
                              res.subsetsResolved));
            return res;
        }
    }

    // Full recompilation on the surviving fabric — on a reduced TFG
    // when messages had to be shed — at the original period first,
    // then at stretched periods.
    metrics::bump(mreg, "repair.full_recompiles");
    const bool shedding = !res.shedMessages.empty();
    if (shedding)
        res.reduced =
            reducedTfg(g, res.shedMessages, res.keptMessages);
    const TaskFlowGraph &g2 = shedding ? res.reduced : g;

    StretchedCompile sc = compileStretched(
        g2, topo, alloc, tm, cfg, healthy.omega.period, true);
    res.compile = std::move(sc.compile);
    if (!res.compile.feasible) {
        std::ostringstream oss;
        oss << "recompile at period " << sc.period
            << " failed at stage "
            << srFailureStageName(res.compile.stage) << ": "
            << res.compile.detail;
        res.detail = oss.str();
        metrics::bump(mreg, "repair.failures");
        return res;
    }

    const bool stretched = sc.period != healthy.omega.period;
    res.feasible = true;
    res.usedFullRecompile = true;
    res.degradedPeriod = sc.period;
    res.omega = res.compile.omega;
    res.omega.faultSpec = faultSpec;
    if (stretched)
        res.omega.degradedFrom = healthy.omega.period;
    res.verification = res.compile.verification;
    res.subsetsTotal = res.subsetsResolved = res.compile.numSubsets;

    // Fates of the messages that kept their service.
    for (const MessageBounds &b : res.compile.bounds.messages) {
        const MessageId orig =
            shedding
                ? res.keptMessages[static_cast<std::size_t>(b.msg)]
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
                  healthy.paths.pathFor(static_cast<std::size_t>(hi))))
                fate = MessageFate::Rerouted;
        }
        res.fates[static_cast<std::size_t>(orig)] = fate;
    }
    if (stretched) {
        // Local messages degrade with the period too.
        for (MessageFate &f : res.fates)
            if (f == MessageFate::Survived)
                f = MessageFate::Degraded;
    }
    metrics::bump(mreg, "repair.subsets_resolved",
                  static_cast<std::uint64_t>(res.subsetsResolved));
    return res;
}

} // namespace fault
} // namespace srsim
