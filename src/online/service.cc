#include "online/service.hh"

#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/incremental.hh"
#include "core/subsets.hh"
#include "engine/context.hh"
#include "solver/revised.hh"
#include "core/verifier.hh"
#include "fault/fault.hh"
#include "fault/repair.hh"
#include "metrics/metrics.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace srsim {
namespace online {

const char *
requestKindName(RequestKind k)
{
    switch (k) {
      case RequestKind::AdmitMessage: return "admit";
      case RequestKind::RemoveMessage: return "remove";
      case RequestKind::UpdatePeriod: return "period";
      case RequestKind::InjectFault: return "fault";
    }
    return "unknown";
}

const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
      case RejectReason::None: return "none";
      case RejectReason::InvalidRequest: return "invalid-request";
      case RejectReason::NoRoute: return "no-route";
      case RejectReason::UtilizationCeiling:
          return "utilization-ceiling";
      case RejectReason::InfeasibleSubset:
          return "infeasible-subset";
      case RejectReason::PeriodStretchRequired:
          return "period-stretch-required";
      case RejectReason::VerificationFailed:
          return "verification-failed";
    }
    return "unknown";
}

namespace {

/**
 * Exact equality: the bounds computation is a deterministic
 * function of (TFG, allocation, timing, period), so a surviving
 * message whose inputs did not change reproduces bit-identical
 * bounds; any drift means its windows moved and its subsets must
 * be re-solved.
 */
bool
boundsEqual(const MessageBounds &a, const MessageBounds &b)
{
    if (a.duration != b.duration || a.release != b.release ||
        a.deadline != b.deadline ||
        a.absoluteRelease != b.absoluteRelease)
        return false;
    if (a.windows.size() != b.windows.size())
        return false;
    for (std::size_t i = 0; i < a.windows.size(); ++i)
        if (a.windows[i].start != b.windows[i].start ||
            a.windows[i].end != b.windows[i].end)
            return false;
    return true;
}

TaskId
findTask(const TaskFlowGraph &g, const std::string &name)
{
    for (const Task &t : g.tasks())
        if (t.name == name)
            return t.id;
    return kInvalidTask;
}

bool
hasMessage(const TaskFlowGraph &g, const std::string &name)
{
    for (const Message &m : g.messages())
        if (m.name == name)
            return true;
    return false;
}

} // namespace

struct OnlineScheduler::SolveOutcome
{
    bool ok = false;
    RequestResult res;
    std::shared_ptr<PublishedState> next;
};

OnlineScheduler::OnlineScheduler(TaskFlowGraph g,
                                 std::unique_ptr<Topology> topo,
                                 TaskAllocation alloc,
                                 TimingModel tm,
                                 OnlineSchedulerConfig cfg)
    : g_(std::move(g)),
      topo_(std::move(topo)),
      alloc_(std::move(alloc)),
      tm_(tm),
      cfg_(std::move(cfg)),
      cache_(cfg_.sharedCache
                 ? cfg_.sharedCache
                 : std::make_shared<ScheduleCache>(
                       cfg_.cacheCapacity == 0
                           ? 1
                           : cfg_.cacheCapacity,
                       &engine::resolve(cfg_.compiler.ctx)
                            .metricsRegistry())),
      basisCache_(engine::resolve(cfg_.compiler.ctx).solver().warmStart
                      ? std::make_shared<lp::BasisCache>(
                            &engine::resolve(cfg_.compiler.ctx)
                                 .metricsRegistry())
                      : nullptr)
{
}

std::shared_ptr<const PublishedState>
OnlineScheduler::published() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
}

void
OnlineScheduler::publish(std::shared_ptr<PublishedState> next,
                         bool periodRequested)
{
    // Provenance is stamped here and only here, so it cannot depend
    // on which path (incremental, full compile, cache hit, repair)
    // served the request. A requested period clears degradedFrom;
    // otherwise the same period keeps the prior's, and a longer one
    // (a stretched repair) keeps the earliest healthy period. The
    // first publish (start, restore) carries its own.
    GlobalSchedule &omega = next->omega;
    if (const auto prior = published()) {
        const GlobalSchedule &p = prior->omega;
        omega.faultSpec = faultSpecAccum_;
        if (periodRequested)
            omega.degradedFrom = 0.0;
        else if (omega.period == p.period)
            omega.degradedFrom = p.degradedFrom;
        else
            omega.degradedFrom =
                p.degradedFrom > 0.0 ? p.degradedFrom : p.period;
    }
    next->version = ++version_;
    g_ = next->g;
    cfg_.compiler.inputPeriod = omega.period;
    std::lock_guard<std::mutex> lock(mu_);
    state_ = std::move(next);
}

RequestResult
OnlineScheduler::finish(RequestResult res, const char *what,
                        double startUs, bool admission)
{
    const double endUs = trace::Tracer::nowWallUs();
    res.latencyMs = (endUs - startUs) / 1000.0;
    const engine::EngineContext &ectx =
        engine::resolve(cfg_.compiler.ctx);
    metrics::Registry &reg = ectx.metricsRegistry();
    metrics::bump(reg, "online.requests");
    if (res.accepted) {
        metrics::bump(reg, "online.subsets_resolved",
             static_cast<std::uint64_t>(res.subsetsResolved));
        metrics::bump(reg, "online.subsets_copied",
             static_cast<std::uint64_t>(res.subsetsCopied));
        if (res.usedCache)
            metrics::bump(reg, "online.cache_served");
        if (res.usedIncremental)
            metrics::bump(reg, "online.incremental");
    } else {
        metrics::bump(reg, "online.rejected");
    }
    if (admission && SRSIM_METRICS_ENABLED())
        reg.histogram("online.admit_latency_us",
                      metrics::Histogram::timeBucketsUs())
            .add(endUs - startUs);
    if (SRSIM_TRACE_ENABLED()) {
        std::ostringstream oss;
        oss << what << " -> "
            << (res.accepted ? "accepted"
                             : rejectReasonName(res.reason));
        if (!res.accepted && !res.detail.empty())
            oss << ": " << res.detail;
        trace::onlineRequest(ectx.tracer(), oss.str(), endUs);
    }
    return res;
}

void
OnlineScheduler::classifyRejection(const SrCompileResult &compile,
                                   const TaskFlowGraph &g2,
                                   Time period, RequestResult &res)
{
    switch (compile.stage) {
      case SrFailureStage::InvalidInput:
          res.reason = RejectReason::InvalidRequest;
          break;
      case SrFailureStage::Fault:
          res.reason = RejectReason::NoRoute;
          break;
      case SrFailureStage::Utilization:
          res.reason = RejectReason::UtilizationCeiling;
          break;
      case SrFailureStage::Verification:
          res.reason = RejectReason::VerificationFailed;
          break;
      default:
          res.reason = RejectReason::InfeasibleSubset;
          break;
    }
    res.detail = compile.detail;

    // An infeasible workload is often schedulable at a longer
    // period; probing turns a bare "no" into "yes at period p".
    if (cfg_.probeStretch &&
        (res.reason == RejectReason::UtilizationCeiling ||
         res.reason == RejectReason::InfeasibleSubset)) {
        const engine::EngineContext &ectx =
            engine::resolve(cfg_.compiler.ctx);
        trace::ScopedPhase phase("online_stretch_probe",
                                 ectx.tracer(),
                                 ectx.metricsRegistry());
        const StretchedCompile sc = compileStretched(
            g2, *topo_, alloc_, tm_, cfg_.compiler, period, false);
        if (sc.compile.feasible) {
            res.reason = RejectReason::PeriodStretchRequired;
            res.requiredPeriod = sc.period;
            std::ostringstream oss;
            oss << res.detail << "; feasible at period " << sc.period
                << " us";
            res.detail = oss.str();
        }
    }
}

OnlineScheduler::SolveOutcome
OnlineScheduler::solveWorkload(const TaskFlowGraph &g2, Time period,
                               bool allowIncremental)
{
    SolveOutcome out;
    RequestResult &res = out.res;
    res.period = period;
    const engine::EngineContext &ectx =
        engine::resolve(cfg_.compiler.ctx);
    metrics::Registry &reg = ectx.metricsRegistry();

    // Time bounds and the interval decomposition are route-free
    // (Sec. 4 / Sec. 5.1): recomputing them for the new workload is
    // cheap and exact.
    TimeBounds bounds2;
    try {
        bounds2 = computeTimeBounds(g2, alloc_, tm_, period);
    } catch (const FatalError &e) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = e.what();
        return out;
    }

    SrCompilerConfig ccfg = cfg_.compiler;
    ccfg.inputPeriod = period;
    ccfg.verify = true;

    // Mirror the batch compiler's packet-grid gate so the
    // incremental path can never accept a problem the compiler
    // would reject as InvalidInput.
    const Time ptime = effectivePacketTime(ccfg, tm_);
    if (ptime > 0.0) {
        for (const MessageBounds &b : bounds2.messages) {
            const double q = b.duration / ptime;
            if (std::abs(q - std::round(q)) > 1e-6) {
                std::ostringstream oss;
                oss << "message duration " << b.duration
                    << " us is not a whole number of packets";
                res.reason = RejectReason::InvalidRequest;
                res.detail = oss.str();
                return out;
            }
        }
    }

    // Degenerate: all messages local, nothing to schedule.
    if (bounds2.messages.empty()) {
        auto next = std::make_shared<PublishedState>();
        next->g = g2;
        next->bounds = std::move(bounds2);
        next->omega.period = period;
        next->verification.ok = true;
        out.ok = true;
        out.next = std::move(next);
        return out;
    }

    // Content-addressed cache: churny workloads revisit earlier
    // states (admit X, remove X, admit X again); a revisit is a
    // lookup, not a re-solve. Entries are only ever inserted after
    // verification, so a hit republishes a certified schedule.
    std::string key;
    if (cfg_.cacheCapacity > 0) {
        key = canonicalWorkloadKey(g2, *topo_, alloc_, tm_, ccfg);
        if (const auto e = cache_->lookup(key)) {
            metrics::bump(reg, "online.cache_hits");
            auto next = std::make_shared<PublishedState>();
            next->g = g2;
            next->bounds = std::move(bounds2);
            next->intervals.emplace(next->bounds);
            // publish() stamps this session's own provenance: on a
            // shared cache the entry may have been compiled by a
            // session whose fault-spec string or stretch history
            // differs even though the canonical key, and hence the
            // schedule, is identical.
            next->omega = e->omega;
            next->verification.ok = true;
            next->numSubsets = e->numSubsets;
            next->peakUtilization = e->peakUtilization;
            res.usedCache = true;
            res.subsetsTotal = e->numSubsets;
            res.subsetsCopied = e->numSubsets;
            res.peakUtilization = e->peakUtilization;
            out.ok = true;
            out.next = std::move(next);
            return out;
        }
        metrics::bump(reg, "online.cache_misses");
    }

    // Incremental path: keep every surviving message's route and
    // segments, route only the new (or fault-dirtied) messages,
    // re-solve only the maximal related subsets they touch.
    const std::shared_ptr<const PublishedState> prior = published();
    if (allowIncremental && prior &&
        period == prior->omega.period) {
        trace::ScopedPhase phase("online_incremental",
                                 ectx.tracer(),
                                 ectx.metricsRegistry());
        IntervalSet ivs2(bounds2);

        std::unordered_map<std::string, std::size_t> oldIdx;
        for (std::size_t j = 0; j < prior->bounds.messages.size();
             ++j)
            oldIdx[prior->g
                       .message(prior->bounds.messages[j].msg)
                       .name] = j;

        // The prior schedule re-indexed to the new workload.
        const std::size_t n2 = bounds2.messages.size();
        GlobalSchedule reindexed;
        reindexed.period = period;
        reindexed.paths.paths.resize(n2);
        reindexed.segments.resize(n2);
        std::vector<std::size_t> moved, routeIdx;
        for (std::size_t i = 0; i < n2; ++i) {
            const MessageBounds &nb = bounds2.messages[i];
            const auto it =
                oldIdx.find(g2.message(nb.msg).name);
            if (it == oldIdx.end()) {
                // Brand new: needs a route and a fresh solve.
                routeIdx.push_back(i);
                continue;
            }
            const std::size_t j = it->second;
            const Path &path = prior->omega.paths.pathFor(j);
            reindexed.paths.paths[i] = path;
            reindexed.segments[i] = prior->omega.segments[j];
            if (!topo_->pathAlive(path) ||
                topo_->crossesDerated(path)) {
                // Route crosses a failed/derated resource:
                // reroute it like fault repair would.
                routeIdx.push_back(i);
            } else if (!boundsEqual(
                           nb, prior->bounds.messages[j])) {
                // Same route, moved windows: subsets re-solve.
                moved.push_back(i);
            }
        }

        // Anything short of a verified schedule (no route, a greedy
        // ceiling bust, an infeasible subset) leaves the verdict to
        // the full compiler below, so accept/reject matches a
        // from-scratch compile.
        IncrementalSolveResult inc = resolveIncrementally(
            g2, *topo_, alloc_, bounds2, ivs2, std::move(reindexed),
            moved, routeIdx, ccfg, tm_, basisCache_.get(), "online");
        if (inc.feasible) {
            auto next = std::make_shared<PublishedState>();
            next->g = g2;
            next->bounds = std::move(bounds2);
            next->intervals = std::move(ivs2);
            next->omega = std::move(inc.omega);
            next->verification = std::move(inc.verification);
            next->numSubsets = inc.subsetsTotal;
            next->peakUtilization = inc.peakUtilization;
            res.usedIncremental = true;
            res.subsetsTotal = inc.subsetsTotal;
            res.subsetsResolved = inc.subsetsResolved;
            res.subsetsCopied = inc.subsetsCopied;
            res.peakUtilization = next->peakUtilization;
            if (cfg_.cacheCapacity > 0)
                cache_->insert(key, {next->omega, next->numSubsets,
                                     next->peakUtilization});
            out.ok = true;
            out.next = std::move(next);
            return out;
        }
    }

    // Full compile: the fallback and the source of truth for
    // rejection classification.
    trace::ScopedPhase phase("online_full_compile", ectx.tracer(),
                             ectx.metricsRegistry());
    metrics::bump(reg, "online.full_compiles");
    SrCompileResult comp =
        compileScheduledRouting(g2, *topo_, alloc_, tm_, ccfg);
    if (!comp.feasible) {
        classifyRejection(comp, g2, period, res);
        return out;
    }

    auto next = std::make_shared<PublishedState>();
    next->g = g2;
    next->bounds = std::move(comp.bounds);
    if (comp.intervals)
        next->intervals = std::move(*comp.intervals);
    next->omega = std::move(comp.omega);
    next->verification = comp.verification;
    next->numSubsets = comp.numSubsets;
    next->peakUtilization = comp.utilization.peak;
    res.usedFullCompile = true;
    res.subsetsTotal = comp.numSubsets;
    res.subsetsResolved = comp.numSubsets;
    res.peakUtilization = next->peakUtilization;
    if (cfg_.cacheCapacity > 0)
        cache_->insert(key, {next->omega, next->numSubsets,
                             next->peakUtilization});
    out.ok = true;
    out.next = std::move(next);
    return out;
}

RequestResult
OnlineScheduler::start()
{
    const double t0 = trace::Tracer::nowWallUs();
    RequestResult res;
    res.period = cfg_.compiler.inputPeriod;
    if (started()) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = "service already started";
        return finish(res, "start", t0, false);
    }
    SolveOutcome out =
        solveWorkload(g_, cfg_.compiler.inputPeriod, false);
    res = out.res;
    if (out.ok) {
        publish(std::move(out.next), false);
        res.accepted = true;
    }
    return finish(res, "start", t0, false);
}

RequestResult
OnlineScheduler::restore(const GlobalSchedule &omega,
                         const std::string &faultSpecAccum)
{
    const double t0 = trace::Tracer::nowWallUs();
    RequestResult res;
    res.period = omega.period;
    // A rejected restore leaves the fabric as it was handed over,
    // faults applied before construction included.
    const Topology::FaultMask before = topo_->faultMask();
    const auto reject = [&](RejectReason r, std::string detail) {
        topo_->setFaultMask(before);
        res.reason = r;
        res.detail = std::move(detail);
        return finish(res, "restore", t0, false);
    };
    if (started())
        return reject(RejectReason::InvalidRequest,
                      "service already started");
    if (!(omega.period > 0.0))
        return reject(RejectReason::InvalidRequest,
                      "restored schedule has no period");

    // Re-degrade the fabric exactly as the accumulated fault
    // history left it; the snapshot's schedule was compiled against
    // that mask, so verification below must see it too.
    if (!faultSpecAccum.empty()) {
        try {
            fault::applyFaultSpec(faultSpecAccum, *topo_);
        } catch (const FatalError &e) {
            return reject(RejectReason::InvalidRequest, e.what());
        }
    }

    TimeBounds bounds;
    try {
        bounds = computeTimeBounds(g_, alloc_, tm_, omega.period);
    } catch (const FatalError &e) {
        return reject(RejectReason::InvalidRequest, e.what());
    }

    auto next = std::make_shared<PublishedState>();
    next->g = g_;
    next->omega = omega;
    if (bounds.messages.empty()) {
        // Degenerate workload (no network messages): nothing to
        // verify, the schedule must be empty too.
        if (!omega.segments.empty())
            return reject(RejectReason::VerificationFailed,
                          "restored schedule has segments but the "
                          "workload has no network messages");
        next->bounds = std::move(bounds);
        next->verification.ok = true;
    } else {
        const VerifyResult ver =
            verifySchedule(g_, *topo_, alloc_, bounds, omega);
        if (!ver.ok)
            return reject(RejectReason::VerificationFailed,
                          ver.violations.empty()
                              ? "restored schedule failed "
                                "verification"
                              : ver.violations.front());
        IntervalSet ivs(bounds);
        next->numSubsets =
            computeMaximalSubsets(bounds, ivs, omega.paths).size();
        next->peakUtilization =
            UtilizationAnalyzer(bounds, ivs, *topo_)
                .analyze(omega.paths)
                .peak;
        next->bounds = std::move(bounds);
        next->intervals = std::move(ivs);
        next->verification = ver;
    }
    res.subsetsTotal = next->numSubsets;
    res.subsetsCopied = next->numSubsets;
    res.peakUtilization = next->peakUtilization;
    faultSpecAccum_ = faultSpecAccum;
    publish(std::move(next), false);
    res.accepted = true;
    return finish(res, "restore", t0, false);
}

RequestResult
OnlineScheduler::process(const Request &r)
{
    switch (r.kind) {
      case RequestKind::AdmitMessage: return admitBatch(r.admits);
      case RequestKind::RemoveMessage: return remove(r.name);
      case RequestKind::UpdatePeriod: return updatePeriod(r.period);
      case RequestKind::InjectFault: return injectFault(r.faultSpec);
    }
    RequestResult res;
    res.reason = RejectReason::InvalidRequest;
    res.detail = "unknown request kind";
    return res;
}

RequestResult
OnlineScheduler::admit(const AdmitSpec &spec)
{
    return admitBatch({spec});
}

RequestResult
OnlineScheduler::admitBatch(const std::vector<AdmitSpec> &specs)
{
    const double t0 = trace::Tracer::nowWallUs();
    const char *what = specs.size() > 1 ? "admit-batch" : "admit";
    RequestResult res;
    res.period = cfg_.compiler.inputPeriod;
    const auto reject = [&](std::string detail) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = std::move(detail);
        return finish(res, what, t0, true);
    };

    if (!started())
        return reject("service not started");
    if (specs.empty())
        return reject("empty admission batch");
    std::unordered_set<std::string> batchNames;
    for (const AdmitSpec &s : specs) {
        if (s.name.empty())
            return reject("message name is empty");
        if (hasMessage(g_, s.name))
            return reject("message '" + s.name +
                          "' already exists");
        if (!batchNames.insert(s.name).second)
            return reject("duplicate message '" + s.name +
                          "' in batch");
        if (findTask(g_, s.src) == kInvalidTask)
            return reject("unknown source task '" + s.src + "'");
        if (findTask(g_, s.dst) == kInvalidTask)
            return reject("unknown destination task '" + s.dst +
                          "'");
        if (s.src == s.dst)
            return reject("message '" + s.name +
                          "' has identical source and "
                          "destination task");
        if (!(s.bytes > 0.0))
            return reject("message '" + s.name +
                          "' must have positive bytes");
    }

    TaskFlowGraph g2 = g_;
    for (const AdmitSpec &s : specs)
        g2.addMessage(s.name, findTask(g2, s.src),
                      findTask(g2, s.dst), s.bytes);

    SolveOutcome out =
        solveWorkload(g2, cfg_.compiler.inputPeriod, true);
    res = out.res;
    if (out.ok) {
        publish(std::move(out.next), false);
        res.accepted = true;
        metrics::Registry &reg =
            engine::resolve(cfg_.compiler.ctx).metricsRegistry();
        metrics::bump(reg, "online.admitted");
        metrics::bump(reg, "online.messages_admitted",
             static_cast<std::uint64_t>(specs.size()));
    }
    return finish(res, what, t0, true);
}

RequestResult
OnlineScheduler::remove(const std::string &msgName)
{
    const double t0 = trace::Tracer::nowWallUs();
    RequestResult res;
    res.period = cfg_.compiler.inputPeriod;
    if (!started()) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = "service not started";
        return finish(res, "remove", t0, false);
    }
    if (!hasMessage(g_, msgName)) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = "no message named '" + msgName + "'";
        return finish(res, "remove", t0, false);
    }

    // Rebuild without the message; task ids are preserved because
    // addTask assigns them sequentially.
    TaskFlowGraph g2;
    for (const Task &t : g_.tasks())
        g2.addTask(t.name, t.operations);
    for (const Message &m : g_.messages())
        if (m.name != msgName)
            g2.addMessage(m.name, m.src, m.dst, m.bytes);

    SolveOutcome out =
        solveWorkload(g2, cfg_.compiler.inputPeriod, true);
    res = out.res;
    if (out.ok) {
        publish(std::move(out.next), false);
        res.accepted = true;
        metrics::bump(engine::resolve(cfg_.compiler.ctx).metricsRegistry(),
             "online.removed");
    }
    return finish(res, "remove", t0, false);
}

RequestResult
OnlineScheduler::updatePeriod(Time period)
{
    const double t0 = trace::Tracer::nowWallUs();
    RequestResult res;
    res.period = cfg_.compiler.inputPeriod;
    if (!started()) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = "service not started";
        return finish(res, "period", t0, false);
    }
    if (!(period > 0.0)) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = "period must be positive";
        return finish(res, "period", t0, false);
    }

    // A period change moves every message's windows, so there is
    // nothing to reuse: this is a full compile (or a cache hit).
    SolveOutcome out = solveWorkload(g_, period, false);
    res = out.res;
    if (out.ok) {
        publish(std::move(out.next), true);
        res.accepted = true;
        res.period = period;
        metrics::bump(engine::resolve(cfg_.compiler.ctx).metricsRegistry(),
             "online.period_updates");
    } else {
        res.period = cfg_.compiler.inputPeriod;
    }
    return finish(res, "period", t0, false);
}

RequestResult
OnlineScheduler::injectFault(const std::string &spec)
{
    const double t0 = trace::Tracer::nowWallUs();
    RequestResult res;
    res.period = cfg_.compiler.inputPeriod;
    const auto invalid = [&](std::string detail) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = std::move(detail);
        return finish(res, "fault", t0, false);
    };
    if (!started())
        return invalid("service not started");

    fault::FaultSpec fs;
    try {
        fs = fault::parseFaultSpec(spec);
    } catch (const FatalError &e) {
        return invalid(e.what());
    }
    for (const fault::FaultEvent &ev : fs.events)
        if (ev.timed())
            return invalid(
                "timed fault events are not supported online");

    // InjectFault is transactional: apply the new mask, repair,
    // and on failure put the saved mask back so the published
    // schedule stays valid for the hardware it describes (faults
    // the fabric carried before the service was built included).
    const Topology::FaultMask before = topo_->faultMask();
    const auto restoreFabric = [&]() { topo_->setFaultMask(before); };
    try {
        fault::applyFaultSpec(spec, *topo_);
    } catch (const FatalError &e) {
        restoreFabric();
        return invalid(e.what());
    }

    const std::shared_ptr<const PublishedState> prior = published();
    SrCompileResult healthy;
    healthy.feasible = true;
    healthy.bounds = prior->bounds;
    if (prior->intervals)
        healthy.intervals.emplace(*prior->intervals);
    healthy.paths = prior->omega.paths;
    healthy.omega = prior->omega;
    healthy.verification = prior->verification;
    healthy.numSubsets = prior->numSubsets;

    const std::string accum2 =
        faultSpecAccum_.empty() ? spec
                                : faultSpecAccum_ + ";" + spec;
    const fault::RepairResult rep = fault::repairSchedule(
        prior->g, *topo_, alloc_, tm_, cfg_.compiler, healthy, accum2);
    res.subsetsTotal = rep.subsetsTotal;
    res.subsetsResolved = rep.subsetsResolved;
    res.subsetsCopied = rep.subsetsReused;
    res.usedIncremental = rep.usedIncremental;
    res.usedFullCompile = rep.usedFullRecompile;

    if (!rep.feasible) {
        restoreFabric();
        res.reason = RejectReason::InfeasibleSubset;
        res.detail = rep.detail.empty()
                         ? "repair found no feasible schedule"
                         : rep.detail;
        return finish(res, "fault", t0, false);
    }

    faultSpecAccum_ = accum2;
    auto next = std::make_shared<PublishedState>();
    // Shed messages leave the workload for good.
    next->g = rep.shedMessages.empty() ? prior->g : rep.reduced;
    if (rep.usedIncremental) {
        next->bounds = prior->bounds;
        if (prior->intervals)
            next->intervals.emplace(*prior->intervals);
        next->numSubsets = prior->numSubsets;
    } else {
        next->bounds = rep.compile.bounds;
        if (rep.compile.intervals)
            next->intervals.emplace(*rep.compile.intervals);
        next->numSubsets = rep.compile.numSubsets;
    }
    next->omega = rep.omega;
    next->verification = rep.verification;
    if (next->intervals) {
        UtilizationAnalyzer ua(next->bounds, *next->intervals,
                               *topo_);
        next->peakUtilization =
            ua.analyze(next->omega.paths).peak;
    }
    res.peakUtilization = next->peakUtilization;
    res.period = rep.degradedPeriod;

    publish(std::move(next), false);
    res.accepted = true;
    metrics::bump(engine::resolve(cfg_.compiler.ctx).metricsRegistry(),
         "online.faults_injected");
    return finish(res, "fault", t0, false);
}

} // namespace online
} // namespace srsim
