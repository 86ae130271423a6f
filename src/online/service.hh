/**
 * @file
 * The online scheduling service: a long-lived owner of one compiled
 * schedule that absorbs workload churn incrementally.
 *
 * Where the batch compiler answers "is this workload schedulable?",
 * the service answers it *again and again* as the workload drifts:
 * admit a message, remove one, change the period, lose a link. The
 * expensive path — a full Fig. 3 recompilation — is the fallback,
 * not the norm:
 *
 *  - admission recomputes time bounds and the interval decomposition
 *    (cheap, route-independent), keeps every surviving message's
 *    route, greedily routes only the new messages, and re-solves
 *    only the maximal related subsets they touch; clean subsets keep
 *    their segments verbatim (the same invariant fault repair uses);
 *  - a content-addressed cache short-circuits revisited workload
 *    states (admit X, remove X, admit X again) to a lookup;
 *  - every candidate schedule is re-verified before the atomic
 *    publish — a published schedule is always verifier-certified;
 *  - rejections are structured: no route, utilization ceiling,
 *    infeasible subset, or "feasible at period p" (stretch probe).
 *
 * Thread-safety: request processing is externally serialized (one
 * writer), but published() may be called concurrently from any
 * thread and returns an immutable snapshot.
 */

#ifndef SRSIM_ONLINE_SERVICE_HH_
#define SRSIM_ONLINE_SERVICE_HH_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/sr_compiler.hh"
#include "mapping/allocation.hh"
#include "online/cache.hh"
#include "online/requests.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/topology.hh"

namespace srsim {
namespace online {

/** Service policy knobs. */
struct OnlineSchedulerConfig
{
    /** Compiler configuration (inputPeriod = initial period). */
    SrCompilerConfig compiler;
    /** Schedule cache capacity (entries); 0 disables the cache. */
    std::size_t cacheCapacity = 64;
    /**
     * When set, use this (thread-safe) cache instead of a private
     * one — the scheduling daemon shares one cache across sessions.
     * cacheCapacity still gates per-service use: 0 disables lookups
     * for this service even on a shared cache.
     */
    std::shared_ptr<ScheduleCache> sharedCache;
    /**
     * Probe the kStretchFactors periods on rejection so the caller
     * learns the smallest feasible one
     * (RejectReason::PeriodStretchRequired).
     */
    bool probeStretch = true;
};

/** One immutable published snapshot of the service's schedule. */
struct PublishedState
{
    /** Monotonic publish counter (1 = initial compile). */
    std::uint64_t version = 0;
    /** The workload this schedule serves. */
    TaskFlowGraph g;
    TimeBounds bounds;
    std::optional<IntervalSet> intervals;
    GlobalSchedule omega;
    /** Always ok — rejected candidates are never published. */
    VerifyResult verification;
    std::size_t numSubsets = 0;
    double peakUtilization = 0.0;
};

/**
 * The long-lived scheduling service.
 *
 * Construct with the initial workload, call start() to compile and
 * publish the first schedule, then feed requests through process()
 * (or the typed admit()/remove()/updatePeriod()/injectFault()).
 */
class OnlineScheduler
{
  public:
    OnlineScheduler(TaskFlowGraph g, std::unique_ptr<Topology> topo,
                    TaskAllocation alloc, TimingModel tm,
                    OnlineSchedulerConfig cfg = {});

    /** Compile + publish the initial schedule. */
    RequestResult start();

    /**
     * Publish a previously compiled schedule without recompiling:
     * re-apply the accumulated fault spec to the fabric, recompute
     * the (route-free) bounds and intervals for the constructed
     * workload, and re-verify `omega` against them. Used by crash
     * recovery to restore a snapshot; the caller then replays the
     * WAL suffix through process(). Rejects (VerificationFailed /
     * InvalidRequest) when the schedule does not certify against
     * this workload — recovery then falls back to a full replay.
     * Only valid before start(); on success the service behaves as
     * if it had compiled and published `omega` itself (version 1).
     */
    RequestResult restore(const GlobalSchedule &omega,
                          const std::string &faultSpecAccum);

    /** Dispatch on Request::kind. */
    RequestResult process(const Request &r);

    RequestResult admit(const AdmitSpec &spec);
    /** Admit a coalesced batch in one re-solve (all or nothing). */
    RequestResult admitBatch(const std::vector<AdmitSpec> &specs);
    RequestResult remove(const std::string &msgName);
    RequestResult updatePeriod(Time period);
    /** Degrade the fabric per `spec` and repair the schedule. */
    RequestResult injectFault(const std::string &spec);

    /** The current published snapshot (never null after start()). */
    std::shared_ptr<const PublishedState> published() const;

    bool started() const { return published() != nullptr; }

    const ScheduleCache &cache() const { return *cache_; }
    const Topology &topology() const { return *topo_; }
    const TaskAllocation &allocation() const { return alloc_; }
    const TimingModel &timing() const { return tm_; }
    /** Current input period (us). */
    Time currentPeriod() const { return cfg_.compiler.inputPeriod; }

  private:
    struct SolveOutcome;

    RequestResult finish(RequestResult res, const char *what,
                         double startUs, bool admission);
    SolveOutcome solveWorkload(const TaskFlowGraph &g2, Time period,
                               bool allowIncremental);
    void publish(std::shared_ptr<PublishedState> next,
                 bool periodRequested);
    void classifyRejection(const SrCompileResult &compile,
                           const TaskFlowGraph &g2, Time period,
                           RequestResult &res);

    TaskFlowGraph g_;
    std::unique_ptr<Topology> topo_;
    TaskAllocation alloc_;
    TimingModel tm_;
    OnlineSchedulerConfig cfg_;
    std::shared_ptr<ScheduleCache> cache_;
    /**
     * Per-subset LP basis cache for warm-started re-solves: hot
     * admission/removal churn re-solves recurring subsets in a
     * handful of dual pivots. Null when the context's
     * SolverConfig::warmStart is off. A warm solve that cannot be
     * completed falls back to the deterministic cold path; one that
     * completes may end on a different optimal vertex than a cold
     * solve, and so publish different (equally verified) bytes.
     */
    std::shared_ptr<lp::BasisCache> basisCache_;
    /** Accumulated static fault specs applied so far (';'-joined). */
    std::string faultSpecAccum_;

    mutable std::mutex mu_;
    std::shared_ptr<const PublishedState> state_;
    std::uint64_t version_ = 0;
};

} // namespace online
} // namespace srsim

#endif // SRSIM_ONLINE_SERVICE_HH_
