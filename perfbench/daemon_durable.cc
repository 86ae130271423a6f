/**
 * @file
 * daemon_durable: one SchedulingDaemon with a state directory (WAL
 * group-committed every kWalSyncEvery records, snapshots every
 * kSnapshotEvery accepted requests, shared schedule cache) serving
 * kSessions sessions of the fig10 setup. Open loop: arrivals on a
 * fixed-rate schedule go round-robin over the sessions, and each
 * session replays its own seeded churn stream (online_churn's stream
 * without its pair, period and oversized episodes).
 *
 * Every latency runs from the request's *due* time, so a stall shows
 * in the requests behind it; the generator's own lateness is reported.
 * After an untimed warm-up cycle the run is a sequence of rounds, each
 * a base window (one churn cycle per session at kBaseRate), a
 * saturation burst, timed reopens of a small closed state directory
 * and a timed set-up of a fresh daemon. Every timed figure is sampled
 * in every round and reported as the median over the samples, so a
 * stall of the host in one moment moves one sample, not the result.
 * Finally the daemon shuts down and a new daemon reopens its state
 * directory: recovery must replay without a rejection and every
 * session must come back byte-identical to the last schedule it
 * published.
 *
 * Thread budget: the generator thread plus kWorkers daemon worker, both
 * on one CPU (see CpuRotation); session compiles run inline on the
 * worker (the root context's pool has size one).
 */

#include <algorithm>
#include <filesystem>
#include <future>
#include <thread>

#ifdef __linux__
#include <sched.h>
#include <sys/prctl.h>
#endif

#include "fig10.hh"
#include "server/daemon.hh"

namespace srbench {

namespace {

using namespace srsim;

constexpr int kSessions = 4;
/**
 * Touch, revisit and invalid episodes only: every request is a cheap
 * cache or copy path or a single incremental admit on the base
 * workload, so the worker keeps up at kBaseRate without queueing
 * behind multi-message re-solves or full recompiles.
 */
const ChurnStream::EpisodeMix kMix = {6, 10, 0, 3, 0, false};
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kSnapshotEvery = 2000;
/**
 * Group commit. The daemon's default is an fsync per record, which puts
 * the host's disk on every request; see NOTES.md for why the benchmark
 * does not measure that configuration.
 */
constexpr std::size_t kWalSyncEvery = 32;
/** Arrival rate of a base window (requests per second). */
constexpr double kBaseRate = 100.0;
/** Arrival rate of a saturation burst, far above what the daemon serves. */
constexpr double kBurstRate = 5000.0;
/** Whole churn cycles (of every session) in one saturation burst. */
constexpr std::size_t kBurstCycles = 2;
/** Timed reopens of the small closed state per round. */
constexpr int kReopensPerRound = 3;
/**
 * Rounds that always run: the first is the fingerprint window, and the
 * medians need a few samples even under a short --seconds.
 */
constexpr std::size_t kMinRounds = 3;
/** How often the generator looks for out-of-order completions. */
constexpr auto kPoll = std::chrono::microseconds(200);

/**
 * Keeps the generator and the daemon's worker on one CPU, and moves
 * them to the next CPU in every round. A virtual CPU that goes idle
 * between requests is descheduled by the host, and waking it again
 * took from 0.1 ms to several ms, varying with the host's load: with
 * the threads free to use idle CPUs, a third to a half of the base
 * latency was such wake-ups. On one CPU that the generator keeps busy
 * they are gone. But the host's CPUs change speed, and runs that
 * stayed on one CPU fell into a fast and a slow mode 1.4x apart;
 * moving round by round, a run's medians span all of the CPUs. See
 * NOTES.md.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
#ifdef __linux__
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
        const auto here =
            std::find(cpus_.begin(), cpus_.end(), sched_getcpu());
        at_ = here == cpus_.end()
                  ? 0
                  : static_cast<std::size_t>(here - cpus_.begin());
        pin();
        // Timed waits end on time, not up to 50 us (the default slack)
        // late.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
    }

    /** Move every thread of the process to the next CPU. */
    void
    next()
    {
        if (cpus_.empty())
            return;
        at_ = (at_ + 1) % cpus_.size();
        pin();
    }

  private:
    void
    pin() const
    {
#ifdef __linux__
        if (cpus_.empty())
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[at_], &set);
        // Threads started later inherit the calling thread's CPU.
        std::error_code ec;
        for (const auto &task :
             std::filesystem::directory_iterator("/proc/self/task", ec))
            sched_setaffinity(std::stoi(task.path().filename().string()),
                              sizeof(set), &set);
        sched_setaffinity(0, sizeof(set), &set);
#endif
    }

    std::vector<int> cpus_;
    std::size_t at_ = 0;
};

std::string
sessionName(int k)
{
    return "s" + std::to_string(k);
}

server::SessionConfig
sessionConfig(int k, Time period)
{
    server::SessionConfig sc;
    sc.name = sessionName(k);
    sc.topo = kFig10Topo;
    sc.tfg = "dvb";
    sc.period = period;
    sc.bandwidth = 128.0;
    sc.alloc = "rr:13";
    return sc;
}

server::DaemonConfig
daemonConfig(const std::string &stateDir, const engine::EngineContext *ctx)
{
    server::DaemonConfig cfg;
    // A pool of kWorkers + 1 runs kWorkers worker threads.
    cfg.workers = kWorkers + 1;
    cfg.queueCap = 100000;
    cfg.stateDir = stateDir;
    cfg.snapshotEvery = kSnapshotEvery;
    cfg.walSyncEvery = kWalSyncEvery;
    cfg.ctx = ctx;
    return cfg;
}

/** One in-flight request of the open loop. */
struct InFlight
{
    StreamRequest req;
    Clock::time_point due, submitted;
    std::future<server::DaemonResponse> fut;
};

/** What one open-loop step measured. */
struct Step
{
    std::vector<double> latencyMs, lagMs, queueMs, serviceMs, peakU;
    /** Pick-up by a worker to completion, summed over the requests. */
    double heldMs = 0.0;
    std::size_t depthMax = 0;
    std::uint64_t rejected = 0;
    double submitMaxMs = 0.0;
    /** First due time to last completion. */
    double wallS = 0.0;

    /** Append another step's samples. */
    void
    merge(const Step &o)
    {
        for (auto [to, from] :
             {std::pair{&latencyMs, &o.latencyMs}, {&lagMs, &o.lagMs},
              {&queueMs, &o.queueMs}, {&serviceMs, &o.serviceMs},
              {&peakU, &o.peakU}})
            to->insert(to->end(), from->begin(), from->end());
        heldMs += o.heldMs;
        depthMax = std::max(depthMax, o.depthMax);
        rejected += o.rejected;
        submitMaxMs = std::max(submitMaxMs, o.submitMaxMs);
        wallS += o.wallS;
    }
};

/**
 * Submit `count` requests at `rate`, round-robin over the sessions, and
 * wait for all of them. With `timeEach` every completion is seen within
 * kPoll, so the step's per-request figures hold; without it only the
 * step's wall time does, and the generator wakes the worker's CPU less.
 */
Step
runStep(server::SchedulingDaemon &d, std::vector<ChurnStream> &streams,
        double rate, std::size_t count, bool timeEach, SpanLog &log,
        std::uint64_t &requestId, Report &rep)
{
    Step st;
    std::vector<InFlight> pending;
    const auto gap = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    const Clock::time_point start = Clock::now();
    std::size_t sent = 0;

    const auto complete = [&](InFlight &f, Clock::time_point now) {
        const server::DaemonResponse r = f.fut.get();
        ++rep.attempted;
        st.latencyMs.push_back(
            std::chrono::duration<double, std::milli>(now - f.due).count());
        st.queueMs.push_back(r.queueMs);
        st.serviceMs.push_back(r.result.latencyMs);
        st.heldMs += std::chrono::duration<double, std::milli>(
                         now - f.submitted)
                         .count() -
                     r.queueMs;
        if (r.outcome != server::DaemonOutcome::Ok) {
            rep.fail("request " + std::to_string(r.id) + ": " +
                     server::daemonOutcomeName(r.outcome));
            return;
        }
        if (r.result.accepted)
            st.peakU.push_back(r.result.peakUtilization);
        else
            ++st.rejected;
        if (r.result.accepted != f.req.expectAccepted)
            rep.fail(std::string(kindName(f.req.kind)) + " request " +
                     std::to_string(r.id) +
                     (r.result.accepted ? " accepted, expected a rejection"
                                        : " rejected: " + r.result.detail));
    };

    for (;;) {
        const Clock::time_point now = Clock::now();
        const Clock::time_point due = start + gap * sent;
        if (sent < count && now >= due) {
            const int session = static_cast<int>(requestId % kSessions);
            InFlight f;
            f.due = due;
            f.req = streams[static_cast<std::size_t>(session)].next();
            st.lagMs.push_back(
                std::chrono::duration<double, std::milli>(now - due).count());
            f.submitted = Clock::now();
            {
                SpanLog::Scope sp(log, "server.submit", requestId++);
                f.fut = d.submit(sessionName(session), f.req.req);
            }
            st.submitMaxMs = std::max(st.submitMaxMs, msSince(now));
            pending.push_back(std::move(f));
            ++sent;
            st.depthMax = std::max(st.depthMax, d.queueDepth());
            continue;
        }
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].fut.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                complete(pending[i], now);
                pending.erase(pending.begin() + static_cast<long>(i));
            } else {
                ++i;
            }
        }
        if (pending.empty() && sent == count)
            break;
        // While nothing is pending the worker is idle and the generator
        // keeps the CPU busy. Otherwise it blocks on the oldest request
        // (its completion wakes the generator at once) until the next
        // arrival, or, when each request is timed, for at most kPoll to
        // catch completions out of order.
        if (pending.empty())
            std::this_thread::yield();
        else if (timeEach)
            pending.front().fut.wait_until(
                sent < count ? std::min(due, now + kPoll) : now + kPoll);
        else if (sent < count)
            pending.front().fut.wait_until(due);
        else
            pending.front().fut.wait();
    }
    st.wallS = std::chrono::duration<double>(Clock::now() - start).count();
    return st;
}

/** Open the daemon and its sessions on a fresh state directory. */
std::unique_ptr<server::SchedulingDaemon>
openDaemon(const std::string &stateDir, const engine::EngineContext *ctx,
           Time period, SpanLog &log)
{
    std::filesystem::remove_all(stateDir);
    std::filesystem::create_directories(stateDir);
    auto d = std::make_unique<server::SchedulingDaemon>(
        daemonConfig(stateDir, ctx));
    for (int k = 0; k < kSessions; ++k) {
        SpanLog::Scope sp(log, "server.open", static_cast<std::uint64_t>(k));
        const server::DaemonResponse r = d->open(sessionConfig(k, period));
        if (r.outcome != server::DaemonOutcome::Ok || !r.result.accepted)
            throw std::runtime_error("session open failed: " + r.detail +
                                     r.result.detail);
    }
    return d;
}

/**
 * Copy the closed state directory `closed` to `dir` and reopen it as a
 * new daemon; `seconds` gets the time from construction until every
 * session serves (recovery runs in the constructor).
 */
std::unique_ptr<server::SchedulingDaemon>
reopen(const std::string &closed, const std::string &dir,
       const engine::EngineContext *ctx, SpanLog &log, double &seconds)
{
    std::filesystem::remove_all(dir);
    std::filesystem::copy(closed, dir,
                          std::filesystem::copy_options::recursive);
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<server::SchedulingDaemon> re;
    {
        SpanLog::Scope sp(log, "server.recovery", 0);
        re = std::make_unique<server::SchedulingDaemon>(
            daemonConfig(dir, ctx));
    }
    seconds = msSince(t0) / 1000.0;
    return re;
}

/** The measured daemon's WAL figures at one moment. */
struct WalSample
{
    std::uint64_t records = 0, fsyncs = 0, snapshots = 0;
    std::vector<std::uint64_t> fsyncBuckets;

    static WalSample
    of(const server::SchedulingDaemon &d, const metrics::Histogram &h)
    {
        WalSample w;
        w.records = d.walRecords();
        w.fsyncs = d.walFsyncs();
        w.snapshots = d.snapshotsWritten();
        for (std::size_t i = 0; i <= h.bounds().size(); ++i)
            w.fsyncBuckets.push_back(h.bucketCount(i));
        return w;
    }
};

/**
 * Percentile of the samples counted in `counts` (bucket counts over
 * `bounds`, the last bucket the overflow), interpolated inside the
 * bucket as metrics::Histogram::percentile does.
 */
double
bucketPercentile(const std::vector<double> &bounds,
                 const std::vector<std::uint64_t> &counts, double p)
{
    std::uint64_t n = 0;
    for (std::uint64_t c : counts)
        n += c;
    if (n == 0)
        return 0.0;
    const double target = p / 100.0 * static_cast<double>(n);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        if (static_cast<double>(seen + counts[i]) >= target) {
            const double lo = i == 0 ? 0.0 : bounds[i - 1];
            const double hi = i < bounds.size() ? bounds[i] : bounds.back();
            const double frac = (target - static_cast<double>(seen)) /
                                static_cast<double>(counts[i]);
            return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
        }
        seen += counts[i];
    }
    return bounds.back();
}

} // namespace

Report
runDaemonDurable(const Options &opt)
{
    Report rep;
    metrics::Registry::setEnabled(true);
    CpuRotation cpus;
    const Fig10 f;
    const std::string stateDir = opt.workDir + "/daemon_state";
    SpanLog log;
    log.enabled = opt.trace;

    // Set-up: context, daemon on an empty state directory, four
    // session opens (initial compile + publish + WAL). The first
    // serves the run; one more is timed in every round.
    std::vector<double> setupS;
    const auto setUp = [&](const std::string &dir) {
        const Clock::time_point t0 = Clock::now();
        auto ctx = makeWorkloadContext("bench.daemon_durable", 1);
        auto d = openDaemon(dir, ctx.get(), f.period, log);
        setupS.push_back(msSince(t0) / 1000.0);
        return std::pair{std::move(ctx), std::move(d)};
    };
    auto [ctx, d] = setUp(stateDir);
    metrics::Registry &reg = ctx->metricsRegistry();
    const metrics::Histogram &fsyncHist = reg.histogram(
        "server.wal_fsync_us", metrics::Histogram::timeBucketsUs());

    const auto makeStreams = [&] {
        std::vector<ChurnStream> s;
        for (int k = 0; k < kSessions; ++k)
            s.emplace_back(opt.seed * kSessions + k, f.period, kMix,
                           sessionName(k));
        return s;
    };
    std::vector<ChurnStream> streams = makeStreams();
    const std::size_t cycle = streams.front().cycleLength() * kSessions;
    std::uint64_t requestId = 0;

    // Every other daemon runs under its own context, so the measured
    // daemon's registry holds only its own figures.
    const auto aux = makeWorkloadContext("bench.daemon_durable.aux", 1);
    // The closed state recovery_s reopens: a second daemon, one cycle
    // per session, shut down.
    const std::string refClosed = stateDir + ".ref";
    {
        auto ref = openDaemon(refClosed, aux.get(), f.period, log);
        std::vector<ChurnStream> refStreams = makeStreams();
        runStep(*ref, refStreams, kBurstRate, cycle, false, log, requestId,
                rep);
    }

    // Warm-up: one cycle per session fills the schedule cache and the
    // sessions' LP basis caches, which every later cycle reuses. Its
    // requests are checked but not timed.
    runStep(*d, streams, kBurstRate, cycle, false, log, requestId, rep);

    // Rounds: a base window, a saturation burst (a whole churn cycle
    // submitted far faster than the daemon serves it: its completion
    // rate is the highest arrival rate served without a growing
    // backlog), a timed reopen and a timed set-up.
    Step base;
    std::vector<double> p50, p99, busyRps, burstRps, recoveryS;
    std::vector<std::uint64_t> fsyncBuckets(fsyncHist.bounds().size() + 1);
    std::uint64_t walRecords = 0, walFsyncs = 0, snapshots = 0;
    const double budgetMs = opt.seconds * 1000.0;
    const Clock::time_point start = Clock::now();
    double lastRoundMs = 0.0;
    for (std::size_t round = 0;
         round < kMinRounds || msSince(start) + lastRoundMs <= budgetMs;
         ++round) {
        const Clock::time_point roundStart = Clock::now();
        if (round > 0)
            cpus.next();
        const WalSample before = WalSample::of(*d, fsyncHist);
        const Step w =
            runStep(*d, streams, kBaseRate, cycle, true, log, requestId, rep);
        const WalSample after = WalSample::of(*d, fsyncHist);
        p50.push_back(percentile(w.latencyMs, 50));
        p99.push_back(percentile(w.latencyMs, 99));
        busyRps.push_back(1000.0 * static_cast<double>(cycle) / w.heldMs);
        base.merge(w);
        walRecords += after.records - before.records;
        walFsyncs += after.fsyncs - before.fsyncs;
        snapshots += after.snapshots - before.snapshots;
        for (std::size_t i = 0; i < fsyncBuckets.size(); ++i)
            fsyncBuckets[i] += after.fsyncBuckets[i] - before.fsyncBuckets[i];
        if (round == 0)
            rep.fingerprint = {{"server.wal_records", d->walRecords()}};

        const Step b = runStep(*d, streams, kBurstRate, kBurstCycles * cycle,
                               false, log, requestId, rep);
        burstRps.push_back(static_cast<double>(kBurstCycles * cycle) /
                           b.wallS);

        for (int i = 0; i < kReopensPerRound; ++i) {
            double s = 0.0;
            reopen(refClosed, stateDir + ".reopened", aux.get(), log, s);
            recoveryS.push_back(s);
        }
        setUp(stateDir + ".setup");
        lastRoundMs = msSince(roundStart);
    }

    // Every session's last schedule must run clean in cpsim.
    std::vector<std::string> lastBytes;
    for (int k = 0; k < kSessions; ++k) {
        const auto st = d->published(sessionName(k));
        lastBytes.push_back(scheduleBytes(st->omega));
        const std::string bad = cpsimCheck(st->g, *f.topo, f.alloc, f.tm,
                                           st->bounds, st->omega, ctx.get());
        if (!bad.empty())
            rep.fail(sessionName(k) + " published schedule v" +
                     std::to_string(st->version) + ": " + bad);
    }
    {
        SpanLog::Scope sp(log, "server.shutdown", 0);
        d->shutdown();
    }
    const double cacheHits = static_cast<double>(d->cache().hits());
    const double cacheMisses = static_cast<double>(d->cache().misses());
    d.reset();

    // Reopen the closed state as a new daemon, three times, each from a
    // copy (a reopened daemon writes its own snapshot when it closes):
    // every session must come back as it was last published.
    // `feasible_points` counts the sessions the last reopen brought back
    // byte-identical.
    const std::string closed = stateDir + ".closed";
    std::filesystem::remove_all(closed);
    std::filesystem::copy(stateDir, closed,
                          std::filesystem::copy_options::recursive);
    std::vector<double> finalReopenS(3);
    int recovered = 0;
    for (double &s : finalReopenS) {
        const auto re = reopen(closed, stateDir, aux.get(), log, s);
        ++rep.attempted;
        if (re->recovery().replayRejected != 0)
            rep.fail("recovery rejected " +
                     std::to_string(re->recovery().replayRejected) +
                     " replayed records");
        recovered = 0;
        for (int k = 0; k < kSessions; ++k) {
            const auto st = re->published(sessionName(k));
            if (!st)
                rep.fail("session " + sessionName(k) +
                         " missing after recovery");
            else if (scheduleBytes(st->omega) !=
                     lastBytes[static_cast<std::size_t>(k)])
                rep.fail("session " + sessionName(k) +
                         " recovered a schedule that differs from the "
                         "last one it published");
            else
                ++recovered;
        }
    }

    const std::vector<double> &fsyncBounds = fsyncHist.bounds();
    std::cout << "# " << p50.size() << " rounds; base windows: "
              << base.latencyMs.size() << " requests at " << kBaseRate
              << "/s; queue wait p50 " << median(base.queueMs)
              << " ms, service p50 " << median(base.serviceMs)
              << " ms, WAL fsync p50 "
              << bucketPercentile(fsyncBounds, fsyncBuckets, 50)
              << " us, generator lag p99 " << percentile(base.lagMs, 99)
              << " ms, slowest submit " << base.submitMaxMs
              << " ms\n# reopen of the closed run (s): " << finalReopenS[0]
              << " " << finalReopenS[1] << " " << finalReopenS[2]
              << "\n# window p99 (ms):";
    for (double v : p99)
        std::cout << " " << v;
    std::cout << "\n# bursts (requests/s):";
    for (double r : burstRps)
        std::cout << " " << r;
    std::cout << "\n";

    const double n = static_cast<double>(base.latencyMs.size());
    if (!opt.trace) {
        rep.metric("setup_s", median(setupS), "s");
        rep.metric("ops_per_s", median(busyRps), "1/s");
        rep.metric("latency_ms_p50", median(p50), "ms");
        rep.metric("latency_ms_p99", median(p99), "ms");
        rep.metric("max_rate_rps", median(burstRps), "1/s");
        rep.metric("recovery_s", median(recoveryS), "s");
        rep.metric("reject_rate", static_cast<double>(base.rejected) / n,
                   "share");
        rep.metric("feasible_points", recovered, "count");
        rep.metric("peak_util_mean", mean(base.peakU), "ratio");
        return rep;
    }

    rep.metric("server.queue_wait_ms_p50", median(base.queueMs), "ms");
    rep.metric("server.queue_wait_ms_p99", percentile(base.queueMs, 99),
               "ms");
    rep.metric("server.queue_depth_max", static_cast<double>(base.depthMax),
               "count");
    rep.metric("server.service_ms_p50", median(base.serviceMs), "ms");
    rep.metric("server.wal_fsync_us_p50",
               bucketPercentile(fsyncBounds, fsyncBuckets, 50), "us");
    rep.metric("server.wal_fsync_us_p99",
               bucketPercentile(fsyncBounds, fsyncBuckets, 99), "us");
    rep.metric("server.wal_fsyncs", static_cast<double>(walFsyncs), "count");
    rep.metric("server.wal_records", static_cast<double>(walRecords),
               "count");
    rep.metric("server.snapshots", static_cast<double>(snapshots), "count");
    rep.metric("server.recovery_ms", 1000.0 * median(recoveryS), "ms");
    rep.metric("cache.hit_rate",
               cacheHits + cacheMisses > 0
                   ? cacheHits / (cacheHits + cacheMisses)
                   : 0.0,
               "share");
    rep.metric("bench.gen_lag_ms_p99", percentile(base.lagMs, 99), "ms");
    log.write(opt.workDir + "/trace_daemon_durable.json");
    return rep;
}

} // namespace srbench
