/**
 * @file
 * online_churn: one OnlineScheduler on the fig10 setup (DVB on a
 * 4x4x4 torus, B = 128, round-robin stride 13, period 2.4 tau_c)
 * absorbs a closed-loop churn stream from one client (ChurnStream with
 * every episode kind): incremental admits, cache-hit re-admits and
 * removes, invalid admits, and per cycle four requests that fall back
 * to a full recompile (two period stretches, two oversized admits).
 *
 * Whole cycles run while the next still fits in --seconds, and at least
 * the fingerprint window (the first cycles holding kWindow requests).
 * The published schedule at the end of that window and at the end of
 * the run must run clean in cpsim, and after every cycle the published
 * schedule is restored into a fresh service, which must republish it
 * byte for byte.
 */

#include <iostream>

#include "fig10.hh"
#include "topology/factory.hh"

namespace srbench {

namespace {

using namespace srsim;

constexpr std::size_t kWindow = 1000;
/** Every episode kind; 4 of a cycle's requests are full recompiles. */
const ChurnStream::EpisodeMix kMix = {6, 10, 4, 3, 2, true};

std::unique_ptr<online::OnlineScheduler>
makeService(const Fig10 &f, const TaskFlowGraph &g, Time period,
            const engine::EngineContext *ctx)
{
    online::OnlineSchedulerConfig cfg;
    cfg.compiler.inputPeriod = period;
    cfg.compiler.ctx = ctx;
    return std::make_unique<online::OnlineScheduler>(
        g, makeTopology(kFig10Topo), f.alloc, f.tm, cfg);
}

/**
 * Restore the published schedule into a fresh service (the daemon's
 * snapshot-restore primitive) and check it republishes byte for byte;
 * `identical` is set to whether it did. Returns the restore time.
 */
double
restoreSeconds(const Fig10 &f, const online::OnlineScheduler &svc,
               const engine::EngineContext *ctx, Report &rep,
               bool &identical)
{
    const auto last = svc.published();
    const Clock::time_point t0 = Clock::now();
    auto fresh = makeService(f, last->g, last->omega.period, ctx);
    const online::RequestResult rr = fresh->restore(last->omega, "");
    const double s = msSince(t0) / 1000.0;
    identical = rr.accepted && scheduleBytes(fresh->published()->omega) ==
                                   scheduleBytes(last->omega);
    if (!identical)
        rep.fail("restored schedule differs from the last published");
    return s;
}

/** cpsimCheck of a service's published schedule. */
std::string
checkPublished(const online::OnlineScheduler &svc,
               const engine::EngineContext *ctx)
{
    const auto st = svc.published();
    const std::string bad =
        cpsimCheck(st->g, svc.topology(), svc.allocation(), svc.timing(),
                   st->bounds, st->omega, ctx);
    return bad.empty() ? bad
                       : "published schedule v" +
                             std::to_string(st->version) + ": " + bad;
}

const char *
spanName(Kind k)
{
    switch (k) {
      case Kind::Remove: return "online.remove";
      case Kind::Period: return "online.period";
      default: return "online.admit";
    }
}

} // namespace

Report
runOnlineChurn(const Options &opt)
{
    Report rep;
    metrics::Registry::setEnabled(true);
    const Fig10 f;

    // Set-up: context plus the initial compile and publish. The first
    // serves the stream; one more is timed after every cycle, so the
    // median spans the run rather than one moment.
    std::vector<double> setupS;
    const auto setUp = [&] {
        const Clock::time_point t0 = Clock::now();
        auto ctx = makeWorkloadContext("bench.online_churn", kThreadBudget);
        auto svc = makeService(f, f.g, f.period, ctx.get());
        if (!svc->start().accepted)
            throw std::runtime_error("initial fig10 compile rejected");
        setupS.push_back(msSince(t0) / 1000.0);
        return std::pair{std::move(ctx), std::move(svc)};
    };
    const auto [ctx, svc] = setUp();
    metrics::Registry &reg = ctx->metricsRegistry();
    const auto base = [&](const char *c) { return counter(reg, c); };
    const std::uint64_t solves0 = base("solver.solves"),
                        pivots0 = base("solver.pivots"),
                        reroutes0 = base("sr.assign_reroutes"),
                        full0 = base("online.full_compiles"),
                        resolved0 = base("online.subsets_resolved"),
                        copied0 = base("online.subsets_copied");

    ChurnStream stream(opt.seed, f.period, kMix, "");
    // The fingerprint window: whole cycles, at least kWindow requests.
    const std::size_t windowCycles =
        (kWindow + stream.cycleLength() - 1) / stream.cycleLength();
    SpanLog log;
    log.enabled = opt.trace;
    std::map<Kind, std::vector<double>> byKind;
    std::vector<double> latencyMs, peakU;
    std::uint64_t rejected = 0;

    const double budgetMs = opt.seconds * 1000.0;
    const Clock::time_point start = Clock::now();
    std::size_t cycles = 0;
    double lastCycleMs = 0.0;
    std::vector<double> cycleMs;
    // Recovery, timed after every cycle (outside its wall time).
    std::vector<double> restoreS;
    // Restores of the fingerprint window that republished byte for byte.
    std::size_t restoredInWindow = 0;
    while (cycles < windowCycles || msSince(start) + lastCycleMs <= budgetMs) {
        const Clock::time_point cycleStart = Clock::now();
        for (std::size_t i = 0; i < stream.cycleLength(); ++i) {
            const StreamRequest s = stream.next();
            online::RequestResult res;
            const Clock::time_point t0 = Clock::now();
            {
                SpanLog::Scope sp(log, spanName(s.kind), rep.attempted);
                res = svc->process(s.req);
            }
            const double ms = msSince(t0);
            latencyMs.push_back(ms);
            byKind[s.kind].push_back(ms);
            ++rep.attempted;
            if (res.accepted)
                peakU.push_back(res.peakUtilization);
            else
                ++rejected;
            if (res.accepted != s.expectAccepted)
                rep.fail(std::string(kindName(s.kind)) + " request " +
                         std::to_string(rep.attempted) +
                         (res.accepted ? " accepted, expected a rejection"
                                       : " rejected: " + res.detail));
        }
        lastCycleMs = msSince(cycleStart);
        cycleMs.push_back(lastCycleMs);
        bool identical = false;
        restoreS.push_back(
            restoreSeconds(f, *svc, ctx.get(), rep, identical));
        setUp();
        if (cycles < windowCycles && identical)
            ++restoredInWindow;
        if (++cycles == windowCycles) {
            const std::string bad = checkPublished(*svc, ctx.get());
            if (!bad.empty())
                rep.fail(bad);
            rep.fingerprint = {
                {"solver.solves", base("solver.solves") - solves0},
                {"solver.pivots", base("solver.pivots") - pivots0},
                {"sr.assign_reroutes",
                 base("sr.assign_reroutes") - reroutes0},
                {"online.subsets_resolved",
                 base("online.subsets_resolved") - resolved0},
                {"online.subsets_copied",
                 base("online.subsets_copied") - copied0},
                {"online.full_compiles",
                 base("online.full_compiles") - full0},
                {"cpsim.commands_executed",
                 base("cpsim.commands_executed")},
            };
        }
    }
    // Time spent serving requests (restores and set-ups excluded).
    double wallMs = 0.0;
    for (double ms : cycleMs)
        wallMs += ms;
    {
        const std::string bad = checkPublished(*svc, ctx.get());
        if (!bad.empty())
            rep.fail("final " + bad);
    }

    for (const auto &[k, v] : byKind)
        std::cout << "# " << kindName(k) << ": " << v.size()
                  << " requests, p50 " << median(v) << " ms, p99 "
                  << percentile(v, 99) << " ms\n";

    const double n = static_cast<double>(rep.attempted);
    if (!opt.trace) {
        rep.metric("setup_s", median(setupS), "s");
        // Every cycle does the same work: the median cycle rate is the
        // throughput, unmoved by a stall of the host in one cycle.
        const double rate = 1000.0 *
                            static_cast<double>(stream.cycleLength()) /
                            median(cycleMs);
        rep.metric("ops_per_s", rate, "1/s");
        rep.metric("latency_ms_p50", percentile(latencyMs, 50), "ms");
        rep.metric("latency_ms_p99", percentile(latencyMs, 99), "ms");
        rep.metric("max_rate_rps", rate, "1/s");
        rep.metric("recovery_s", median(restoreS), "s");
        rep.metric("reject_rate", static_cast<double>(rejected) / n,
                   "share");
        rep.metric("feasible_points",
                   static_cast<double>(restoredInWindow), "count");
        rep.metric("peak_util_mean", mean(peakU), "ratio");
        return rep;
    }

    std::vector<double> admits = byKind[Kind::Admit];
    for (Kind k : {Kind::Readmit, Kind::Oversized, Kind::Invalid})
        admits.insert(admits.end(), byKind[k].begin(), byKind[k].end());
    rep.metric("online.admit.ms_p50", median(admits), "ms");
    rep.metric("online.admit.ms_p99", percentile(admits, 99), "ms");
    rep.metric("online.remove.ms_p50", median(byKind[Kind::Remove]), "ms");
    rep.metric("online.period.ms_p50", median(byKind[Kind::Period]), "ms");
    const auto share = [](double a, double b) {
        return a + b > 0 ? a / (a + b) : 0.0;
    };
    const double hits = static_cast<double>(base("online.cache_hits"));
    const double misses = static_cast<double>(base("online.cache_misses"));
    rep.metric("online.cache.hit_rate", share(hits, misses), "share");
    const double incr = static_cast<double>(base("online.incremental"));
    const double full = static_cast<double>(base("online.full_compiles"));
    const double served = static_cast<double>(base("online.cache_served"));
    rep.metric("online.incremental_share", incr / (incr + full + served),
               "share");
    // Window counts, under their per-layer names.
    for (const auto &[name, value] : rep.fingerprint) {
        const double v = static_cast<double>(value);
        if (name == "sr.assign_reroutes")
            rep.metric("core.assign_paths.reroutes", v, "count");
        else if (name != "online.subsets_copied")
            rep.metric(name, v, "count");
    }
    rep.metric("online.subsets_copied_share",
               share(static_cast<double>(base("online.subsets_copied")),
                     static_cast<double>(base("online.subsets_resolved"))),
               "share");
    rep.metric("solver.warmstart.hit_rate",
               share(static_cast<double>(base("solver.warmstart.hits")),
                     static_cast<double>(base("solver.warmstart.misses"))),
               "share");
    const auto self = log.selfMs();
    double layerMs = 0.0;
    for (const auto &[name, ms] : self)
        layerMs += ms;
    rep.metric("trace.layer_coverage", layerMs / wallMs, "share");
    log.write(opt.workDir + "/trace_online_churn.json");
    return rep;
}

} // namespace srbench
