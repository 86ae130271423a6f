/**
 * @file
 * fig_sweep: the paper's Fig. 7 and Fig. 9 sweeps at B = 128 — the
 * DVB task-flow graph on a binary 6-cube and on an 8x8 torus,
 * round-robin stride-13 placement, twelve load points each. Closed
 * loop, one caller: each point compiles (compileScheduledRouting),
 * runs a feasible Omega in the cycle-precise simulator, and simulates
 * wormhole routing at the same period.
 *
 * The seed only permutes the order of the 24 points in every sweep;
 * the points themselves are the paper's, so verdicts and counters are
 * identical for every seed.
 *
 * In the traced run every point also runs a second time, calling the
 * compiler's stages one by one (time bounds, intervals, AssignPaths,
 * subsets, allocation LP, scheduling LP, verifier) under spans; its
 * Omega must serialize to exactly the bytes compileScheduledRouting
 * produced for the same point.
 */

#include <iterator>
#include <sstream>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench.hh"
#include "core/schedule_io.hh"
#include "core/sr_compiler.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "wormhole/wormhole.hh"

namespace srbench {

namespace {

using namespace srsim;

constexpr int kLoadPoints = 12;
/** glibc's initial mmap threshold, pinned for the whole run. */
constexpr int kMmapThreshold = 128 * 1024;
constexpr double kMaxPeriodFactor = 5.0;
constexpr double kBandwidth = 128.0;
constexpr int kAllocStride = 13;
constexpr int kWormholeInvocations = 60;
constexpr int kWormholeWarmup = 10;

/** One fabric of the sweep with its placement. */
struct Fabric
{
    std::string name;
    std::unique_ptr<Topology> topo;
    TaskAllocation alloc;
};

/** One load point and the verdict pinned for it. */
struct Point
{
    std::size_t fabric = 0;
    int index = 0;
    Time period = 0.0;
    double load = 0.0;
    SrFailureStage expect = SrFailureStage::None;
};

/** Everything set up before the timed window. */
struct Setup
{
    std::shared_ptr<engine::EngineContext> ctx;
    TaskFlowGraph g;
    TimingModel tm;
    std::vector<Fabric> fabrics;
    std::vector<Point> points;
};

/**
 * Expected verdict per point, pinned from the code at the commit that
 * introduced this benchmark: the 6-cube compiles at all twelve loads;
 * the 8x8 torus fails in scheduling at loads 1.0, 0.7333 and 0.4074
 * and in allocation at 0.4783 (8/12 feasible). See NOTES.md for the
 * open disagreement with EXPERIMENTS.md's Fig. 9 row.
 */
SrFailureStage
expectedStage(std::size_t fabric, int index)
{
    if (fabric == 0)
        return SrFailureStage::None;
    switch (index) {
      case 0: // load 1.0
      case 1: // load 0.7333
      case 4: // load 0.4074
        return SrFailureStage::Scheduling;
      case 3: // load 0.4783
        return SrFailureStage::Allocation;
      default:
        return SrFailureStage::None;
    }
}

Setup
makeSetup()
{
    Setup s;
    s.ctx = makeWorkloadContext("bench.fig_sweep", kThreadBudget);
    DvbParams dvb;
    s.g = buildDvbTfg(dvb);
    s.tm.apSpeed = dvb.matchedApSpeed();
    s.tm.bandwidth = kBandwidth;

    const auto addFabric = [&](std::string name,
                               std::unique_ptr<Topology> topo) {
        TaskAllocation alloc = alloc::roundRobin(s.g, *topo, kAllocStride);
        s.fabrics.push_back({std::move(name), std::move(topo),
                             std::move(alloc)});
    };
    addFabric("6-cube", std::make_unique<GeneralizedHypercube>(
                            GeneralizedHypercube::binaryCube(6)));
    addFabric("8x8 torus",
              std::make_unique<Torus>(std::vector<int>{8, 8}));
    const Time tauC = s.tm.tauC(s.g);
    for (std::size_t f = 0; f < s.fabrics.size(); ++f) {
        for (int i = 0; i < kLoadPoints; ++i) {
            const double factor = 1.0 + (kMaxPeriodFactor - 1.0) * i /
                                            (kLoadPoints - 1);
            Point p;
            p.fabric = f;
            p.index = i;
            p.period = tauC * factor;
            p.load = tauC / p.period;
            p.expect = expectedStage(f, i);
            s.points.push_back(p);
        }
    }
    return s;
}

std::string
pointName(const Setup &s, const Point &p)
{
    std::ostringstream os;
    os << s.fabrics[p.fabric].name << " load " << p.load;
    return os.str();
}

/** What one point produced. */
struct PointResult
{
    SrFailureStage stage = SrFailureStage::None;
    double peakU = 0.0;
    std::size_t subsets = 0;
    /** writeSchedule bytes when feasible. */
    std::string omega;
    TimeBounds bounds;
};

/** Run a feasible Omega of point `p` in cpsim (see cpsimCheck). */
std::string
checkCpsim(const Setup &s, const Point &p, const TimeBounds &bounds,
           const GlobalSchedule &omega)
{
    const Fabric &fab = s.fabrics[p.fabric];
    return cpsimCheck(s.g, *fab.topo, fab.alloc, s.tm, bounds, omega,
                      s.ctx.get());
}

void
runWormhole(const Setup &s, const Point &p)
{
    const Fabric &fab = s.fabrics[p.fabric];
    WormholeSimulator wsim(s.g, *fab.topo, fab.alloc, s.tm);
    WormholeConfig cfg;
    cfg.inputPeriod = p.period;
    cfg.invocations = kWormholeInvocations;
    cfg.warmup = kWormholeWarmup;
    cfg.ctx = s.ctx.get();
    wsim.run(cfg);
}

/** The untraced point: the public one-call compiler. */
PointResult
runPoint(const Setup &s, const Point &p, Report &rep)
{
    const Fabric &fab = s.fabrics[p.fabric];
    SrCompilerConfig cfg;
    cfg.inputPeriod = p.period;
    cfg.ctx = s.ctx.get();
    SrCompileResult res =
        compileScheduledRouting(s.g, *fab.topo, fab.alloc, s.tm, cfg);
    PointResult out;
    out.stage = res.stage;
    out.peakU = res.utilization.peak;
    out.subsets = res.numSubsets;
    if (res.feasible) {
        out.omega = scheduleBytes(res.omega);
        const std::string bad = checkCpsim(s, p, res.bounds, res.omega);
        if (!bad.empty())
            rep.fail(pointName(s, p) + ": " + bad);
        out.bounds = std::move(res.bounds);
    }
    runWormhole(s, p);
    return out;
}

/** The traced point: the compiler's stages called one by one. */
PointResult
runPointTraced(const Setup &s, const Point &p, std::uint64_t request,
               SpanLog &log, Report &rep)
{
    const Fabric &fab = s.fabrics[p.fabric];
    const engine::EngineContext *ctx = s.ctx.get();
    PointResult out;
    SpanLog::Scope root(log, "bench.point", request);

    TimeBounds bounds;
    {
        SpanLog::Scope sp(log, "core.time_bounds", request);
        bounds = computeTimeBounds(s.g, fab.alloc, s.tm, p.period);
    }
    std::optional<IntervalSet> ivs;
    {
        SpanLog::Scope sp(log, "core.intervals", request);
        ivs.emplace(bounds);
    }
    AssignPathsOptions aopts;
    aopts.ctx = ctx;
    AssignPathsResult ap;
    {
        SpanLog::Scope sp(log, "core.assign_paths", request);
        ap = assignPaths(s.g, *fab.topo, fab.alloc, bounds, *ivs, aopts);
    }
    out.peakU = ap.report.peak;
    const auto finish = [&](SrFailureStage stage) {
        out.stage = stage;
        {
            SpanLog::Scope sp(log, "wormhole", request);
            runWormhole(s, p);
        }
        return out;
    };
    if (!ap.ok)
        return finish(SrFailureStage::InvalidInput);
    if (ap.report.peak > 1.0 + 1e-9)
        return finish(SrFailureStage::Utilization);

    std::vector<MessageSubset> subsets;
    {
        SpanLog::Scope sp(log, "core.subsets", request);
        subsets = computeMaximalSubsets(bounds, *ivs, ap.assignment);
    }
    out.subsets = subsets.size();
    IntervalAllocation ia;
    {
        SpanLog::Scope sp(log, "core.interval_allocation", request);
        ia = allocateMessageIntervals(bounds, *ivs, ap.assignment,
                                      subsets, AllocationMethod::Lp, 0.0,
                                      0.0, fab.topo.get(), nullptr, ctx);
    }
    if (!ia.feasible)
        return finish(SrFailureStage::Allocation);
    IntervalSchedulingOptions sopts;
    sopts.ctx = ctx;
    IntervalScheduleResult sched;
    {
        SpanLog::Scope sp(log, "core.interval_scheduling", request);
        sched = scheduleIntervals(bounds, *ivs, ap.assignment, subsets, ia,
                                  sopts);
    }
    if (!sched.feasible)
        return finish(SrFailureStage::Scheduling);

    GlobalSchedule omega;
    omega.period = p.period;
    omega.segments = sched.segments;
    omega.paths = ap.assignment;
    {
        SpanLog::Scope sp(log, "core.verifier", request);
        if (!verifySchedule(s.g, *fab.topo, fab.alloc, bounds, omega).ok)
            return finish(SrFailureStage::Verification);
    }
    std::string bad;
    {
        SpanLog::Scope sp(log, "cpsim", request);
        bad = checkCpsim(s, p, bounds, omega);
    }
    if (!bad.empty())
        rep.fail(pointName(s, p) + " (traced): " + bad);
    out.omega = scheduleBytes(omega);
    return finish(SrFailureStage::None);
}

/** Counters whose first-sweep totals are the fingerprint. */
const char *const kFingerprintCounters[] = {
    "solver.solves",          "solver.pivots",
    "sr.assign_restarts",     "sr.assign_reroutes",
    "cpsim.commands_executed", "wormhole.messages_injected",
    "wormhole.link_blocks"};

std::vector<std::uint64_t>
readCounters(metrics::Registry &reg)
{
    std::vector<std::uint64_t> v;
    for (const char *c : kFingerprintCounters)
        v.push_back(counter(reg, c));
    return v;
}

/** Compare one point's verdict against the pinned table. */
void
checkVerdict(const Setup &s, const Point &p, const PointResult &r,
             Report &rep)
{
    if (r.stage != p.expect)
        rep.fail(pointName(s, p) + ": verdict " +
                 srFailureStageName(r.stage) + ", expected " +
                 srFailureStageName(p.expect));
}

/**
 * Reload every feasible Omega of a sweep from its bytes and re-certify
 * it: what a node pays to bring its compiled schedules back.
 */
double
reloadSeconds(const Setup &s, const std::vector<PointResult> &results,
              Report &rep)
{
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < s.points.size(); ++i) {
        if (results[i].omega.empty())
            continue;
        const Fabric &fab = s.fabrics[s.points[i].fabric];
        std::istringstream is(results[i].omega);
        const ScheduleReadResult rd = tryReadSchedule(is, *fab.topo);
        if (!rd.ok ||
            !verifySchedule(s.g, *fab.topo, fab.alloc, results[i].bounds,
                            rd.omega)
                 .ok)
            rep.fail(pointName(s, s.points[i]) +
                     ": reloaded schedule does not certify");
    }
    return msSince(t0) / 1000.0;
}

} // namespace

Report
runFigSweep(const Options &opt)
{
    Report rep;
    metrics::Registry::setEnabled(true);
#ifdef __GLIBC__
    // glibc raises its mmap threshold to the size of each large block
    // freed, so with its defaults the peak resident set follows the
    // order of the load points, which the seed permutes (35-48 MB by
    // seed). A fixed threshold makes the peak a property of the
    // program; see NOTES.md.
    mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
#endif

    // Set-up: context, DVB graph, fabrics, placements, load points. The
    // first serves the run; one more is timed after every untraced load
    // point, so the median spans the run rather than one moment.
    std::vector<double> setupS;
    const auto setUp = [&] {
        const Clock::time_point t0 = Clock::now();
        Setup fresh = makeSetup();
        setupS.push_back(msSince(t0) / 1000.0);
        return fresh;
    };
    const Setup s = setUp();
    metrics::Registry &reg = s.ctx->metricsRegistry();

    Gen gen(opt.seed);
    const std::size_t n = s.points.size();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;

    std::vector<double> latencyMs, peakU;
    // Each load point's latencies, one per sweep.
    std::vector<std::vector<double>> pointMs(n);
    // Reloads of the first sweep's Omegas: five right after that sweep,
    // then one after every untraced load point.
    std::vector<double> reloadS;
    std::vector<PointResult> firstSweep;
    std::size_t feasible = 0, rejected = 0, subsetsFirst = 0;
    // Counted around the untraced points of the first sweep only.
    std::vector<std::uint64_t> firstCounts(std::size(kFingerprintCounters));
    std::vector<std::pair<std::string, std::uint64_t>> fingerprint;
    SpanLog log;
    double untracedMs = 0.0, tracedMs = 0.0;
    std::size_t untracedSweeps = 0, tracedPoints = 0;

    const double budgetMs = opt.seconds * 1000.0;
    const Clock::time_point start = Clock::now();
    double lastCycleMs = 0.0;
    while (untracedSweeps == 0 ||
           msSince(start) + lastCycleMs <= budgetMs) {
        const Clock::time_point cycle = Clock::now();
        gen.shuffle(order);
        std::vector<PointResult> results(n);
        for (std::size_t k = 0; k < n; ++k) {
            const Point &p = s.points[order[k]];
            // The traced run of a point goes before or after its
            // untraced run in turn, so that neither side of
            // trace.overhead_pct always finds the caches warm.
            PointResult traced;
            const auto runTraced = [&] {
                log.enabled = true;
                const Clock::time_point t0 = Clock::now();
                traced = runPointTraced(s, p, tracedPoints++, log, rep);
                tracedMs += msSince(t0);
                log.enabled = false;
            };
            if (opt.trace && k % 2 == 1)
                runTraced();
            const std::vector<std::uint64_t> c0 = readCounters(reg);
            const Clock::time_point t0 = Clock::now();
            PointResult r = runPoint(s, p, rep);
            latencyMs.push_back(msSince(t0));
            untracedMs += latencyMs.back();
            pointMs[order[k]].push_back(latencyMs.back());
            if (untracedSweeps == 0) {
                const std::vector<std::uint64_t> c1 = readCounters(reg);
                for (std::size_t i = 0; i < c1.size(); ++i)
                    firstCounts[i] += c1[i] - c0[i];
            }
            if (opt.trace && k % 2 == 0)
                runTraced();
            if (opt.trace) {
                checkVerdict(s, p, traced, rep);
                if (traced.omega != r.omega)
                    rep.fail(pointName(s, p) +
                             ": stage-by-stage Omega differs from "
                             "compileScheduledRouting");
            }
            setUp();
            if (!firstSweep.empty())
                reloadS.push_back(reloadSeconds(s, firstSweep, rep));
            ++rep.attempted;
            checkVerdict(s, p, r, rep);
            peakU.push_back(r.peakU);
            if (r.stage == SrFailureStage::None)
                ++feasible;
            else
                ++rejected;
            results[order[k]] = std::move(r);
        }
        if (untracedSweeps++ == 0) {
            for (const PointResult &r : results)
                subsetsFirst += r.subsets;
            for (std::size_t i = 0; i < firstCounts.size(); ++i)
                fingerprint.emplace_back(kFingerprintCounters[i],
                                         firstCounts[i]);
            for (int i = 0; i < 5; ++i)
                reloadS.push_back(reloadSeconds(s, results, rep));
            firstSweep = results;
        }

        lastCycleMs = msSince(cycle);
    }
    const double wallS = untracedMs / 1000.0;

    rep.fingerprint = fingerprint;
    const auto fp = [&](const std::string &name) -> double {
        for (const auto &[k, v] : fingerprint)
            if (k == name)
                return static_cast<double>(v);
        return 0.0;
    };

    if (!opt.trace) {
        const double points = static_cast<double>(latencyMs.size());
        rep.metric("setup_s", median(setupS), "s");
        rep.metric("ops_per_s", points / wallS, "1/s");
        rep.metric("latency_ms_p50", percentile(latencyMs, 50), "ms");
        // The slowest load points, each at its median over the sweeps,
        // so that one stall of the host does not set the figure.
        std::vector<double> pointMedians;
        for (const std::vector<double> &v : pointMs)
            pointMedians.push_back(median(v));
        rep.metric("latency_ms_p99", percentile(pointMedians, 99), "ms");
        rep.metric("max_rate_rps", points / wallS, "1/s");
        rep.metric("recovery_s", median(reloadS), "s");
        rep.metric("reject_rate", rejected / points, "share");
        rep.metric("feasible_points",
                   static_cast<double>(feasible) /
                       static_cast<double>(untracedSweeps),
                   "count");
        rep.metric("peak_util_mean", mean(peakU), "ratio");
        return rep;
    }

    const auto self = log.selfMs();
    const double perPoint = static_cast<double>(tracedPoints);
    double layerMs = 0.0;
    for (const auto &[name, ms] : self) {
        if (name.rfind("bench.", 0) == 0)
            continue;
        layerMs += ms;
        rep.metric(name + ".ms", ms / perPoint, "ms");
    }
    rep.metric("core.assign_paths.restarts", fp("sr.assign_restarts"),
               "count");
    rep.metric("core.assign_paths.reroutes", fp("sr.assign_reroutes"),
               "count");
    rep.metric("core.subsets.count", static_cast<double>(subsetsFirst),
               "count");
    rep.metric("solver.solves", fp("solver.solves"), "count");
    rep.metric("solver.pivots", fp("solver.pivots"), "count");
    rep.metric("cpsim.commands_executed", fp("cpsim.commands_executed"),
               "count");
    rep.metric("wormhole.messages_injected",
               fp("wormhole.messages_injected"), "count");
    rep.metric("wormhole.link_blocks", fp("wormhole.link_blocks"),
               "count");
    const double rootMs = log.rootMs();
    rep.metric("trace.layer_coverage", rootMs > 0 ? layerMs / rootMs : 0.0,
               "share");
    rep.metric("trace.overhead_pct",
               100.0 * (tracedMs - untracedMs) / untracedMs, "%");
    log.write(opt.workDir + "/trace_fig_sweep.json");
    return rep;
}

} // namespace srbench
