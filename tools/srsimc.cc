/**
 * @file
 * srsimc — the scheduled-routing command-line compiler.
 *
 * Subcommands:
 *
 *   srsimc info --tfg app.tfg
 *       Validate a TFG file; print tasks, messages, critical path.
 *
 *   srsimc compile --tfg app.tfg --topo torus:8,8 --period 100
 *           [--bandwidth 64] [--ap-speed 38.5]
 *           [--alloc greedy|random|rr:<stride>|coupled]
 *           [--feedback N] [--guard T] [--seed S]
 *           [--out omega.txt] [--svg omega.svg]
 *           [--node-schedules] [--faults SPEC]
 *       Compile a contention-free switching schedule; optionally
 *       write it to a file and print the per-node command lists.
 *       With --faults, degrade the fabric after the healthy compile
 *       (e.g. "link:3-7;derate:#12=0.5", see src/fault/fault.hh)
 *       and repair the schedule against the surviving topology,
 *       reporting per-message fates; --out then writes the repaired
 *       (v2) schedule.
 *
 *   srsimc simulate --tfg app.tfg --topo torus:8,8 --period 100
 *           [--bandwidth 64] [--ap-speed 38.5] [--alloc ...]
 *           [--vc N] [--invocations N]
 *       Simulate wormhole routing at the same operating point and
 *       report output (in)consistency.
 *
 *   srsimc daemon [--script FILE | --stdin] [--state-dir DIR] ...
 *       Run the online scheduling service over a daemon script
 *       (src/server/protocol.hh): one JSON line per request, then a
 *       summary. A one-session script drives a single service.
 *
 * Exit status: 0 on success / feasible, 1 on infeasible or OI,
 * 2 on usage errors.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/coupled_allocation.hh"
#include "core/schedule_io.hh"
#include "core/schedule_render.hh"
#include "core/sr_compiler.hh"
#include "core/sr_executor.hh"
#include "cpsim/cp_simulator.hh"
#include "engine/context.hh"
#include "fault/fault.hh"
#include "fault/repair.hh"
#include "mapping/allocation.hh"
#include "metrics/metrics.hh"
#include "online/cache.hh"
#include "server/daemon.hh"
#include "server/protocol.hh"
#include "tfg/tfg_io.hh"
#include "tfg/timing.hh"
#include "topology/factory.hh"
#include "trace/trace.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "wormhole/wormhole.hh"

namespace {

using namespace srsim;

struct Options
{
    std::string command;
    std::map<std::string, std::string> kv;

    bool has(const std::string &k) const { return kv.count(k); }

    std::string
    str(const std::string &k, const std::string &dflt = "") const
    {
        auto it = kv.find(k);
        return it == kv.end() ? dflt : it->second;
    }

    double
    num(const std::string &k, double dflt) const
    {
        auto it = kv.find(k);
        return it == kv.end() ? dflt : std::stod(it->second);
    }
};

int
usage()
{
    std::cerr <<
        "usage:\n"
        "  srsimc info --tfg FILE [--threads N]\n"
        "  srsimc compile --tfg FILE --topo SPEC --period US\n"
        "         [--bandwidth B] [--ap-speed S] [--alloc KIND]\n"
        "         [--feedback N] [--guard T] [--seed S]\n"
        "         [--out FILE] [--svg FILE] [--node-schedules]\n"
        "         [--faults SPEC]\n"
        "         [--trace FILE] [--trace-format chrome|csv]\n"
        "         [--metrics FILE] [--threads N]\n"
        "  srsimc simulate --tfg FILE --topo SPEC --period US\n"
        "         [--bandwidth B] [--ap-speed S] [--alloc KIND]\n"
        "         [--vc N] [--invocations N]\n"
        "         [--trace FILE] [--trace-format chrome|csv]\n"
        "         [--metrics FILE] [--threads N]\n"
        "  srsimc daemon [--script FILE | --stdin]\n"
        "         [--state-dir DIR] [--workers N] [--queue-cap K]\n"
        "         [--snapshot-every M] [--wal-sync-every W]\n"
        "         [--deadline-ms D] [--cache-cap N] [--out FILE]\n"
        "         [--trace FILE] [--trace-format chrome|csv]\n"
        "         [--metrics FILE] [--threads N]\n"
        "Flags also accept --key=value; unknown flags are rejected.\n"
        "--threads N caps engine parallelism; it beats the\n"
        "SRSIM_THREADS environment variable, which beats the\n"
        "hardware concurrency.\n"
        "topology SPECs: cube:6, ghc:4,4,4, torus:8,8, mesh:4,4\n"
        "alloc KINDs: greedy (default), random, rr:<stride>, "
        "coupled\n";
    return 2;
}

/**
 * Every command's accepted flags. A typo'd or misplaced flag is a
 * hard InvalidInput error, not a silent default: `--perido 100`
 * must not compile at period 0.
 */
const std::map<std::string, std::set<std::string>> &
knownFlags()
{
    static const std::set<std::string> common = {
        "tfg", "topo", "period", "bandwidth", "ap-speed", "alloc",
        "seed", "trace", "trace-format", "metrics", "threads"};
    static const std::map<std::string, std::set<std::string>> k =
        [] {
            std::map<std::string, std::set<std::string>> m;
            m["info"] = {"tfg", "bandwidth", "ap-speed",
                         "threads"};
            m["compile"] = common;
            m["compile"].insert({"feedback", "guard", "out", "svg",
                                 "node-schedules", "faults"});
            m["simulate"] = common;
            m["simulate"].insert({"vc", "invocations"});
            m["daemon"] = {"script", "stdin", "state-dir",
                           "workers", "queue-cap",
                           "snapshot-every", "wal-sync-every",
                           "deadline-ms", "cache-cap", "out",
                           "trace", "trace-format", "metrics",
                           "threads"};
            return m;
        }();
    return k;
}

/**
 * Configure the process-default engine context from the command
 * line, exactly once, before any engine work runs. Precedence for
 * the thread budget: --threads N beats SRSIM_THREADS beats the
 * hardware concurrency (the pool's own default). SRSIM_SOLVER is
 * resolved here too (inside configureProcess), so a mid-run
 * environment change can never flip the solver kind.
 */
void
configureRootContext(const Options &opts)
{
    std::optional<std::size_t> threads;
    if (opts.has("threads")) {
        const double n = opts.num("threads", 0.0);
        if (n < 1.0)
            fatal("invalid input: --threads must be >= 1");
        threads = static_cast<std::size_t>(n);
    }
    engine::EngineContext::configureProcess(threads, std::nullopt);
}

/** Reject flags the command does not understand. */
void
validateFlags(const Options &opts)
{
    const auto it = knownFlags().find(opts.command);
    if (it == knownFlags().end())
        return; // unknown command: usage() reports it
    for (const auto &[k, v] : opts.kv) {
        if (it->second.count(k))
            continue;
        std::ostringstream oss;
        for (const std::string &f : it->second)
            oss << " --" << f;
        fatal("invalid input: unknown flag '--", k,
              "' for command '", opts.command,
              "' (known flags:", oss.str(), ")");
    }
}

/**
 * Switch tracing / metrics on when --trace / --metrics ask for an
 * output file. Must run before the instrumented work: the sites
 * check the enabled flags at entry.
 */
void
enableObservability(const Options &opts)
{
    if (opts.has("trace")) {
        trace::Tracer::instance().clear();
        trace::Tracer::setEnabled(true);
    }
    if (opts.has("metrics")) {
        metrics::Registry::global().clear();
        metrics::Registry::setEnabled(true);
    }
}

/** Export whatever enableObservability turned on. */
void
writeObservability(const Options &opts)
{
    if (opts.has("trace")) {
        trace::Tracer::setEnabled(false);
        const std::string path = opts.str("trace");
        std::ofstream out(path);
        if (!out)
            fatal("cannot write '", path, "'");
        const std::string fmt = opts.str("trace-format", "chrome");
        if (fmt == "chrome")
            trace::Tracer::instance().exportChrome(out);
        else if (fmt == "csv")
            trace::Tracer::instance().exportCsv(out);
        else
            fatal("unknown --trace-format '", fmt,
                  "' (expected chrome or csv)");
        std::cout << "trace (" << fmt << ") written to " << path
                  << "\n";
    }
    if (opts.has("metrics")) {
        metrics::Registry::setEnabled(false);
        const std::string path = opts.str("metrics");
        std::ofstream out(path);
        if (!out)
            fatal("cannot write '", path, "'");
        metrics::Registry::global().exportJson(out);
        out << "\n";
        std::cout << "metrics written to " << path << "\n";
    }
}

TaskFlowGraph
loadTfg(const Options &opts)
{
    const std::string path = opts.str("tfg");
    if (path.empty())
        fatal("--tfg FILE is required");
    std::ifstream in(path);
    if (!in)
        fatal("cannot open TFG file '", path, "'");
    return readTfg(in);
}

TaskAllocation
makeAllocation(const Options &opts, const TaskFlowGraph &g,
               const Topology &topo, const TimingModel &tm,
               Time period)
{
    const std::string kind = opts.str("alloc", "greedy");
    const auto seed = static_cast<std::uint64_t>(opts.num("seed", 1));
    if (kind == "coupled") {
        Rng rng(seed);
        CoupledAllocationResult coupled = coupleAllocationWithPaths(
            g, topo, tm, period, alloc::greedy(g, topo), rng);
        if (!coupled.ok)
            fatal("coupled allocation failed: ", coupled.error);
        return std::move(coupled.allocation);
    }
    return alloc::fromSpec(kind, g, topo, seed);
}

int
cmdInfo(const Options &opts)
{
    const TaskFlowGraph g = loadTfg(opts);
    TimingModel tm;
    tm.apSpeed = opts.num("ap-speed", 1.0);
    tm.bandwidth = opts.num("bandwidth", 64.0);
    const InvocationTiming t = computeInvocationTiming(g, tm);

    std::cout << "tasks:      " << g.numTasks() << "\n"
              << "messages:   " << g.numMessages() << "\n"
              << "inputs:     " << g.inputTasks().size() << "\n"
              << "outputs:    " << g.outputTasks().size() << "\n"
              << "tau_c:      " << tm.tauC(g) << " us\n"
              << "tau_m:      " << tm.tauM(g) << " us\n"
              << "crit. path: " << t.criticalPath << " us\n"
              << "SR latency: " << t.windowLatency
              << " us (tau_c-window schedule)\n";
    return 0;
}

int
cmdCompile(const Options &opts)
{
    const TaskFlowGraph g = loadTfg(opts);
    const auto topo = makeTopology(opts.str("topo"));
    TimingModel tm;
    tm.apSpeed = opts.num("ap-speed", 1.0);
    tm.bandwidth = opts.num("bandwidth", 64.0);
    const Time period = opts.num("period", 0.0);
    if (period <= 0.0)
        fatal("--period US is required");

    const TaskAllocation alloc =
        makeAllocation(opts, g, *topo, tm, period);

    enableObservability(opts);

    SrCompilerConfig cfg;
    cfg.inputPeriod = period;
    cfg.feedbackRounds = static_cast<int>(opts.num("feedback", 0));
    cfg.scheduling.guardTime = opts.num("guard", 0.0);
    cfg.assign.seed =
        static_cast<std::uint64_t>(opts.num("seed", 12345));

    const SrCompileResult r =
        compileScheduledRouting(g, *topo, alloc, tm, cfg);
    if (!r.feasible) {
        std::cout << "infeasible at period " << period << " us: "
                  << r.detail << " (stage "
                  << srFailureStageName(r.stage) << ")\n";
        writeObservability(opts);
        return 1;
    }

    const SrExecutionResult ex =
        executeSchedule(g, alloc, tm, r.bounds, r.omega, 30);

    // Tracing a compile also runs the CP-level simulation so the
    // trace carries link-occupancy and crossbar-command tracks, not
    // just compiler phases.
    if (opts.has("trace") || opts.has("metrics"))
        simulateCps(g, *topo, alloc, tm, r.bounds, r.omega);

    std::cout << "feasible: " << r.bounds.messages.size()
              << " network messages, peak U = "
              << r.utilization.peak << ", " << r.numSubsets
              << " subsets, verified contention-free\n"
              << "throughput: constant, one output every "
              << ex.outputIntervals(5).mean() << " us\n"
              << "latency:    " << ex.latencies(5).mean()
              << " us\n";

    // Degraded-mode repair: strike the fabric, reschedule on the
    // survivors, report what each message's deadline suffered.
    const GlobalSchedule *outOmega = &r.omega;
    fault::RepairResult rep;
    if (opts.has("faults")) {
        const std::string spec = opts.str("faults");
        fault::applyFaultSpec(spec, *topo);
        rep = fault::repairSchedule(g, *topo, alloc, tm, cfg, r,
                                    spec);
        std::cout << "faults: " << spec << " ("
                  << topo->numLiveLinks() << "/" << topo->numLinks()
                  << " links live)\n";
        if (!rep.feasible) {
            std::cout << "degraded-mode repair FAILED: "
                      << rep.detail << "\n";
            writeObservability(opts);
            return 1;
        }
        int nFate[4] = {0, 0, 0, 0};
        for (fault::MessageFate f : rep.fates)
            ++nFate[static_cast<int>(f)];
        std::cout << "repair: "
                  << (rep.usedIncremental ? "incremental"
                                          : "full recompile")
                  << ", subsets re-solved " << rep.subsetsResolved
                  << "/" << rep.subsetsTotal
                  << ", degraded period " << rep.degradedPeriod
                  << " us"
                  << (rep.omega.degradedFrom > 0.0 ? " (stretched)"
                                                   : "")
                  << "\n"
                  << "fates: " << nFate[0] << " survived, "
                  << nFate[1] << " rerouted, " << nFate[2]
                  << " degraded, " << nFate[3] << " shed\n";
        for (MessageId m = 0;
             m < static_cast<MessageId>(rep.fates.size()); ++m) {
            const fault::MessageFate f =
                rep.fates[static_cast<std::size_t>(m)];
            if (f != fault::MessageFate::Survived)
                std::cout << "  message '" << g.message(m).name
                          << "': " << fault::messageFateName(f)
                          << "\n";
        }
        outOmega = &rep.omega;
    }

    if (opts.has("out")) {
        std::ofstream out(opts.str("out"));
        if (!out)
            fatal("cannot write '", opts.str("out"), "'");
        writeSchedule(out, *outOmega);
        std::cout << "schedule written to " << opts.str("out")
                  << "\n";
    }
    if (opts.has("svg")) {
        std::ofstream out(opts.str("svg"));
        if (!out)
            fatal("cannot write '", opts.str("svg"), "'");
        renderScheduleSvg(out, g, *topo, r.bounds, r.omega);
        std::cout << "Gantt chart written to " << opts.str("svg")
                  << "\n";
    }
    if (opts.has("node-schedules")) {
        const auto nodes = deriveNodeSchedules(g, *topo, alloc,
                                               r.bounds, r.omega);
        for (const NodeSchedule &ns : nodes)
            if (!ns.commands.empty())
                printNodeSchedule(std::cout, ns, g);
    }
    writeObservability(opts);
    return 0;
}

int
cmdSimulate(const Options &opts)
{
    const TaskFlowGraph g = loadTfg(opts);
    const auto topo = makeTopology(opts.str("topo"));
    TimingModel tm;
    tm.apSpeed = opts.num("ap-speed", 1.0);
    tm.bandwidth = opts.num("bandwidth", 64.0);
    const Time period = opts.num("period", 0.0);
    if (period <= 0.0)
        fatal("--period US is required");

    const TaskAllocation alloc =
        makeAllocation(opts, g, *topo, tm, period);

    enableObservability(opts);

    WormholeSimulator sim(g, *topo, alloc, tm);
    WormholeConfig cfg;
    cfg.inputPeriod = period;
    cfg.invocations =
        static_cast<int>(opts.num("invocations", 60));
    cfg.virtualChannels = static_cast<int>(opts.num("vc", 1));
    const WormholeResult r = sim.run(cfg);
    writeObservability(opts);

    if (r.deadlocked) {
        std::cout << "wormhole routing DEADLOCKED: "
                  << r.deadlockInfo << "\n";
        return 1;
    }
    const SeriesStats s = r.outputIntervals(cfg.warmup);
    const SeriesStats lat = r.latencies(cfg.warmup);
    std::cout << "output interval min/avg/max: " << s.min() << "/"
              << s.mean() << "/" << s.max() << " us\n"
              << "latency min/avg/max:         " << lat.min()
              << "/" << lat.mean() << "/" << lat.max() << " us\n";
    if (r.outputInconsistent(cfg.warmup)) {
        std::cout << "verdict: OUTPUT INCONSISTENCY\n";
        return 1;
    }
    std::cout << "verdict: consistent\n";
    return 0;
}

double
percentileOf(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double idx =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi =
        std::min(lo + 1, sorted.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void
writeDaemonResponseJson(JsonWriter &w,
                        const server::DaemonResponse &resp)
{
    w.beginObject();
    w.kv("id", resp.id);
    w.kv("session", resp.session);
    w.kv("kind", resp.kind);
    w.kv("outcome", server::daemonOutcomeName(resp.outcome));
    if (!resp.detail.empty())
        w.kv("detail", resp.detail);
    w.kv("queueMs", resp.queueMs);
    // close has no scheduler verdict: nothing is compiled.
    if (resp.outcome == server::DaemonOutcome::Ok &&
        resp.kind != "close") {
        w.kv("accepted", resp.result.accepted);
        w.kv("reason",
             online::rejectReasonName(resp.result.reason));
        if (!resp.result.detail.empty())
            w.kv("resultDetail", resp.result.detail);
        w.kv("subsetsResolved", static_cast<std::uint64_t>(
                                    resp.result.subsetsResolved));
        w.kv("subsetsCopied", static_cast<std::uint64_t>(
                                  resp.result.subsetsCopied));
        w.kv("usedCache", resp.result.usedCache);
        w.kv("usedIncremental", resp.result.usedIncremental);
        w.kv("usedFullCompile", resp.result.usedFullCompile);
        w.kv("latencyMs", resp.result.latencyMs);
        w.kv("period", resp.result.period);
        w.kv("peakU", resp.result.peakUtilization);
    }
    w.endObject();
}

int
cmdDaemon(const Options &opts)
{
    // Parse the whole script before constructing the daemon so a
    // malformed line is a usage error, not a half-applied run.
    server::DaemonScriptParseResult script;
    if (opts.has("script")) {
        const std::string path = opts.str("script");
        std::ifstream in(path);
        if (!in)
            fatal("cannot open script file '", path, "'");
        script = server::parseDaemonScript(in);
    } else {
        script = server::parseDaemonScript(std::cin);
    }
    if (!script.ok)
        fatal("invalid input: script line ", script.errorLine,
              ": ", script.error);

    std::ofstream outFile;
    std::ostream *os = &std::cout;
    if (opts.has("out")) {
        outFile.open(opts.str("out"));
        if (!outFile)
            fatal("cannot write '", opts.str("out"), "'");
        os = &outFile;
    }

    enableObservability(opts);

    server::DaemonConfig cfg;
    cfg.workers =
        static_cast<std::size_t>(opts.num("workers", 1));
    cfg.queueCap =
        static_cast<std::size_t>(opts.num("queue-cap", 64));
    cfg.stateDir = opts.str("state-dir");
    cfg.snapshotEvery =
        static_cast<std::size_t>(opts.num("snapshot-every", 0));
    cfg.walSyncEvery =
        static_cast<std::size_t>(opts.num("wal-sync-every", 1));
    cfg.deadlineMs = opts.num("deadline-ms", 0.0);
    cfg.cacheCapacity =
        static_cast<std::size_t>(opts.num("cache-cap", 64));

    server::SchedulingDaemon daemon(cfg);

    const server::RecoveryResult &rec = daemon.recovery();
    if (rec.attempted) {
        JsonWriter w(*os);
        w.beginObject();
        w.key("recovery").beginObject();
        w.kv("walRecords", rec.walRecords);
        w.kv("walTornTail", rec.walTornTail);
        if (!rec.snapshotPath.empty()) {
            w.kv("snapshot", rec.snapshotPath);
            w.kv("snapshotSeq", rec.snapshotSeq);
        }
        w.kv("replayed", rec.replayed);
        w.kv("replayRejected", rec.replayRejected);
        w.kv("rejectedSnapshots",
             static_cast<std::uint64_t>(
                 rec.rejectedSnapshots.size()));
        w.kv("sessions",
             static_cast<std::uint64_t>(rec.sessionsRestored));
        w.endObject();
        w.endObject();
        *os << "\n";
    }

    const std::vector<server::DaemonResponse> responses =
        daemon.run(script.ops);
    std::uint64_t accepted = 0, rejected = 0, overloaded = 0,
                  expired = 0;
    std::vector<double> queueWaits;
    for (const server::DaemonResponse &resp : responses) {
        JsonWriter w(*os);
        writeDaemonResponseJson(w, resp);
        *os << "\n";
        switch (resp.outcome) {
          case server::DaemonOutcome::Ok:
              if (resp.result.accepted)
                  ++accepted;
              else
                  ++rejected;
              break;
          case server::DaemonOutcome::Overloaded:
              ++overloaded;
              break;
          case server::DaemonOutcome::DeadlineExpired:
              ++expired;
              break;
          default:
              ++rejected;
              break;
        }
        queueWaits.push_back(resp.queueMs);
    }

    daemon.shutdown();

    const online::ScheduleCache &cache = daemon.cache();
    {
        JsonWriter w(*os);
        w.beginObject();
        w.key("summary").beginObject();
        w.kv("requests", static_cast<std::uint64_t>(
                             responses.size()));
        w.kv("accepted", accepted);
        w.kv("rejected", rejected);
        w.kv("overloaded", overloaded);
        w.kv("deadlineExpired", expired);
        w.kv("sessions", static_cast<std::uint64_t>(
                             daemon.sessionNames().size()));
        w.kv("walRecords", daemon.walRecords());
        w.kv("walFsyncs", daemon.walFsyncs());
        w.kv("snapshots", daemon.snapshotsWritten());
        w.key("cache").beginObject();
        w.kv("hits", cache.hits());
        w.kv("misses", cache.misses());
        w.kv("evictions", cache.evictions());
        w.kv("entries",
             static_cast<std::uint64_t>(cache.size()));
        w.kv("bytes", cache.bytes());
        w.endObject();
        {
            // Every session registry writes through to the root's,
            // so the root holds the daemon-wide solver totals.
            metrics::Registry &root =
                engine::EngineContext::processDefault()
                    .metricsRegistry();
            const auto count = [&](const char *name) {
                return root.counter(name).value();
            };
            w.key("solver").beginObject();
            w.kv("solves", count("solver.solves"));
            w.kv("pivots", count("solver.pivots"));
            w.key("warmstart").beginObject();
            w.kv("attempts", count("solver.warmstart.attempts"));
            w.kv("hits", count("solver.warmstart.hits"));
            w.kv("misses", count("solver.warmstart.misses"));
            w.endObject();
            w.endObject();
        }
        // Per-session metrics from each session's child registry.
        // Purely additive: every aggregate field above is computed
        // exactly as before, so pre-existing consumers see
        // byte-identical values.
        w.key("sessions").beginObject();
        for (const auto &[name, reg] : daemon.sessionMetrics()) {
            w.key(name).beginObject();
            w.key("metrics").beginObject();
            for (const auto &[cname, val] :
                 reg->counterSnapshot())
                w.kv(cname, val);
            w.endObject();
            w.endObject();
        }
        w.endObject();
        w.key("queueMs").beginObject();
        w.kv("count", static_cast<std::uint64_t>(
                          queueWaits.size()));
        if (!queueWaits.empty()) {
            w.kv("p50", percentileOf(queueWaits, 50.0));
            w.kv("p95", percentileOf(queueWaits, 95.0));
            w.kv("p99", percentileOf(queueWaits, 99.0));
        }
        w.endObject();
        w.endObject();
        w.endObject();
        *os << "\n";
    }

    writeObservability(opts);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    Options opts;
    opts.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            return usage();
        arg = arg.substr(2);
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            opts.kv[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (arg == "node-schedules" || arg == "stdin") {
            opts.kv[arg] = "1";
        } else if (i + 1 < argc) {
            opts.kv[arg] = argv[++i];
        } else {
            return usage();
        }
    }

    try {
        validateFlags(opts);
        configureRootContext(opts);
        if (opts.command == "info")
            return cmdInfo(opts);
        if (opts.command == "compile")
            return cmdCompile(opts);
        if (opts.command == "simulate")
            return cmdSimulate(opts);
        if (opts.command == "daemon")
            return cmdDaemon(opts);
        return usage();
    } catch (const srsim::FatalError &) {
        return 2;
    }
}
