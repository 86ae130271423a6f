/**
 * @file
 * srbench: one command that runs a named srsim workload, checks its
 * outputs, and prints its metrics.
 *
 *   srbench --workload fig_sweep|online_churn|daemon_durable
 *           --seed N --seconds S --trace 0|1 [--workdir DIR]
 *
 * The last line of stdout is one JSON object
 * {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
 * metrics are the end-to-end set, with --trace 1 the per-layer set.
 * Lines before it are a human summary, the fingerprint counters and
 * any failed checks. Exit code 0 only when every check passed.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "bench.hh"

namespace srbench {

namespace {

/** End-to-end metrics every untraced run reports (BENCHMARK.json). */
const std::vector<std::string> kEndToEnd = {
    "setup_s",        "ops_per_s",   "latency_ms_p50",
    "latency_ms_p99", "max_rate_rps", "recovery_s",
    "reject_rate",    "feasible_points", "peak_util_mean",
    "peak_rss_mb"};

/**
 * Per-layer metrics every traced run reports. A layer that does not
 * run in a workload reports 0 for its metrics.
 */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"core.time_bounds.ms", "ms"},
    {"core.intervals.ms", "ms"},
    {"core.assign_paths.ms", "ms"},
    {"core.assign_paths.restarts", "count"},
    {"core.assign_paths.reroutes", "count"},
    {"core.subsets.ms", "ms"},
    {"core.subsets.count", "count"},
    {"core.interval_allocation.ms", "ms"},
    {"core.interval_scheduling.ms", "ms"},
    {"core.verifier.ms", "ms"},
    {"solver.solves", "count"},
    {"solver.pivots", "count"},
    {"solver.warmstart.hit_rate", "share"},
    {"cpsim.ms", "ms"},
    {"cpsim.commands_executed", "count"},
    {"wormhole.ms", "ms"},
    {"wormhole.messages_injected", "count"},
    {"wormhole.link_blocks", "count"},
    {"online.admit.ms_p50", "ms"},
    {"online.admit.ms_p99", "ms"},
    {"online.remove.ms_p50", "ms"},
    {"online.period.ms_p50", "ms"},
    {"online.cache.hit_rate", "share"},
    {"online.incremental_share", "share"},
    {"online.full_compiles", "count"},
    {"online.subsets_resolved", "count"},
    {"online.subsets_copied_share", "share"},
    {"server.queue_wait_ms_p50", "ms"},
    {"server.queue_wait_ms_p99", "ms"},
    {"server.queue_depth_max", "count"},
    {"server.service_ms_p50", "ms"},
    {"server.wal_fsync_us_p50", "us"},
    {"server.wal_fsync_us_p99", "us"},
    {"server.wal_fsyncs", "count"},
    {"server.wal_records", "count"},
    {"server.snapshots", "count"},
    {"server.recovery_ms", "ms"},
    {"cache.hit_rate", "share"},
    {"bench.gen_lag_ms_p99", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.layer_coverage", "share"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "srbench: " << why
              << "\nusage: srbench --workload "
                 "fig_sweep|online_churn|daemon_durable --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n";
    std::exit(2);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace srbench

int
main(int argc, char **argv)
{
    using namespace srbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::stoull(v);
            else if (a == "--seconds")
                opt.seconds = std::stod(v);
            else if (a == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (a == "--workdir")
                opt.workDir = v;
            else
                usage("unknown option " + a);
        } catch (const std::exception &) {
            usage("bad value '" + v + "' for " + a);
        }
    }
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");

    std::error_code ec;
    std::filesystem::create_directories(opt.workDir, ec);
    if (ec)
        usage("cannot create work directory " + opt.workDir);

    Report rep;
    try {
        if (opt.workload == "fig_sweep")
            rep = runFigSweep(opt);
        else if (opt.workload == "online_churn")
            rep = runOnlineChurn(opt);
        else if (opt.workload == "daemon_durable")
            rep = runDaemonDurable(opt);
        else
            usage("unknown workload '" + opt.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "srbench: " << opt.workload << " aborted: "
                  << e.what() << "\n";
        return 1;
    }

    // Keep exactly the metric set of this mode, in a fixed order; a
    // traced run's layers that did not run report 0.
    std::map<std::string, std::pair<double, std::string>> got;
    for (const auto &[name, value, unit] : rep.metrics)
        got[name] = {value, unit};
    std::vector<std::tuple<std::string, double, std::string>> out;
    if (opt.trace) {
        for (const auto &[name, unit] : kPerLayer) {
            const auto it = got.find(name);
            out.emplace_back(name,
                             it == got.end() ? 0.0 : it->second.first,
                             unit);
        }
    } else {
        got["peak_rss_mb"] = {peakRssMb(), "MB"};
        for (const std::string &name : kEndToEnd) {
            const auto it = got.find(name);
            if (it == got.end()) {
                rep.fail("workload did not report " + name);
                continue;
            }
            out.emplace_back(name, it->second.first, it->second.second);
        }
    }

    std::ostringstream human;
    human << "# " << opt.workload << " seed " << opt.seed << " trace "
          << opt.trace << ": attempted " << rep.attempted
          << ", failed " << rep.failed << ", error_rate "
          << (rep.attempted > 0
                  ? static_cast<double>(rep.failed) /
                        static_cast<double>(rep.attempted)
                  : 0.0)
          << "\n";
    for (const auto &[name, value, unit] : out)
        human << "#   " << name << " = " << jsonNumber(value) << " "
              << unit << "\n";
    for (const std::string &e : rep.errors)
        human << "# FAILED CHECK: " << e << "\n";
    std::cout << human.str();

    std::cout << "# fingerprint {";
    for (std::size_t i = 0; i < rep.fingerprint.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << rep.fingerprint[i].first
                  << "\": " << rep.fingerprint[i].second;
    std::cout << "}\n";

    const bool correct = rep.failed == 0 && rep.attempted > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << rep.attempted
              << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        const auto &[name, value, unit] = out[i];
        std::cout << (i ? ", " : "") << "\"" << name
                  << "\": {\"value\": " << jsonNumber(value)
                  << ", \"unit\": \"" << unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}
