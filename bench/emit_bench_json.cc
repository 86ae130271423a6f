/**
 * @file
 * Machine-readable benchmark emitter: runs the micro_perf scenarios
 * once each (no google-benchmark statistics — this is a CI artifact,
 * not a measurement paper) with the metrics registry enabled, and
 * writes `{"benchmarks": [{"name", "wall_ms", "counters": {...}}]}`
 * so `bench/` runs populate BENCH_srsim.json for trend tracking.
 *
 * Usage: emit_bench_json [out.json]   (default: BENCH_srsim.json)
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include <algorithm>

#include "core/sr_compiler.hh"
#include "cpsim/cp_simulator.hh"
#include "engine/context.hh"
#include "exp/experiment.hh"
#include "mapping/allocation.hh"
#include "metrics/metrics.hh"
#include "online/service.hh"
#include "server/daemon.hh"
#include "server/protocol.hh"
#include "solver/lp.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/factory.hh"
#include "topology/generalized_hypercube.hh"
#include "util/json.hh"
#include "wormhole/wormhole.hh"

namespace {

using namespace srsim;

struct DvbSetup
{
    DvbParams dp;
    TaskFlowGraph g = buildDvbTfg(dp);
    GeneralizedHypercube cube = GeneralizedHypercube::binaryCube(6);
    TimingModel tm;
    TaskAllocation alloc;

    DvbSetup() : alloc(alloc::roundRobin(g, cube, 13))
    {
        tm.apSpeed = dp.matchedApSpeed();
        tm.bandwidth = 128.0;
    }
};

struct BenchRecord
{
    std::string name;
    double wallMs = 0.0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

BenchRecord
runScenario(const std::string &name,
            const std::function<void()> &body)
{
    auto &reg = metrics::Registry::global();
    reg.clear();
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    BenchRecord rec;
    rec.name = name;
    rec.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    rec.counters = reg.counterSnapshot();
    std::cerr << "# " << name << ": " << rec.wallMs << " ms\n";
    return rec;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_srsim.json";
    metrics::Registry::setEnabled(true);

    DvbSetup s;
    const Time tau_c = s.tm.tauC(s.g);
    std::vector<BenchRecord> records;

    records.push_back(runScenario("sr_compile_load_1.0", [&] {
        SrCompilerConfig cfg;
        cfg.inputPeriod = tau_c;
        compileScheduledRouting(s.g, s.cube, s.alloc, s.tm, cfg);
    }));

    records.push_back(runScenario("sr_compile_load_0.5", [&] {
        SrCompilerConfig cfg;
        cfg.inputPeriod = 2.0 * tau_c;
        compileScheduledRouting(s.g, s.cube, s.alloc, s.tm, cfg);
    }));

    records.push_back(runScenario("wormhole_60inv", [&] {
        WormholeConfig cfg;
        cfg.inputPeriod = tau_c;
        cfg.invocations = 60;
        cfg.warmup = 5;
        WormholeSimulator sim(s.g, s.cube, s.alloc, s.tm);
        sim.run(cfg);
    }));

    records.push_back(runScenario("cpsim_30inv", [&] {
        SrCompilerConfig cfg;
        cfg.inputPeriod = 2.0 * tau_c;
        const SrCompileResult sr = compileScheduledRouting(
            s.g, s.cube, s.alloc, s.tm, cfg);
        if (sr.feasible)
            simulateCps(s.g, s.cube, s.alloc, s.tm, sr.bounds,
                        sr.omega);
    }));

    records.push_back(runScenario("assign_paths_12restarts", [&] {
        const TimeBounds tb = computeTimeBounds(
            s.g, s.alloc, s.tm, 2.0 * tau_c);
        const IntervalSet ivs(tb);
        AssignPathsOptions opts;
        opts.maxRestarts = 12;
        assignPaths(s.g, s.cube, s.alloc, tb, ivs, opts);
    }));

    records.push_back(runScenario("utilization_sweep", [&] {
        ExperimentConfig cfg;
        runUtilizationExperiment(s.g, s.cube, s.alloc, s.tm, cfg);
    }));

    // Online service: the fig10 torus workload absorbing skip-edge
    // admissions. The online.* counters (subsets copied vs
    // re-solved, cache hits) land in the snapshot automatically;
    // the derived latency percentiles are recorded as bench.*
    // counters in microseconds.
    const auto onlineSetup = [] {
        struct
        {
            DvbParams dvb;
            TaskFlowGraph g;
            TimingModel tm;
        } o;
        o.g = buildDvbTfg(o.dvb);
        o.tm.apSpeed = o.dvb.matchedApSpeed();
        o.tm.bandwidth = 128.0;
        return o;
    };
    const auto pctUs = [](std::vector<double> ms, double p) {
        std::sort(ms.begin(), ms.end());
        const double rank =
            p / 100.0 * static_cast<double>(ms.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, ms.size() - 1);
        const double v = ms[lo] + (rank - static_cast<double>(lo)) *
                                      (ms[hi] - ms[lo]);
        return static_cast<std::uint64_t>(1000.0 * v);
    };
    const std::vector<std::pair<const char *, const char *>> skips =
        {{"match", "probe"},
         {"hough", "extend"},
         {"probe", "verify"},
         {"extend", "filter"}};

    records.push_back(runScenario("online_churn_incremental", [&] {
        auto o = onlineSetup();
        const auto topo = makeTopology("torus:4,4,4");
        const TaskAllocation alloc =
            alloc::roundRobin(o.g, *topo, 13);
        online::OnlineSchedulerConfig scfg;
        scfg.compiler.inputPeriod = 2.4 * o.tm.tauC(o.g);
        scfg.cacheCapacity = 0; // every admit is a real re-solve
        online::OnlineScheduler svc(o.g, makeTopology("torus:4,4,4"),
                                    alloc, o.tm, scfg);
        svc.start();
        std::vector<double> ms;
        for (std::size_t r = 0; r < 8; ++r) {
            online::AdmitSpec spec;
            spec.name = "bench" + std::to_string(r);
            spec.src = skips[r % skips.size()].first;
            spec.dst = skips[r % skips.size()].second;
            spec.bytes = 128.0 + 16.0 * static_cast<double>(r);
            const online::RequestResult res = svc.admit(spec);
            if (res.accepted)
                ms.push_back(res.latencyMs);
            svc.remove(spec.name);
        }
        auto &reg = metrics::Registry::global();
        if (!ms.empty()) {
            reg.counter("bench.online.admit_p50_us")
                .add(pctUs(ms, 50.0));
            reg.counter("bench.online.admit_p95_us")
                .add(pctUs(ms, 95.0));
        }
    }));

    records.push_back(
        runScenario("online_churn_full_recompile", [&] {
            auto o = onlineSetup();
            const auto topo = makeTopology("torus:4,4,4");
            const TaskAllocation alloc =
                alloc::roundRobin(o.g, *topo, 13);
            SrCompilerConfig cfg;
            cfg.inputPeriod = 2.4 * o.tm.tauC(o.g);
            for (std::size_t r = 0; r < 8; ++r) {
                TaskFlowGraph g2 = o.g;
                TaskId src = kInvalidTask, dst = kInvalidTask;
                for (TaskId t = 0; t < g2.numTasks(); ++t) {
                    if (g2.task(t).name == skips[r % skips.size()]
                                               .first)
                        src = t;
                    if (g2.task(t).name == skips[r % skips.size()]
                                               .second)
                        dst = t;
                }
                g2.addMessage("bench" + std::to_string(r), src,
                              dst,
                              128.0 + 16.0 * static_cast<double>(r));
                compileScheduledRouting(g2, *topo, alloc, o.tm,
                                        cfg);
            }
        }));

    records.push_back(runScenario("online_churn_cache", [&] {
        auto o = onlineSetup();
        const auto topo = makeTopology("torus:4,4,4");
        const TaskAllocation alloc =
            alloc::roundRobin(o.g, *topo, 13);
        online::OnlineSchedulerConfig scfg;
        scfg.compiler.inputPeriod = 2.4 * o.tm.tauC(o.g);
        online::OnlineScheduler svc(o.g, makeTopology("torus:4,4,4"),
                                    alloc, o.tm, scfg);
        svc.start();
        online::AdmitSpec spec;
        spec.name = "hot";
        spec.src = "probe";
        spec.dst = "verify";
        spec.bytes = 256.0;
        for (int r = 0; r < 8; ++r) {
            svc.admit(spec);
            svc.remove(spec.name);
        }
        auto &reg = metrics::Registry::global();
        const std::uint64_t total =
            svc.cache().hits() + svc.cache().misses();
        if (total > 0)
            reg.counter("bench.online.cache_hit_rate_pct")
                .add(100 * svc.cache().hits() / total);
    }));

    // Daemon throughput: 4 sessions of the fig10 workload through
    // the multi-tenant daemon, cache off so every admit is a real
    // solve. One scenario per sweep point (1 worker; 4 workers;
    // 4 workers + WAL with per-record fsync) — the server.*
    // counters land in the snapshot, the derived request rate and
    // p95 go in as bench.* counters.
    const auto daemonScenario = [&](std::size_t workers, bool wal) {
        const int sessions = 4, rounds = 2;
        const std::filesystem::path state =
            std::filesystem::temp_directory_path() /
            "srsim-emit-bench-daemon";
        std::filesystem::remove_all(state);
        server::DaemonConfig cfg;
        cfg.workers = workers;
        cfg.queueCap =
            static_cast<std::size_t>(sessions * rounds) * 2 + 16;
        cfg.cacheCapacity = 0;
        if (wal)
            cfg.stateDir = state.string();
        server::SchedulingDaemon daemon(cfg);
        for (int k = 0; k < sessions; ++k) {
            server::SessionConfig sc;
            sc.name = "s" + std::to_string(k);
            sc.topo = "torus:4,4,4";
            sc.period = 120.0;
            sc.bandwidth = 128.0;
            sc.alloc = "rr:13";
            daemon.open(sc);
        }
        std::vector<std::future<server::DaemonResponse>> futs;
        const auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < rounds; ++r)
            for (int k = 0; k < sessions; ++k) {
                online::Request admit;
                admit.kind = online::RequestKind::AdmitMessage;
                online::AdmitSpec spec;
                spec.name = "bench" + std::to_string(r);
                spec.src = skips[static_cast<std::size_t>(r) %
                                 skips.size()]
                               .first;
                spec.dst = skips[static_cast<std::size_t>(r) %
                                 skips.size()]
                               .second;
                spec.bytes = 128.0 + 16.0 * static_cast<double>(r) +
                             static_cast<double>(k);
                admit.admits.push_back(std::move(spec));
                futs.push_back(daemon.submit(
                    "s" + std::to_string(k), std::move(admit)));
                online::Request remove;
                remove.kind = online::RequestKind::RemoveMessage;
                remove.name = "bench" + std::to_string(r);
                futs.push_back(daemon.submit(
                    "s" + std::to_string(k), std::move(remove)));
            }
        std::vector<double> ms;
        std::size_t served = 0;
        for (auto &f : futs) {
            const server::DaemonResponse r = f.get();
            ++served;
            if (r.outcome == server::DaemonOutcome::Ok &&
                r.result.accepted && r.kind == "admit")
                ms.push_back(r.result.latencyMs);
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double wallMs =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        auto &reg = metrics::Registry::global();
        if (wallMs > 0.0)
            reg.counter("bench.server.requests_per_sec")
                .add(static_cast<std::uint64_t>(
                    1000.0 * static_cast<double>(served) / wallMs));
        if (!ms.empty())
            reg.counter("bench.server.admit_p95_us")
                .add(pctUs(ms, 95.0));
        daemon.shutdown();
        std::filesystem::remove_all(state);
    };
    // Solver warm-start A/B: the identical admit/remove churn under
    // the cold dense stack and the warm-start stack, pivot totals
    // from each stack's own context registry into bench.solver.*
    // counters. Cache off so every request is a real re-solve; see
    // bench/solver_bench for the standalone version.
    records.push_back(runScenario("solver_warm_churn", [&] {
        struct Totals
        {
            std::uint64_t pivots, hits, misses;
        };
        const auto churn = [&](const engine::EngineContext &ctx,
                               std::vector<double> *ms) {
            auto o = onlineSetup();
            const auto topo = makeTopology("torus:4,4,4");
            const TaskAllocation alloc =
                alloc::roundRobin(o.g, *topo, 13);
            online::OnlineSchedulerConfig scfg;
            scfg.compiler.ctx = &ctx;
            scfg.compiler.inputPeriod = 2.4 * o.tm.tauC(o.g);
            scfg.cacheCapacity = 0;
            online::OnlineScheduler svc(
                o.g, makeTopology("torus:4,4,4"), alloc, o.tm,
                scfg);
            svc.start();
            metrics::Registry &reg = ctx.metricsRegistry();
            const auto totals = [&] {
                return Totals{
                    reg.counter("solver.pivots").value(),
                    reg.counter("solver.warmstart.hits").value(),
                    reg.counter("solver.warmstart.misses").value()};
            };
            const Totals base = totals(); // exclude the cold start()
            online::AdmitSpec spec;
            spec.name = "hot";
            spec.src = "probe";
            spec.dst = "verify";
            spec.bytes = 256.0;
            for (int r = 0; r < 8; ++r) {
                const online::RequestResult res = svc.admit(spec);
                if (res.accepted && ms != nullptr)
                    ms->push_back(res.latencyMs);
                svc.remove(spec.name);
            }
            const Totals end = totals();
            return Totals{end.pivots - base.pivots,
                          end.hits - base.hits,
                          end.misses - base.misses};
        };
        engine::ChildOptions dopts, sopts;
        dopts.name = "bench.dense";
        dopts.solverKind = lp::SolverKind::Dense;
        sopts.name = "bench.sparse";
        sopts.solverKind = lp::SolverKind::Sparse;
        const auto denseCtx =
            engine::EngineContext::processDefault().createChild(
                dopts);
        const auto sparseCtx =
            engine::EngineContext::processDefault().createChild(
                sopts);
        const Totals cold = churn(*denseCtx, nullptr);
        std::vector<double> ms;
        const Totals warm = churn(*sparseCtx, &ms);
        auto &reg = metrics::Registry::global();
        reg.counter("bench.solver.cold_pivots").add(cold.pivots);
        reg.counter("bench.solver.warm_pivots").add(warm.pivots);
        reg.counter("bench.solver.warmstart_hits").add(warm.hits);
        reg.counter("bench.solver.warmstart_misses")
            .add(warm.misses);
        if (warm.pivots > 0)
            reg.counter("bench.solver.pivot_reduction_pct")
                .add(100 * cold.pivots / warm.pivots);
        if (!ms.empty())
            reg.counter("bench.solver.warm_admit_p95_us")
                .add(pctUs(ms, 95.0));
    }));

    records.push_back(runScenario(
        "server_throughput_1w", [&] { daemonScenario(1, false); }));
    records.push_back(runScenario(
        "server_throughput_4w", [&] { daemonScenario(4, false); }));
    records.push_back(runScenario("server_throughput_4w_wal", [&] {
        daemonScenario(4, true);
    }));

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    JsonWriter w(out);
    w.beginObject();
    w.key("benchmarks").beginArray();
    for (const BenchRecord &rec : records) {
        w.beginObject();
        w.kv("name", rec.name);
        w.kv("wall_ms", rec.wallMs);
        w.key("counters").beginObject();
        for (const auto &[name, v] : rec.counters)
            w.kv(name, v);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << "\n";
    std::cerr << "# wrote " << out_path << "\n";
    return 0;
}
