/**
 * @file
 * Solver warm-start benchmark: pivots and wall time, cold vs warm.
 *
 * Two scenarios where the revised solver's warm starts should pay:
 *
 *  - `churn`: admit/remove cycles of one skip-edge message through
 *    the online service on the fig10 workload (DVB TFG, 4x4x4
 *    torus, bandwidth 128), with the content-addressed schedule
 *    cache OFF so every request is a real dirty-subset re-solve.
 *    Under SRSIM_SOLVER=dense every re-solve is a cold two-phase
 *    run; under the default warm-start stack the recurring subsets
 *    hit the per-subset basis cache after the first cycle and
 *    resume in a handful of pivots.
 *
 *  - `mip`: branch-and-bound over packet-granular covering
 *    programs. Children warm-start from the parent node's optimal
 *    basis (one appended bound row, dual-simplex repair) instead of
 *    solving each node from scratch.
 *
 * Both run the identical request stream under SolverKind::Dense
 * (cold baseline) and SolverKind::Sparse (warm), reporting total
 * simplex pivots, warm-start hit rates, and wall time. Pivot counts
 * are deterministic; wall time is reported but not a gate. Prints a
 * human summary to stderr and JSON to stdout (or argv[1]).
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "engine/context.hh"
#include "mapping/allocation.hh"
#include "metrics/metrics.hh"
#include "online/service.hh"
#include "solver/lp.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/factory.hh"
#include "util/json.hh"

namespace {

using namespace srsim;

double
wallMs(const std::function<void()> &body)
{
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0)
        .count();
}

/** The solver.* counters one run added to a registry. */
struct SolverTotals
{
    std::uint64_t solves = 0, pivots = 0, warmHits = 0,
                  warmMisses = 0, mipNodes = 0;

    static SolverTotals
    read(metrics::Registry &reg)
    {
        SolverTotals t;
        t.solves = reg.counter("solver.solves").value();
        t.pivots = reg.counter("solver.pivots").value();
        t.warmHits = reg.counter("solver.warmstart.hits").value();
        t.warmMisses =
            reg.counter("solver.warmstart.misses").value();
        t.mipNodes = reg.counter("solver.mip.nodes").value();
        return t;
    }

    SolverTotals
    operator-(const SolverTotals &o) const
    {
        return {solves - o.solves, pivots - o.pivots,
                warmHits - o.warmHits, warmMisses - o.warmMisses,
                mipNodes - o.mipNodes};
    }
};

/** One run's solver-side tally. */
struct Tally
{
    double wall_ms = 0.0;
    SolverTotals stats;
};

/**
 * Admit/remove churn on the fig10 workload with the schedule cache
 * off: every request re-solves the touched subsets for real.
 */
Tally
runChurn(int rounds, const engine::EngineContext *ctx)
{
    DvbParams dvb;
    TaskFlowGraph g = buildDvbTfg(dvb);
    TimingModel tm;
    tm.apSpeed = dvb.matchedApSpeed();
    tm.bandwidth = 128.0;
    const auto topo = makeTopology("torus:4,4,4");
    const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);

    online::OnlineSchedulerConfig scfg;
    scfg.compiler.ctx = ctx;
    scfg.compiler.inputPeriod = 2.4 * tm.tauC(g);
    scfg.cacheCapacity = 0;

    Tally t;
    metrics::Registry &reg = engine::resolve(ctx).metricsRegistry();
    SolverTotals base;
    t.wall_ms = wallMs([&] {
        online::OnlineScheduler svc(g, makeTopology("torus:4,4,4"),
                                    alloc, tm, scfg);
        if (!svc.start().accepted) {
            std::cerr << "initial compile rejected\n";
            std::exit(1);
        }
        // Count from after start(): the initial full compile is cold
        // under both kinds and would dilute the churn comparison.
        base = SolverTotals::read(reg);
        online::AdmitSpec spec;
        spec.name = "hot";
        spec.src = "probe";
        spec.dst = "verify";
        spec.bytes = 256.0;
        for (int r = 0; r < rounds; ++r) {
            if (!svc.admit(spec).accepted) {
                std::cerr << "admission rejected\n";
                std::exit(1);
            }
            svc.remove(spec.name);
        }
    });
    t.stats = SolverTotals::read(reg) - base;
    return t;
}

/**
 * Branch-and-bound stress: integral covering programs whose LP
 * relaxations sit at fractional vertices, forcing deep trees.
 */
Tally
runMip(int instances, lp::SolverKind kind)
{
    Tally t;
    metrics::Registry reg;
    t.wall_ms = wallMs([&] {
        for (int k = 0; k < instances; ++k) {
            // min sum x_i over {0,1,...}^n with pairwise covering
            // rows a*x_i + b*x_j >= r; odd cycles make the
            // relaxation fractional (x = r/(a+b) everywhere).
            lp::Problem p;
            const int n = 7 + (k % 3);
            for (int i = 0; i < n; ++i) {
                p.addVariable(1.0 + 0.01 * i);
                p.markInteger(static_cast<std::size_t>(i));
            }
            for (int i = 0; i < n; ++i) {
                const auto a = static_cast<std::size_t>(i);
                const auto b =
                    static_cast<std::size_t>((i + 1) % n);
                p.addConstraint({{a, 1.0}, {b, 1.0}},
                                lp::Relation::GreaterEq,
                                3.0 + 0.5 * (k % 4));
            }
            lp::MipOptions mo;
            mo.lp.kind = kind;
            mo.lp.registry = &reg;
            const lp::Solution s = lp::solveMip(p, mo);
            if (s.status != lp::Status::Optimal) {
                std::cerr << "mip instance " << k << " not optimal\n";
                std::exit(1);
            }
        }
    });
    t.stats = SolverTotals::read(reg);
    return t;
}

void
report(std::ostream &os, const char *scenario, const Tally &cold,
       const Tally &warm)
{
    const double ratio =
        warm.stats.pivots > 0
            ? static_cast<double>(cold.stats.pivots) /
                  static_cast<double>(warm.stats.pivots)
            : 0.0;
    std::cerr << "#   " << scenario << ": cold "
              << cold.stats.pivots << " pivots / " << cold.wall_ms
              << " ms; warm " << warm.stats.pivots << " pivots / "
              << warm.wall_ms << " ms (" << ratio
              << "x fewer pivots; " << warm.stats.warmHits
              << " hits, " << warm.stats.warmMisses << " misses)\n";
    JsonWriter w(os);
    w.beginObject();
    w.kv("scenario", scenario);
    w.key("cold").beginObject();
    w.kv("pivots", cold.stats.pivots);
    w.kv("solves", cold.stats.solves);
    w.kv("wall_ms", cold.wall_ms);
    w.endObject();
    w.key("warm").beginObject();
    w.kv("pivots", warm.stats.pivots);
    w.kv("solves", warm.stats.solves);
    w.kv("warmstart_hits", warm.stats.warmHits);
    w.kv("warmstart_misses", warm.stats.warmMisses);
    w.kv("mip_nodes", warm.stats.mipNodes);
    w.kv("wall_ms", warm.wall_ms);
    w.endObject();
    w.kv("pivot_reduction", ratio);
    w.endObject();
    os << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::ofstream file;
    if (argc > 1) {
        file.open(argv[1]);
        if (!file) {
            std::cerr << "cannot open " << argv[1] << "\n";
            return 1;
        }
    }
    std::ostream &os = argc > 1 ? file : std::cout;

    std::cerr << "# solver_bench: cold (SRSIM_SOLVER=dense) vs "
                 "warm-started re-solves\n";

    // Solver kind is per-context now: pin each stack in its own
    // child context instead of flipping a process global.
    engine::ChildOptions dopts, sopts;
    dopts.name = "bench.dense";
    dopts.solverKind = lp::SolverKind::Dense;
    sopts.name = "bench.sparse";
    sopts.solverKind = lp::SolverKind::Sparse;
    const auto denseCtx =
        engine::EngineContext::processDefault().createChild(dopts);
    const auto sparseCtx =
        engine::EngineContext::processDefault().createChild(sopts);

    const Tally churn_cold = runChurn(10, denseCtx.get());
    const Tally mip_cold = runMip(6, lp::SolverKind::Dense);
    const Tally churn_warm = runChurn(10, sparseCtx.get());
    const Tally mip_warm = runMip(6, lp::SolverKind::Sparse);

    report(os, "online_churn", churn_cold, churn_warm);
    report(os, "mip_branch_and_bound", mip_cold, mip_warm);

    const bool churn_ok =
        churn_warm.stats.pivots * 2 <= churn_cold.stats.pivots;
    const bool mip_ok =
        mip_warm.stats.pivots * 2 <= mip_cold.stats.pivots;
    std::cerr << "#   2x pivot-reduction target: churn "
              << (churn_ok ? "met" : "MISSED") << ", mip "
              << (mip_ok ? "met" : "MISSED") << "\n";
    return 0;
}
