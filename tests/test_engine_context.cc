/**
 * @file
 * Engine-context suite: environment pinning (SRSIM_SOLVER is read
 * once, never per-solve), child-context overrides (solver kind,
 * warm-start policy, thread budget, seed), and the write-through
 * metrics contract that keeps parent aggregates exact while each
 * child registry shows only its own activity, and the warm-start
 * pivot saving a Sparse child buys over a Dense one.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "engine/context.hh"
#include "mapping/allocation.hh"
#include "metrics/metrics.hh"
#include "online/service.hh"
#include "solver/lp.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/factory.hh"
#include "util/thread_pool.hh"

namespace srsim {
namespace {

using engine::ChildOptions;
using engine::EngineContext;

/** Restores (or unsets) an environment variable on scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *prev = std::getenv(name);
        hadPrev_ = prev != nullptr;
        if (hadPrev_)
            prev_ = prev;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadPrev_)
            ::setenv(name_, prev_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool hadPrev_ = false;
    std::string prev_;
};

// Satellite pin for the env-hoist: the default context resolves
// SRSIM_SOLVER exactly once (first touch), so flipping the variable
// mid-run must NOT flip the solver kind of later solves. Before the
// refactor lp.cc consulted getenv on every solve.
TEST(EngineContextEnv, MidRunSolverEnvChangeDoesNotFlipKind)
{
    const lp::SolverKind pinned =
        EngineContext::processDefault().solver().kind;
    const char *other =
        pinned == lp::SolverKind::Dense ? "sparse" : "dense";
    ScopedEnv env("SRSIM_SOLVER", other);
    EXPECT_EQ(EngineContext::processDefault().solver().kind,
              pinned);
    EXPECT_EQ(EngineContext::processDefault().solveOptions().kind,
              pinned);
    // A child created *after* the env change inherits the pinned
    // kind too — the environment is dead once the root is built.
    ChildOptions co;
    co.name = "env-test";
    const auto child =
        EngineContext::processDefault().createChild(co);
    EXPECT_EQ(child->solver().kind, pinned);
}

TEST(EngineContextChild, SolverKindAndWarmStartOverride)
{
    EngineContext &root = EngineContext::processDefault();

    ChildOptions dense;
    dense.name = "dense";
    dense.solverKind = lp::SolverKind::Dense;
    const auto d = root.createChild(dense);
    EXPECT_EQ(d->solver().kind, lp::SolverKind::Dense);
    EXPECT_EQ(d->solveOptions().kind, lp::SolverKind::Dense);
    // Unset fields inherit.
    EXPECT_EQ(d->solver().warmStart, root.solver().warmStart);

    ChildOptions nowarm;
    nowarm.name = "nowarm";
    nowarm.warmStart = false;
    const auto w = root.createChild(nowarm);
    EXPECT_FALSE(w->solver().warmStart);
    EXPECT_EQ(w->solver().kind, root.solver().kind);

    // solveOptions points at the child's own registry.
    EXPECT_EQ(d->solveOptions().registry, &d->metricsRegistry());
    EXPECT_NE(&d->metricsRegistry(), &root.metricsRegistry());
}

TEST(EngineContextChild, RegistryWritesThroughAndIsolates)
{
    EngineContext &root = EngineContext::processDefault();
    ChildOptions ao, bo;
    ao.name = "a";
    bo.name = "b";
    const auto a = root.createChild(ao);
    const auto b = root.createChild(bo);

    const std::uint64_t rootBefore =
        root.metricsRegistry().counter("ctx.test.bumps").value();
    a->metricsRegistry().counter("ctx.test.bumps").add(3);
    b->metricsRegistry().counter("ctx.test.bumps").add(5);

    // Each child sees exactly its own activity...
    EXPECT_EQ(
        a->metricsRegistry().counter("ctx.test.bumps").value(), 3u);
    EXPECT_EQ(
        b->metricsRegistry().counter("ctx.test.bumps").value(), 5u);
    // ...and the parent aggregate is their exact sum.
    EXPECT_EQ(
        root.metricsRegistry().counter("ctx.test.bumps").value(),
        rootBefore + 8u);

    // Grandchildren chain the write-through to the top.
    ChildOptions go;
    go.name = "a.g";
    const auto g = a->createChild(go);
    g->metricsRegistry().counter("ctx.test.bumps").add(2);
    EXPECT_EQ(
        a->metricsRegistry().counter("ctx.test.bumps").value(), 5u);
    EXPECT_EQ(
        root.metricsRegistry().counter("ctx.test.bumps").value(),
        rootBefore + 10u);
}

TEST(EngineContextChild, PoolSharedUnlessBudgeted)
{
    EngineContext &root = EngineContext::processDefault();
    ChildOptions shared;
    shared.name = "shared";
    const auto s = root.createChild(shared);
    EXPECT_EQ(&s->pool(), &root.pool());

    ChildOptions budgeted;
    budgeted.name = "budgeted";
    budgeted.threads = 2;
    const auto b = root.createChild(budgeted);
    EXPECT_NE(&b->pool(), &root.pool());
    EXPECT_EQ(b->pool().size(), 2u);
    // A private pool is a resource budget, not a metrics boundary:
    // the child still shares the parent's tracer.
    EXPECT_EQ(&b->tracer(), &root.tracer());
}

TEST(EngineContextChild, DeriveSeedIsDeterministicAndStreamed)
{
    EngineContext &root = EngineContext::processDefault();
    ChildOptions co;
    co.name = "seeded";
    co.baseSeed = 777;
    const auto c = root.createChild(co);

    EXPECT_EQ(c->baseSeed(), 777u);
    EXPECT_EQ(c->deriveSeed(1), c->deriveSeed(1));
    EXPECT_NE(c->deriveSeed(1), c->deriveSeed(2));

    // Same base seed => same streams, regardless of context name.
    ChildOptions co2;
    co2.name = "seeded-again";
    co2.baseSeed = 777;
    const auto c2 = root.createChild(co2);
    EXPECT_EQ(c->deriveSeed(9), c2->deriveSeed(9));

    // baseSeed = 0 inherits the parent's.
    ChildOptions inh;
    inh.name = "inherit";
    const auto i = root.createChild(inh);
    EXPECT_EQ(i->baseSeed(), root.baseSeed());
    EXPECT_EQ(i->deriveSeed(4), root.deriveSeed(4));
}

TEST(EngineContextChild, SolveHonorsTheContextKind)
{
    // A tiny LP solved under both child kinds must agree — the kind
    // travels in SolveOptions now, not in any process global.
    lp::Problem p;
    p.addVariable(1.0);
    p.addVariable(2.0);
    p.addConstraint({{0, 1.0}, {1, 1.0}}, lp::Relation::GreaterEq,
                    4.0);

    EngineContext &root = EngineContext::processDefault();
    for (const lp::SolverKind kind :
         {lp::SolverKind::Dense, lp::SolverKind::Sparse}) {
        ChildOptions co;
        co.name = "solve-kind";
        co.solverKind = kind;
        const auto c = root.createChild(co);
        const lp::Solution s = lp::solve(p, c->solveOptions());
        ASSERT_EQ(s.status, lp::Status::Optimal);
        EXPECT_NEAR(s.objective, 4.0, 1e-9);
    }
}

/**
 * Simplex pivots of 10 admit/remove rounds of one probe->verify
 * message on the fig10 setup (DVB, 4x4x4 torus, B = 128, period
 * 2.4 tau_c) with the schedule cache off, so every request re-solves
 * its dirty subsets. Counted from after start(): the initial full
 * compile is cold under both kinds.
 */
std::uint64_t
churnPivots(const EngineContext &ctx)
{
    DvbParams dvb;
    TaskFlowGraph g = buildDvbTfg(dvb);
    TimingModel tm;
    tm.apSpeed = dvb.matchedApSpeed();
    tm.bandwidth = 128.0;
    const auto topo = makeTopology("torus:4,4,4");
    const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);

    online::OnlineSchedulerConfig scfg;
    scfg.compiler.ctx = &ctx;
    scfg.compiler.inputPeriod = 2.4 * tm.tauC(g);
    scfg.cacheCapacity = 0;
    online::OnlineScheduler svc(g, makeTopology("torus:4,4,4"), alloc,
                                tm, scfg);
    EXPECT_TRUE(svc.start().accepted);

    metrics::Counter &pivots =
        ctx.metricsRegistry().counter("solver.pivots");
    const std::uint64_t base = pivots.value();
    online::AdmitSpec spec;
    spec.name = "hot";
    spec.src = "probe";
    spec.dst = "verify";
    spec.bytes = 256.0;
    for (int r = 0; r < 10; ++r) {
        EXPECT_TRUE(svc.admit(spec).accepted) << "round " << r;
        EXPECT_TRUE(svc.remove(spec.name).accepted) << "round " << r;
    }
    return pivots.value() - base;
}

/**
 * Simplex pivots of branch and bound over 6 integral covering
 * programs: min ~sum x_i with x_i + x_(i+1) >= r around an odd
 * cycle, whose LP relaxations are fractional (x = r/2), so the
 * trees are deep.
 */
std::uint64_t
mipPivots(const EngineContext &ctx)
{
    for (int k = 0; k < 6; ++k) {
        lp::Problem p;
        const int n = 7 + (k % 3);
        for (int i = 0; i < n; ++i) {
            p.addVariable(1.0 + 0.01 * i);
            p.markInteger(static_cast<std::size_t>(i));
        }
        for (int i = 0; i < n; ++i) {
            const auto a = static_cast<std::size_t>(i);
            const auto b = static_cast<std::size_t>((i + 1) % n);
            p.addConstraint({{a, 1.0}, {b, 1.0}},
                            lp::Relation::GreaterEq,
                            3.0 + 0.5 * (k % 4));
        }
        lp::MipOptions mo;
        mo.lp = ctx.solveOptions();
        EXPECT_EQ(lp::solveMip(p, mo).status, lp::Status::Optimal)
            << "instance " << k;
    }
    return ctx.metricsRegistry().counter("solver.pivots").value();
}

// DESIGN.md §13's warm-start claim, gated: re-solves that resume
// from a cached or parent basis take at most half the pivots of the
// cold dense re-solves of the same request stream.
TEST(EngineContextChild, WarmStartsHalveChurnAndMipPivots)
{
    EngineContext &root = EngineContext::processDefault();
    const auto child = [&](const char *name, lp::SolverKind kind) {
        ChildOptions co;
        co.name = name;
        co.solverKind = kind;
        return root.createChild(co);
    };

    const std::uint64_t churnCold =
        churnPivots(*child("churn.dense", lp::SolverKind::Dense));
    const std::uint64_t churnWarm =
        churnPivots(*child("churn.sparse", lp::SolverKind::Sparse));
    EXPECT_GT(churnWarm, 0u);
    EXPECT_LE(churnWarm * 2, churnCold);

    const std::uint64_t mipCold =
        mipPivots(*child("mip.dense", lp::SolverKind::Dense));
    const std::uint64_t mipWarm =
        mipPivots(*child("mip.sparse", lp::SolverKind::Sparse));
    EXPECT_GT(mipWarm, 0u);
    EXPECT_LE(mipWarm * 2, mipCold);
}

// SolverConfig::warmStart is the one warm-start switch: an online
// scheduler under a context that turns it off keeps no basis cache,
// so its churn never attempts a warm start.
TEST(EngineContextChild, WarmStartOffMeansNoChurnWarmStarts)
{
    EngineContext &root = EngineContext::processDefault();
    const auto attempts = [&](const char *name, bool warm) {
        ChildOptions co;
        co.name = name;
        co.solverKind = lp::SolverKind::Sparse;
        co.warmStart = warm;
        const auto ctx = root.createChild(co);
        EXPECT_GT(churnPivots(*ctx), 0u) << name;
        return ctx->metricsRegistry()
            .counter("solver.warmstart.attempts")
            .value();
    };
    EXPECT_GT(attempts("churn.warm", true), 0u);
    EXPECT_EQ(attempts("churn.cold", false), 0u);
}

} // namespace
} // namespace srsim
