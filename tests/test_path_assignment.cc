/**
 * @file
 * Tests for utilization analysis (Defs. 5.1/5.2) and the
 * AssignPaths heuristic (Fig. 4), plus the maximal related-subset
 * decomposition (Defs. 5.3/5.4).
 */

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/intervals.hh"
#include "core/path_assignment.hh"
#include "core/subsets.hh"
#include "core/time_bounds.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "topology/factory.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace srsim {
namespace {

/**
 * Two parallel messages released together, both 0 -> 3 on a
 * 2-cube: forcing them onto one path overloads it; splitting onto
 * the two disjoint minimal paths balances it.
 */
struct ParallelFixture
{
    TaskFlowGraph g;
    GeneralizedHypercube cube = GeneralizedHypercube::binaryCube(2);
    TimingModel tm;
    TaskAllocation alloc{4, 4};

    ParallelFixture()
    {
        const TaskId s1 = g.addTask("s1", 100.0);
        const TaskId s2 = g.addTask("s2", 100.0);
        const TaskId d1 = g.addTask("d1", 100.0);
        const TaskId d2 = g.addTask("d2", 100.0);
        g.addMessage("m1", s1, d1, 384.0); // 6 us
        g.addMessage("m2", s2, d2, 384.0); // 6 us
        tm.apSpeed = 10.0;   // tau_c = 10
        tm.bandwidth = 64.0;
        alloc.assign(0, 0);
        alloc.assign(1, 0);
        alloc.assign(2, 3);
        alloc.assign(3, 3);
    }
};

TEST(UtilizationTest, LinkUtilizationDefinition)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    UtilizationAnalyzer ua(tb, ivs, f.cube);

    // Both messages on the same path 0-1-3.
    PathAssignment pa;
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    // Each link carries 12 us of demand inside a 10 us window.
    const LinkId l01 = f.cube.linkBetween(0, 1);
    EXPECT_NEAR(ua.linkUtilization(pa, l01), 1.2, 1e-9);
    const UtilizationReport rep = ua.analyze(pa);
    EXPECT_NEAR(rep.peak, 1.2, 1e-9);
    EXPECT_FALSE(rep.position.isSpot);

    // Split onto disjoint paths: 6/10 per link.
    pa.paths[1] = f.cube.makePath({0, 2, 3});
    EXPECT_NEAR(ua.linkUtilization(pa, l01), 0.6, 1e-9);
    EXPECT_NEAR(ua.analyze(pa).peak, 0.6, 1e-9);
}

TEST(UtilizationTest, SpotUtilizationCountsNoSlackMessages)
{
    // Make the two messages no-slack: duration == tau_c.
    ParallelFixture f;
    TaskFlowGraph g2;
    const TaskId s1 = g2.addTask("s1", 100.0);
    const TaskId s2 = g2.addTask("s2", 100.0);
    const TaskId d1 = g2.addTask("d1", 100.0);
    const TaskId d2 = g2.addTask("d2", 100.0);
    g2.addMessage("m1", s1, d1, 640.0); // 10 us == tau_c
    g2.addMessage("m2", s2, d2, 640.0);
    const TimeBounds tb = computeTimeBounds(g2, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    UtilizationAnalyzer ua(tb, ivs, f.cube);

    PathAssignment pa;
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    const LinkId l01 = f.cube.linkBetween(0, 1);
    const std::size_t k = ivs.intervalAt(tb.messages[0].release);
    EXPECT_DOUBLE_EQ(ua.spotUtilization(pa, l01, k), 2.0);
    const UtilizationReport rep = ua.analyze(pa);
    // Both the link ratio (20 us demand / 10 us window) and the
    // hot-spot count are 2.0 here; the peak must report it either
    // way.
    EXPECT_DOUBLE_EQ(rep.peak, 2.0);

    // Disjoint paths: one no-slack message per spot is *not*
    // contention, so the peak is the link ratio (10/10 = 1).
    pa.paths[1] = f.cube.makePath({0, 2, 3});
    EXPECT_DOUBLE_EQ(ua.spotUtilization(pa, l01, k), 1.0);
    EXPECT_NEAR(ua.analyze(pa).peak, 1.0, 1e-9);
}

TEST(UtilizationTest, UnusedLinkHasZeroUtilization)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    UtilizationAnalyzer ua(tb, ivs, f.cube);
    PathAssignment pa;
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    const LinkId l23 = f.cube.linkBetween(2, 3);
    EXPECT_DOUBLE_EQ(ua.linkUtilization(pa, l23), 0.0);
}

TEST(AssignPathsTest, FindsTheBalancedAssignment)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    const AssignPathsResult r =
        assignPaths(f.g, f.cube, f.alloc, tb, ivs);
    // The optimum splits the messages onto disjoint paths: 0.6.
    EXPECT_NEAR(r.report.peak, 0.6, 1e-9);
    EXPECT_NE(r.assignment.paths[0].nodes[1],
              r.assignment.paths[1].nodes[1]);
}

TEST(AssignPathsTest, LsdBaselineUsesRoutingFunction)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const PathAssignment pa =
        lsdToMsdAssignment(f.g, f.cube, f.alloc, tb);
    ASSERT_EQ(pa.paths.size(), 2u);
    for (const Path &p : pa.paths)
        EXPECT_EQ(p.nodes, (std::vector<NodeId>{0, 1, 3}));
}

TEST(AssignPathsTest, AssignedPathsAreValidMinimalAndEndToEnd)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 64.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    const TimeBounds tb =
        computeTimeBounds(g, alloc, tm, 3.0 * tm.tauC(g));
    const IntervalSet ivs(tb);
    const AssignPathsResult r =
        assignPaths(g, cube, alloc, tb, ivs);
    ASSERT_EQ(r.assignment.paths.size(), tb.messages.size());
    for (std::size_t i = 0; i < tb.messages.size(); ++i) {
        const Message &m = g.message(tb.messages[i].msg);
        const Path &p = r.assignment.paths[i];
        EXPECT_TRUE(cube.validPath(p));
        EXPECT_EQ(p.source(), alloc.nodeOf(m.src));
        EXPECT_EQ(p.destination(), alloc.nodeOf(m.dst));
        EXPECT_EQ(static_cast<int>(p.hops()),
                  cube.distance(p.source(), p.destination()));
    }
}

/**
 * Property: across fabrics and loads, AssignPaths never ends up
 * above the LSD-to-MSD baseline.
 */
class AssignPathsProperty : public ::testing::TestWithParam<double>
{};

TEST_P(AssignPathsProperty, NeverWorseThanRoutingFunction)
{
    const double factor = GetParam();
    const TaskFlowGraph g = buildDvbTfg({});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();

    const auto cube = GeneralizedHypercube::binaryCube(6);
    const Torus torus({8, 8});
    for (const Topology *topo :
         std::initializer_list<const Topology *>{&cube, &torus}) {
        for (double bw : {64.0, 128.0}) {
            tm.bandwidth = bw;
            const TaskAllocation alloc =
                alloc::roundRobin(g, *topo, 13);
            const TimeBounds tb = computeTimeBounds(
                g, alloc, tm, factor * tm.tauC(g));
            const IntervalSet ivs(tb);
            UtilizationAnalyzer ua(tb, ivs, *topo);
            const double lsd =
                ua.analyze(lsdToMsdAssignment(g, *topo, alloc, tb))
                    .peak;
            const double ap =
                assignPaths(g, *topo, alloc, tb, ivs).report.peak;
            EXPECT_LE(ap, lsd + 1e-9)
                << topo->name() << " bw=" << bw
                << " factor=" << factor;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(LoadFactors, AssignPathsProperty,
                         ::testing::Values(1.0, 1.8, 2.7, 5.0));

/**
 * Determinism regression: the parallel restart scheme seeds every
 * restart from its index, so assignPaths must produce the identical
 * PathAssignment and peak U for any thread count. Pins the contract
 * the parallel compiler relies on (DVB on the binary 6-cube and the
 * 8x8 torus).
 */
TEST(AssignPathsTest, DeterministicAcrossThreadCounts)
{
    const TaskFlowGraph g = buildDvbTfg({});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;

    const auto cube = GeneralizedHypercube::binaryCube(6);
    const Torus torus({8, 8});
    AssignPathsOptions opts;
    opts.maxRestarts = 4;
    opts.seed = 987654321;

    for (const Topology *topo :
         std::initializer_list<const Topology *>{&cube, &torus}) {
        const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);
        const TimeBounds tb =
            computeTimeBounds(g, alloc, tm, 2.0 * tm.tauC(g));
        const IntervalSet ivs(tb);

        ThreadPool::setGlobalSize(1);
        const AssignPathsResult serial =
            assignPaths(g, *topo, alloc, tb, ivs, opts);

        for (std::size_t threads : {2u, 8u}) {
            ThreadPool::setGlobalSize(threads);
            const AssignPathsResult par =
                assignPaths(g, *topo, alloc, tb, ivs, opts);
            EXPECT_DOUBLE_EQ(par.report.peak, serial.report.peak)
                << topo->name() << " threads=" << threads;
            EXPECT_EQ(par.report.position == serial.report.position,
                      true)
                << topo->name() << " threads=" << threads;
            EXPECT_EQ(par.restarts, serial.restarts);
            EXPECT_EQ(par.reroutes, serial.reroutes);
            EXPECT_EQ(par.evals, serial.evals);
            ASSERT_EQ(par.assignment.paths.size(),
                      serial.assignment.paths.size());
            for (std::size_t i = 0;
                 i < serial.assignment.paths.size(); ++i) {
                EXPECT_EQ(par.assignment.paths[i],
                          serial.assignment.paths[i])
                    << topo->name() << " threads=" << threads
                    << " message " << i;
            }
        }
        ThreadPool::setGlobalSize(1);
    }
}

/** Re-running with the same seed is reproducible (same process). */
TEST(AssignPathsTest, SameSeedSameResult)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    AssignPathsOptions opts;
    opts.seed = 2024;
    const AssignPathsResult a =
        assignPaths(f.g, f.cube, f.alloc, tb, ivs, opts);
    const AssignPathsResult b =
        assignPaths(f.g, f.cube, f.alloc, tb, ivs, opts);
    EXPECT_DOUBLE_EQ(a.report.peak, b.report.peak);
    EXPECT_EQ(a.assignment.paths.size(), b.assignment.paths.size());
    for (std::size_t i = 0; i < a.assignment.paths.size(); ++i)
        EXPECT_EQ(a.assignment.paths[i], b.assignment.paths[i]);
}

TEST(SubsetsTest, SharedLinkAndIntervalRelatesMessages)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    PathAssignment pa;
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    const auto subsets = computeMaximalSubsets(tb, ivs, pa);
    ASSERT_EQ(subsets.size(), 1u);
    EXPECT_EQ(subsets[0].members.size(), 2u);
    EXPECT_EQ(subsets[0].links.size(), 2u);
}

TEST(SubsetsTest, DisjointPathsSeparateSubsets)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    PathAssignment pa;
    pa.paths.push_back(f.cube.makePath({0, 1, 3}));
    pa.paths.push_back(f.cube.makePath({0, 2, 3}));
    const auto subsets = computeMaximalSubsets(tb, ivs, pa);
    EXPECT_EQ(subsets.size(), 2u);
}

TEST(SubsetsTest, SharedLinkDifferentIntervalsUnrelated)
{
    // Chain A -> B -> C mapped so both messages use link 0-1 but in
    // different windows: they are NOT related.
    TaskFlowGraph g;
    const TaskId a = g.addTask("A", 100.0);
    const TaskId b = g.addTask("B", 100.0);
    const TaskId c = g.addTask("C", 100.0);
    g.addMessage("m1", a, b, 640.0);
    g.addMessage("m2", b, c, 640.0);
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const Torus ring({4});
    TaskAllocation alloc(3, 4);
    alloc.assign(0, 0);
    alloc.assign(1, 1);
    alloc.assign(2, 0);
    const TimeBounds tb = computeTimeBounds(g, alloc, tm, 40.0);
    const IntervalSet ivs(tb);
    PathAssignment pa;
    pa.paths.push_back(ring.makePath({0, 1})); // [10,20)
    pa.paths.push_back(ring.makePath({1, 0})); // [30,40)
    const auto subsets = computeMaximalSubsets(tb, ivs, pa);
    EXPECT_EQ(subsets.size(), 2u);
}

TEST(SubsetsTest, TransitivityMergesChains)
{
    // m1 shares with m2, m2 shares with m3 => all three together,
    // even if m1 and m3 share nothing.
    TaskFlowGraph g;
    std::vector<TaskId> src, dst;
    for (int i = 0; i < 3; ++i) {
        src.push_back(g.addTask("s" + std::to_string(i), 100.0));
        dst.push_back(g.addTask("d" + std::to_string(i), 100.0));
        g.addMessage("m" + std::to_string(i), src[i], dst[i],
                     320.0);
    }
    TimingModel tm;
    tm.apSpeed = 10.0;
    tm.bandwidth = 64.0;
    const Torus ring({8});
    TaskAllocation alloc(6, 8);
    // m0: 0->2, m1: 1->3, m2: 2->4; consecutive routes overlap.
    alloc.assign(src[0], 0);
    alloc.assign(dst[0], 2);
    alloc.assign(src[1], 1);
    alloc.assign(dst[1], 3);
    alloc.assign(src[2], 2);
    alloc.assign(dst[2], 4);
    const TimeBounds tb = computeTimeBounds(g, alloc, tm, 60.0);
    const IntervalSet ivs(tb);
    PathAssignment pa;
    pa.paths.push_back(ring.makePath({0, 1, 2}));
    pa.paths.push_back(ring.makePath({1, 2, 3}));
    pa.paths.push_back(ring.makePath({2, 3, 4}));
    const auto subsets = computeMaximalSubsets(tb, ivs, pa);
    ASSERT_EQ(subsets.size(), 1u);
    EXPECT_EQ(subsets[0].members.size(), 3u);
}

TEST(SubsetsTest, SubsetsPartitionAllMessages)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const Torus torus({4, 4, 4});
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, torus, 13);
    const TimeBounds tb =
        computeTimeBounds(g, alloc, tm, 2.0 * tm.tauC(g));
    const IntervalSet ivs(tb);
    const AssignPathsResult r =
        assignPaths(g, torus, alloc, tb, ivs);
    const auto subsets =
        computeMaximalSubsets(tb, ivs, r.assignment);
    std::vector<int> seen(tb.messages.size(), 0);
    for (const MessageSubset &s : subsets)
        for (std::size_t i : s.members)
            ++seen[i];
    for (int c : seen)
        EXPECT_EQ(c, 1);
}

/**
 * Peak U written straight from Defs. 5.1/5.2: links are visited in
 * first-touch order (by message index, then position in the path),
 * each link's ratio before its spots, and a candidate wins only when
 * strictly greater. Independent of LinkLoad's incremental state.
 */
UtilizationReport
referencePeak(const PathAssignment &pa, const TimeBounds &tb,
              const IntervalSet &ivs, const Topology &topo)
{
    std::vector<LinkId> order;
    for (const Path &p : pa.paths)
        for (LinkId l : p.links)
            if (std::find(order.begin(), order.end(), l) == order.end())
                order.push_back(l);

    UtilizationReport rep;
    for (LinkId l : order) {
        double demand = 0.0;
        std::vector<bool> used(ivs.size(), false);
        std::vector<int> spot(ivs.size(), 0);
        for (std::size_t i = 0; i < pa.paths.size(); ++i) {
            for (LinkId pl : pa.paths[i].links) {
                if (pl != l)
                    continue;
                demand += tb.messages[i].duration;
                for (std::size_t k = 0; k < ivs.size(); ++k) {
                    if (!ivs.active(i, k))
                        continue;
                    used[k] = true;
                    if (tb.messages[i].noSlack())
                        ++spot[k];
                }
            }
        }
        double avail = 0.0;
        for (std::size_t k = 0; k < ivs.size(); ++k)
            if (used[k])
                avail += ivs.interval(k).length();
        avail *= topo.linkCapacity(l);
        const double u =
            avail > 0.0 ? demand / avail
                        : (demand > 0.0
                               ? std::numeric_limits<double>::infinity()
                               : 0.0);
        if (u > rep.peak) {
            rep.peak = u;
            rep.position = PeakPosition{false, l, 0};
        }
        for (std::size_t k = 0; k < ivs.size(); ++k) {
            const double s = spot[k];
            if (s > 1.0 && s > rep.peak) {
                rep.peak = s;
                rep.position = PeakPosition{true, l, k};
            }
        }
    }
    return rep;
}

/**
 * Random time bounds on an integer grid, so equal utilizations (tied
 * peaks) are common. Windows may wrap the frame; durations include
 * zero and no-slack ones.
 */
TimeBounds
randomBounds(Rng &rng, std::size_t nmsg)
{
    TimeBounds tb;
    tb.inputPeriod = 12.0;
    for (std::size_t i = 0; i < nmsg; ++i) {
        MessageBounds b;
        b.msg = static_cast<MessageId>(i);
        const double r = rng.uniformInt(0, 11);
        const double w = rng.uniformInt(1, 6);
        b.release = r;
        b.deadline = r + w <= 12.0 ? r + w : r + w - 12.0;
        if (r + w <= 12.0) {
            b.windows = {TimeWindow{r, r + w}};
        } else {
            b.windows = {TimeWindow{r, 12.0},
                         TimeWindow{0.0, r + w - 12.0}};
        }
        switch (rng.uniformInt(0, 3)) {
          case 0: b.duration = 0.0; break;
          case 1: b.duration = w; break;  // no slack
          case 2: b.duration = rng.uniformInt(1, 6) * 0.5; break;
          default: b.duration = rng.uniformReal(0.1, w); break;
        }
        tb.messages.push_back(b);
    }
    return tb;
}

/**
 * A random LinkLoad setting: a small fabric, random bounds, up to six
 * minimal candidate paths per message (some crossing a link twice), a
 * random start among them, then derated links and maybe a failed one
 * (U = inf).
 */
struct RandomLoadCase
{
    std::unique_ptr<Topology> topo;
    TimeBounds tb;
    IntervalSet ivs;
    std::vector<std::vector<Path>> cands;
    PathAssignment pa;

    explicit RandomLoadCase(Rng &rng)
        : topo(makeTopology(pickFabric(rng))),
          tb(randomBounds(rng, static_cast<std::size_t>(
                                   rng.uniformInt(4, 16)))),
          ivs(tb), cands(tb.messages.size())
    {
        const auto nodes =
            static_cast<std::size_t>(topo->numNodes());
        for (std::vector<Path> &c : cands) {
            const NodeId s = static_cast<NodeId>(rng.index(nodes));
            NodeId d = s;
            while (d == s)
                d = static_cast<NodeId>(rng.index(nodes));
            c = topo->minimalPaths(s, d, 6);
            if (rng.chance(0.2)) {
                Path twice = c.front();
                twice.links.push_back(twice.links.front());
                c.push_back(twice);
            }
            pa.paths.push_back(c[rng.index(c.size())]);
        }
        const auto links = static_cast<std::size_t>(topo->numLinks());
        for (int f = rng.uniformInt(0, 3); f > 0; --f)
            topo->derateLink(static_cast<LinkId>(rng.index(links)),
                             rng.chance(0.5) ? 0.5 : 0.25);
        if (rng.chance(0.3))
            topo->failLink(static_cast<LinkId>(rng.index(links)));
    }

    static const char *
    pickFabric(Rng &rng)
    {
        static const char *const fabrics[] = {
            "torus:3,3", "torus:4,4", "cube:3",
            "cube:4",    "ghc:3,3",   "mesh:3,3"};
        return fabrics[rng.index(6)];
    }
};

void
expectSameReport(const UtilizationReport &got,
                 const UtilizationReport &want, const std::string &what,
                 bool withPosition = true)
{
    EXPECT_EQ(std::memcmp(&got.peak, &want.peak, sizeof(double)), 0)
        << what << ": peak " << got.peak << " vs " << want.peak;
    if (withPosition) {
        EXPECT_TRUE(got.position == want.position)
            << what << ": position link " << got.position.link
            << " vs " << want.position.link;
    }
}

TEST(LinkLoadProperty, DeltaScoreEqualsFullAnalysis)
{
    for (int walk = 0; walk < 200; ++walk) {
        Rng rng(static_cast<std::uint64_t>(walk) + 1);
        const RandomLoadCase rc(rng);
        const std::size_t nmsg = rc.cands.size();
        const UtilizationAnalyzer ua(rc.tb, rc.ivs, *rc.topo);
        LinkLoad load(ua, rc.pa);
        const std::string tag = "walk " + std::to_string(walk);
        expectSameReport(load.report(),
                         referencePeak(rc.pa, rc.tb, rc.ivs, *rc.topo),
                         tag + " start");
        for (int step = 0; step < 30; ++step) {
            // Score every candidate of one message, as a walk does,
            // then maybe move it.
            const std::size_t i = rng.index(nmsg);
            const std::string what =
                tag + " step " + std::to_string(step);
            for (const Path &path : rc.cands[i]) {
                PathAssignment moved = load.assignment();
                moved.paths[i] = path;
                expectSameReport(
                    load.score(i, path),
                    referencePeak(moved, rc.tb, rc.ivs, *rc.topo),
                    what + " score");
            }
            if (rng.chance(0.5)) {
                const auto &cs = rc.cands[i];
                load.apply(i, cs[rng.index(cs.size())]);
                expectSameReport(load.report(),
                                 referencePeak(load.assignment(),
                                               rc.tb, rc.ivs,
                                               *rc.topo),
                                 what + " apply");
            }
        }
        if (::testing::Test::HasFailure())
            return;
    }
}

/**
 * A cut-off score decides every cut-off like the full score: when the
 * full peak stays below the cut-off, the scores are equal (the
 * position too, unless the cut-off is inclusive); when it reaches the
 * cut-off, the returned peak reaches it as well and is the value of
 * some link, so at most the full peak. Cut-offs sit at the current
 * and the moved peak, 1e-12 either side of them, at the moved
 * utilization of the links near the move, and at +-inf.
 */
TEST(LinkLoadProperty, CutoffScoreDecidesLikeFullScore)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (int walk = 0; walk < 200; ++walk) {
        Rng rng(static_cast<std::uint64_t>(walk) + 1);
        const RandomLoadCase rc(rng);
        const std::size_t nmsg = rc.cands.size();
        const UtilizationAnalyzer ua(rc.tb, rc.ivs, *rc.topo);
        LinkLoad load(ua, rc.pa);
        const std::string tag = "walk " + std::to_string(walk);
        for (int step = 0; step < 30; ++step) {
            const std::size_t i = rng.index(nmsg);
            const UtilizationReport cur = load.report();
            for (const Path &path : rc.cands[i]) {
                PathAssignment moved = load.assignment();
                moved.paths[i] = path;
                const UtilizationReport full =
                    referencePeak(moved, rc.tb, rc.ivs, *rc.topo);
                std::vector<double> values = {
                    cur.peak,  cur.peak - 1e-12,  cur.peak + 1e-12,
                    full.peak, full.peak - 1e-12, full.peak + 1e-12,
                    -inf,      inf};
                for (const Path *p : {&load.path(i), &path})
                    for (LinkId l : p->links)
                        values.push_back(ua.linkUtilization(moved, l));
                if (cur.position.link != kInvalidLink)
                    values.push_back(
                        ua.linkUtilization(moved, cur.position.link));
                for (double v : values) {
                    for (bool inclusive : {false, true}) {
                        const auto reaches = [&](double peak) {
                            return inclusive ? peak >= v : peak > v;
                        };
                        const UtilizationReport got =
                            load.score(i, path, {v, inclusive});
                        const std::string what =
                            tag + " step " + std::to_string(step) +
                            " cut " + (inclusive ? ">= " : "> ") +
                            std::to_string(v);
                        if (!reaches(full.peak)) {
                            expectSameReport(got, full, what,
                                             !inclusive);
                            continue;
                        }
                        EXPECT_TRUE(reaches(got.peak))
                            << what << ": peak " << got.peak
                            << " full " << full.peak;
                        EXPECT_LE(got.peak, full.peak) << what;
                    }
                }
            }
            if (rng.chance(0.5)) {
                const auto &cs = rc.cands[i];
                load.apply(i, cs[rng.index(cs.size())]);
            }
        }
        if (::testing::Test::HasFailure())
            return;
    }
}

/** A negative restart count is an error, not an empty reduction. */
TEST(AssignPathsTest, NegativeRestartsAreAnError)
{
    ParallelFixture f;
    const TimeBounds tb =
        computeTimeBounds(f.g, f.alloc, f.tm, 40.0);
    const IntervalSet ivs(tb);
    for (int restarts : {-1, -2}) {
        AssignPathsOptions opts;
        opts.maxRestarts = restarts;
        const AssignPathsResult r =
            assignPaths(f.g, f.cube, f.alloc, tb, ivs, opts);
        EXPECT_FALSE(r.ok) << restarts;
        EXPECT_FALSE(r.error.empty()) << restarts;
        EXPECT_TRUE(r.assignment.paths.empty()) << restarts;
    }
}

} // namespace
} // namespace srsim
