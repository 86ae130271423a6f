/**
 * @file
 * Fault injection & degraded-mode rescheduling suite (label: fault).
 *
 * Covers the whole fault pipeline: spec grammar, topology masking,
 * derated capacity, the incremental per-subset repair (the ISSUE's
 * acceptance case: DVB on a 4x4x4 torus with 1 and 2 failed links),
 * the shedding full recompile after a node death, mid-run fault
 * injection + degraded-schedule swap in the CP simulator, the
 * verifier's structured rejection of schedules routed over dead
 * resources, and v1/v2 schedule-file round trips.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/schedule_io.hh"
#include "core/sr_compiler.hh"
#include "core/verifier.hh"
#include "cpsim/cp_simulator.hh"
#include "fault/fault.hh"
#include "fault/repair.hh"
#include "mapping/allocation.hh"
#include "metrics/metrics.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/factory.hh"
#include "topology/torus.hh"
#include "util/logging.hh"

namespace srsim {
namespace {

// ----- the acceptance fixture: DVB on the 4x4x4 torus -------------

struct Dvb444
{
    TaskFlowGraph g;
    std::unique_ptr<Topology> topo;
    TimingModel tm;
    TaskAllocation alloc;
    SrCompilerConfig cfg;
    SrCompileResult healthy;

    Dvb444()
        : g(buildDvbTfg({})), topo(makeTopology("torus:4,4,4")),
          alloc(alloc::roundRobin(g, *topo, 13))
    {
        tm.apSpeed = DvbParams{}.matchedApSpeed();
        tm.bandwidth = 128.0;
        cfg.inputPeriod = 2.4 * tm.tauC(g);
        healthy = compileScheduledRouting(g, *topo, alloc, tm, cfg);
    }

    /** A link id the healthy schedule actually routes over. */
    LinkId
    usedLink(std::size_t nth = 0) const
    {
        std::size_t seen = 0;
        for (const Path &p : healthy.paths.paths)
            for (LinkId l : p.links)
                if (seen++ == nth)
                    return l;
        return kInvalidLink;
    }

    fault::RepairResult
    repair(const std::string &spec)
    {
        fault::applyFaultSpec(spec, *topo);
        return fault::repairSchedule(g, *topo, alloc, tm, cfg,
                                     healthy, spec);
    }
};

// ----- spec grammar ------------------------------------------------

TEST(FaultSpec, ParsesEveryEventKind)
{
    const fault::FaultSpec fs = fault::parseFaultSpec(
        "link:3-7;link:#12,node:2@150;derate:#5=0.5;rand:3:9");
    ASSERT_EQ(fs.events.size(), 5u);
    EXPECT_EQ(fs.events[0].kind, fault::FaultEvent::Kind::LinkFail);
    EXPECT_EQ(fs.events[0].a, 3);
    EXPECT_EQ(fs.events[0].b, 7);
    EXPECT_EQ(fs.events[1].link, 12);
    EXPECT_EQ(fs.events[2].kind, fault::FaultEvent::Kind::NodeFail);
    EXPECT_EQ(fs.events[2].node, 2);
    EXPECT_TRUE(fs.events[2].timed());
    EXPECT_DOUBLE_EQ(fs.events[2].at, 150.0);
    EXPECT_EQ(fs.events[3].kind,
              fault::FaultEvent::Kind::LinkDerate);
    EXPECT_DOUBLE_EQ(fs.events[3].factor, 0.5);
    EXPECT_EQ(fs.events[4].kind,
              fault::FaultEvent::Kind::RandLinks);
    EXPECT_EQ(fs.events[4].count, 3);
    EXPECT_EQ(fs.events[4].seed, 9u);
    EXPECT_EQ(fs.str(),
              "link:3-7;link:#12,node:2@150;derate:#5=0.5;"
              "rand:3:9");
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(fault::parseFaultSpec("link:"), FatalError);
    EXPECT_THROW(fault::parseFaultSpec("link:3"), FatalError);
    EXPECT_THROW(fault::parseFaultSpec("derate:#5=0"), FatalError);
    EXPECT_THROW(fault::parseFaultSpec("derate:#5=1.5"),
                 FatalError);
    EXPECT_THROW(fault::parseFaultSpec("rand:0:4"), FatalError);
    EXPECT_THROW(fault::parseFaultSpec("gremlin:2"), FatalError);
    EXPECT_THROW(fault::parseFaultSpec("link:#4@-3"), FatalError);
}

TEST(FaultSpec, ResolutionBindsAndValidates)
{
    const auto topo = makeTopology("torus:4,4");
    // Non-adjacent endpoint pair and out-of-range ids must fail
    // loudly at resolution, not corrupt the mask.
    EXPECT_THROW(fault::applyFaultSpec("link:0-5", *topo),
                 FatalError);
    EXPECT_THROW(fault::applyFaultSpec("link:#9999", *topo),
                 FatalError);
    EXPECT_THROW(fault::applyFaultSpec("node:400", *topo),
                 FatalError);
    EXPECT_FALSE(topo->degraded());

    // rand draws are deterministic in the seed and count distinct
    // live links.
    const auto r1 = fault::applyFaultSpec("rand:3:7", *topo);
    ASSERT_EQ(r1.size(), 3u);
    EXPECT_TRUE(topo->degraded());
    EXPECT_EQ(topo->numLiveLinks(), topo->numLinks() - 3);
    std::vector<LinkId> drawn;
    for (const auto &f : r1)
        drawn.push_back(f.link);
    topo->clearFaults();
    const auto r2 = fault::applyFaultSpec("rand:3:7", *topo);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(drawn[i], r2[i].link);
    topo->clearFaults();
}

// ----- topology masking --------------------------------------------

TEST(FaultMask, MaskedRoutingAvoidsDeadResources)
{
    Torus topo({4, 4});
    EXPECT_FALSE(topo.degraded());
    const Path healthy = topo.routeLsdToMsd(0, 3);

    // Fail every link on the healthy route; routing must detour.
    for (LinkId l : healthy.links)
        topo.failLink(l);
    EXPECT_TRUE(topo.degraded());
    EXPECT_FALSE(topo.pathAlive(healthy));
    const Path detour = topo.routeLsdToMsd(0, 3);
    ASSERT_FALSE(detour.nodes.empty());
    EXPECT_TRUE(topo.pathAlive(detour));
    for (LinkId l : healthy.links)
        EXPECT_FALSE(topo.linkUp(l));

    // Node failure kills incident links; masked minimal paths
    // never traverse the dead node.
    topo.failNode(5);
    EXPECT_FALSE(topo.nodeUp(5));
    for (const Path &p : topo.minimalPaths(1, 9))
        for (NodeId n : p.nodes)
            EXPECT_NE(n, 5);

    topo.clearFaults();
    EXPECT_FALSE(topo.degraded());
    EXPECT_TRUE(topo.pathAlive(healthy));
    EXPECT_EQ(topo.numLiveLinks(), topo.numLinks());
}

TEST(FaultMask, DerateScalesCapacityNotStructure)
{
    Torus topo({4, 4});
    const LinkId l = 0;
    EXPECT_DOUBLE_EQ(topo.linkCapacity(l), 1.0);
    topo.derateLink(l, 0.5);
    EXPECT_TRUE(topo.degraded());
    EXPECT_TRUE(topo.linkUp(l));
    EXPECT_DOUBLE_EQ(topo.linkCapacity(l), 0.5);
    // Derated links stay routable.
    EXPECT_EQ(topo.numLiveLinks(), topo.numLinks());
    topo.clearFaults();
    EXPECT_DOUBLE_EQ(topo.linkCapacity(l), 1.0);
}

// ----- incremental repair: the acceptance case ---------------------

TEST(FaultRepair, OneFailedLinkRepairsIncrementally)
{
    Dvb444 f;
    ASSERT_TRUE(f.healthy.feasible);
    metrics::Registry::global().clear();
    metrics::Registry::setEnabled(true);

    const LinkId dead = f.usedLink();
    const fault::RepairResult rep =
        f.repair("link:#" + std::to_string(dead));

    ASSERT_TRUE(rep.feasible) << rep.detail;
    EXPECT_TRUE(rep.usedIncremental);
    EXPECT_FALSE(rep.usedFullRecompile);
    EXPECT_TRUE(rep.verification.ok);
    EXPECT_DOUBLE_EQ(rep.degradedPeriod, f.healthy.omega.period);

    // Only the subsets whose members crossed the dead link were
    // re-solved; the healthy majority was copied verbatim.
    EXPECT_GE(rep.subsetsResolved, 1u);
    EXPECT_LT(rep.subsetsResolved, rep.subsetsTotal);
    EXPECT_EQ(rep.subsetsReused + rep.subsetsResolved,
              rep.subsetsTotal);

    // The compiler-phase counters agree.
    auto &reg = metrics::Registry::global();
    EXPECT_EQ(reg.counter("repair.incremental").value(), 1u);
    EXPECT_EQ(reg.counter("repair.subsets_resolved").value(),
              rep.subsetsResolved);
    EXPECT_EQ(reg.counter("repair.subsets_reused").value(),
              rep.subsetsReused);
    metrics::Registry::setEnabled(false);

    // No message was shed or degraded; the dead link is unused.
    for (const Path &p : rep.omega.paths.paths)
        for (LinkId l : p.links)
            EXPECT_NE(l, dead);
    for (fault::MessageFate fate : rep.fates)
        EXPECT_TRUE(fate == fault::MessageFate::Survived ||
                    fate == fault::MessageFate::Rerouted);
}

TEST(FaultRepair, TwoFailedLinksStillCertify)
{
    Dvb444 f;
    ASSERT_TRUE(f.healthy.feasible);
    const LinkId a = f.usedLink(0);
    const LinkId b = f.usedLink(40);
    ASSERT_NE(a, b);
    const fault::RepairResult rep =
        f.repair("link:#" + std::to_string(a) + ";link:#" +
                 std::to_string(b));

    ASSERT_TRUE(rep.feasible) << rep.detail;
    EXPECT_TRUE(rep.verification.ok);
    EXPECT_DOUBLE_EQ(rep.degradedPeriod, f.healthy.omega.period);
    if (rep.usedIncremental)
        EXPECT_LT(rep.subsetsResolved, rep.subsetsTotal);
    for (const Path &p : rep.omega.paths.paths)
        for (LinkId l : p.links) {
            EXPECT_NE(l, a);
            EXPECT_NE(l, b);
        }
}

TEST(FaultRepair, DerateRepairsAndVerifiesDuty)
{
    Dvb444 f;
    ASSERT_TRUE(f.healthy.feasible);
    const LinkId l = f.usedLink();
    const fault::RepairResult rep =
        f.repair("derate:#" + std::to_string(l) + "=0.5");
    ASSERT_TRUE(rep.feasible) << rep.detail;
    EXPECT_TRUE(rep.verification.ok);
    // The duty bound is live in the verifier: the degraded
    // schedule keeps the derated link busy at most half the period.
    Time busy = 0.0;
    for (std::size_t i = 0; i < rep.omega.segments.size(); ++i) {
        const Path &p = rep.omega.paths.pathFor(i);
        for (LinkId pl : p.links)
            if (pl == l)
                for (const TimeWindow &w : rep.omega.segments[i])
                    busy += w.length();
    }
    EXPECT_LE(busy, 0.5 * rep.omega.period + kTimeEps);
}

TEST(FaultRepair, NodeDeathShedsItsMessages)
{
    Dvb444 f;
    ASSERT_TRUE(f.healthy.feasible);
    const fault::RepairResult rep = f.repair("node:13");

    ASSERT_TRUE(rep.feasible) << rep.detail;
    EXPECT_TRUE(rep.usedFullRecompile);
    EXPECT_TRUE(rep.verification.ok);
    EXPECT_FALSE(rep.shedMessages.empty());
    // Exactly the messages with an endpoint on the dead node shed.
    for (MessageId m = 0; m < f.g.numMessages(); ++m) {
        const Message &msg = f.g.message(m);
        const bool endpointDead =
            f.alloc.nodeOf(msg.src) == 13 ||
            f.alloc.nodeOf(msg.dst) == 13;
        EXPECT_EQ(rep.fates[static_cast<std::size_t>(m)] ==
                      fault::MessageFate::Shed,
                  endpointDead)
            << "message " << msg.name;
    }
    // keptMessages maps the reduced problem back to original ids.
    ASSERT_EQ(rep.keptMessages.size() + rep.shedMessages.size(),
              static_cast<std::size_t>(f.g.numMessages()));
    for (MessageId orig : rep.keptMessages)
        EXPECT_NE(rep.fates[static_cast<std::size_t>(orig)],
                  fault::MessageFate::Shed);
}

TEST(FaultRepair, DisconnectionFailsWithFaultStage)
{
    // Sever every link of node 0 on a small ring: task traffic
    // to/from node 0 is unroutable and (with its tasks alive) the
    // compile on the degraded fabric must fail in the Fault stage.
    const auto topo = makeTopology("torus:4");
    TaskFlowGraph g;
    const TaskId t0 = g.addTask("src", 100.0);
    const TaskId t1 = g.addTask("dst", 100.0);
    g.addMessage("m", t0, t1, 64.0);
    TaskAllocation alloc(g.numTasks(), topo->numNodes());
    alloc.assign(t0, 0);
    alloc.assign(t1, 2);
    TimingModel tm;
    tm.apSpeed = 1.0;
    tm.bandwidth = 64.0;
    SrCompilerConfig cfg;
    cfg.inputPeriod = 2.0 * tm.tauC(g);

    for (LinkId l : topo->linksAt(0))
        topo->failLink(l);
    const SrCompileResult r =
        compileScheduledRouting(g, *topo, alloc, tm, cfg);
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.stage, SrFailureStage::Fault);
}

// ----- cpsim: mid-run faults and the degraded-mode swap ------------

TEST(FaultCpsim, MidRunLinkDeathDropsAndSwapsToRepaired)
{
    Dvb444 f;
    ASSERT_TRUE(f.healthy.feasible);
    const LinkId dead = f.usedLink();
    const fault::RepairResult rep =
        f.repair("link:#" + std::to_string(dead));
    ASSERT_TRUE(rep.feasible);
    ASSERT_TRUE(rep.usedIncremental);

    const Time period = f.healthy.omega.period;
    CpSimConfig sim;
    sim.invocations = 20;
    sim.warmup = 2;
    // The link dies mid-run; five periods later the repaired
    // schedule reaches the CPs.
    sim.linkFailures = {{dead, 5.5 * period}};
    sim.degradedOmega = &rep.omega;
    sim.repairAt = 10.0 * period;

    const CpSimResult dyn =
        simulateCps(f.g, *f.topo, f.alloc, f.tm, f.healthy.bounds,
                    f.healthy.omega, sim);

    // Expected damage is accounted as loss, never as violations.
    EXPECT_TRUE(dyn.ok()) << (dyn.violations.empty()
                                  ? std::string()
                                  : dyn.violations.front());
    EXPECT_GT(dyn.droppedSegments, 0u);
    EXPECT_GT(dyn.lostInvocations, 0u);
    EXPECT_FALSE(dyn.faultNotes.empty());
    // After the swap the degraded schedule avoids the dead link,
    // so late invocations complete again.
    EXPECT_GT(dyn.completions.back(), 0.0);
    // And without the swap they keep failing.
    CpSimConfig noswap = sim;
    noswap.degradedOmega = nullptr;
    const CpSimResult broken =
        simulateCps(f.g, *f.topo, f.alloc, f.tm, f.healthy.bounds,
                    f.healthy.omega, noswap);
    EXPECT_TRUE(broken.ok());
    EXPECT_GT(broken.lostInvocations, dyn.lostInvocations);
    EXPECT_LE(broken.completions.back(), 0.0);
}

// ----- verifier: loud structured failures --------------------------

TEST(FaultVerifier, RejectsScheduleOverDeadLink)
{
    Dvb444 f;
    ASSERT_TRUE(f.healthy.feasible);
    const LinkId dead = f.usedLink();
    f.topo->failLink(dead);

    const VerifyResult v =
        verifySchedule(f.g, *f.topo, f.alloc, f.healthy.bounds,
                       f.healthy.omega);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.error.stage, SrFailureStage::Fault);
    EXPECT_NE(v.error.detail.find("failed link"),
              std::string::npos)
        << v.error.detail;
}

TEST(FaultVerifier, RejectsOutOfRangeLinkStructurally)
{
    Dvb444 f;
    ASSERT_TRUE(f.healthy.feasible);
    GlobalSchedule bad = f.healthy.omega;
    ASSERT_FALSE(bad.paths.paths[0].links.empty());
    bad.paths.paths[0].links[0] = f.topo->numLinks() + 7;

    // Structured rejection, not an assertion/crash.
    const VerifyResult v = verifySchedule(
        f.g, *f.topo, f.alloc, f.healthy.bounds, bad);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.error.stage, SrFailureStage::Verification);
    EXPECT_FALSE(v.error.detail.empty());
}

// ----- schedule file format ----------------------------------------

TEST(FaultScheduleIo, V2RoundTripsProvenance)
{
    Dvb444 f;
    ASSERT_TRUE(f.healthy.feasible);
    GlobalSchedule omega = f.healthy.omega;
    omega.faultSpec = "link:#3;derate:#5=0.5";
    omega.degradedFrom = 100.0;

    std::stringstream ss;
    writeSchedule(ss, omega);
    EXPECT_EQ(ss.str().rfind("srsim-schedule v2", 0), 0u);

    const GlobalSchedule back = readSchedule(ss, *f.topo);
    EXPECT_EQ(back.faultSpec, omega.faultSpec);
    EXPECT_DOUBLE_EQ(back.degradedFrom, omega.degradedFrom);
    EXPECT_DOUBLE_EQ(back.period, omega.period);
    ASSERT_EQ(back.segments.size(), omega.segments.size());
}

TEST(FaultScheduleIo, HealthySchedulesStayV1)
{
    Dvb444 f;
    ASSERT_TRUE(f.healthy.feasible);
    std::stringstream ss;
    writeSchedule(ss, f.healthy.omega);
    // Backward compatibility: no provenance -> the v1 bytes of the
    // pre-fault writer, readable by pre-fault readers.
    EXPECT_EQ(ss.str().rfind("srsim-schedule v1", 0), 0u);
    EXPECT_EQ(ss.str().find("faults"), std::string::npos);
    const GlobalSchedule back = readSchedule(ss, *f.topo);
    EXPECT_TRUE(back.faultSpec.empty());
    EXPECT_DOUBLE_EQ(back.degradedFrom, 0.0);
}

TEST(FaultScheduleIo, V1MagicRejectsV2Headers)
{
    Dvb444 f;
    ASSERT_TRUE(f.healthy.feasible);
    GlobalSchedule omega = f.healthy.omega;
    omega.faultSpec = "link:#3";
    std::stringstream ss;
    writeSchedule(ss, omega);
    std::string text = ss.str();
    text.replace(text.find("v2"), 2, "v1");
    std::istringstream in(text);
    EXPECT_THROW(readSchedule(in, *f.topo), FatalError);
}

} // namespace
} // namespace srsim
