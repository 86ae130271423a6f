/**
 * @file
 * Online scheduling service suite (label: online).
 *
 * Pins the golden churn scenarios byte-for-byte against
 * tests/golden/churn-*.sched and the fault goldens
 * (tests/golden/fault-*.sched) through injectFault, then asserts
 * the *mechanics* the bytes cannot show: single admissions re-solve
 * only the touched maximal related subsets (>= 80% copied verbatim
 * on the 4x4x4 torus figure config), re-admissions hit the schedule
 * cache, removals round-trip to the original schedule, every
 * published schedule is verifier-certified at the original period,
 * the online.* / repair.* counters account for the work, rejections
 * carry structured reasons, degradedFrom follows the request rather
 * than the path that served it, and the whole request pipeline is
 * deterministic.
 */

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "golden_cases.hh"
#include "golden_churn.hh"
#include "metrics/metrics.hh"

namespace srsim {
namespace {

using online::AdmitSpec;
using online::RejectReason;
using online::Request;
using online::RequestKind;
using online::RequestResult;

std::string
goldenPath(const golden::ChurnCase &cc)
{
    return std::string(SRSIM_GOLDEN_DIR) + "/" + cc.name +
           ".sched";
}

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

const golden::ChurnCase &
churnCase(const std::string &name)
{
    for (const auto &cc : golden::churnCases())
        if (name == cc.name)
            return cc;
    ADD_FAILURE() << "no churn case named " << name;
    static const golden::ChurnCase none{"", ""};
    return none;
}

class GoldenChurn
    : public ::testing::TestWithParam<golden::ChurnCase>
{};

TEST_P(GoldenChurn, MatchesPinnedBytes)
{
    const golden::ChurnCase cc = GetParam();
    const std::string want = readFileOrEmpty(goldenPath(cc));
    ASSERT_FALSE(want.empty())
        << "missing golden file " << goldenPath(cc)
        << " — run tools/regen_golden and commit the corpus";
    const golden::ChurnRun run = golden::runChurnCase(cc);
    EXPECT_EQ(want, run.scheduleText)
        << "churn case '" << cc.name
        << "' diverged; if intentional, refresh with "
           "tools/regen_golden.";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenChurn,
    ::testing::ValuesIn(golden::churnCases()),
    [](const ::testing::TestParamInfo<golden::ChurnCase> &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

std::vector<golden::GoldenCase>
faultGoldenCases()
{
    std::vector<golden::GoldenCase> out;
    for (const golden::GoldenCase &gc : golden::goldenCases())
        if (gc.faultSpec[0] != '\0')
            out.push_back(gc);
    return out;
}

std::string
scheduleText(const online::OnlineScheduler &svc)
{
    std::ostringstream os;
    writeSchedule(os, svc.published()->omega);
    return os.str();
}

class GoldenFaultService
    : public ::testing::TestWithParam<golden::GoldenCase>
{};

/**
 * The service's fault path reproduces the batch repair's pinned
 * fault goldens: every case but the node death (which sheds and
 * recompiles) through the incremental repair.
 */
TEST_P(GoldenFaultService, MatchesPinnedBytes)
{
    const golden::GoldenCase gc = GetParam();
    const std::string path =
        std::string(SRSIM_GOLDEN_DIR) + "/" + gc.name + ".sched";
    const std::string want = readFileOrEmpty(path);
    ASSERT_FALSE(want.empty()) << "missing golden file " << path;
    const auto svc = golden::makeChurnService();
    ASSERT_TRUE(svc->start().accepted);
    const RequestResult r = svc->injectFault(gc.faultSpec);
    ASSERT_TRUE(r.accepted) << r.detail;
    EXPECT_EQ(r.usedIncremental, std::string(gc.name) != "fault-node");
    EXPECT_EQ(want, scheduleText(*svc));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenFaultService,
    ::testing::ValuesIn(faultGoldenCases()),
    [](const ::testing::TestParamInfo<golden::GoldenCase> &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

/**
 * The tentpole claim: one admission on the figure config re-solves
 * only the subsets the new message lands in — at least 80% of the
 * maximal related subsets are copied verbatim — and the published
 * schedule is verifier-certified at the original period.
 */
TEST(OnlineAdmission, SingleAdmitResolvesOnlyTouchedSubsets)
{
    const golden::ChurnRun run =
        golden::runChurnCase(churnCase("churn-admit"));
    ASSERT_EQ(run.results.size(), 1u);
    const RequestResult &r = run.results[0];
    EXPECT_TRUE(r.usedIncremental);
    EXPECT_FALSE(r.usedFullCompile);
    ASSERT_GT(r.subsetsTotal, 0u);
    EXPECT_GE(r.subsetsResolved, 1u);
    EXPECT_EQ(r.subsetsCopied + r.subsetsResolved,
              r.subsetsTotal);
    // >= 80% copied verbatim.
    EXPECT_GE(r.subsetsCopied * 5, r.subsetsTotal * 4)
        << "copied " << r.subsetsCopied << "/" << r.subsetsTotal;
    // Published at the original period, certified.
    EXPECT_EQ(run.final->omega.period, run.start.period);
    EXPECT_TRUE(run.final->verification.ok);
    EXPECT_EQ(run.final->version, 2u);
}

/** Admit + remove round-trips to the original schedule, by cache. */
TEST(OnlineAdmission, RemoveRoundTripsViaCache)
{
    const golden::ChurnRun run =
        golden::runChurnCase(churnCase("churn-remove"));
    ASSERT_EQ(run.results.size(), 2u);
    EXPECT_TRUE(run.results[1].usedCache);
    // The end state is byte-identical to the healthy fig10 golden.
    const std::string fig10 = readFileOrEmpty(
        std::string(SRSIM_GOLDEN_DIR) +
        "/fig10-torus444-b128.sched");
    ASSERT_FALSE(fig10.empty());
    EXPECT_EQ(run.scheduleText, fig10);
}

/** Re-admitting a removed message is a cache hit, not a re-solve. */
TEST(OnlineAdmission, ReadmitHitsCache)
{
    const golden::ChurnRun run =
        golden::runChurnCase(churnCase("churn-readmit"));
    ASSERT_EQ(run.results.size(), 3u);
    EXPECT_TRUE(run.results[2].usedCache);
    EXPECT_EQ(run.results[2].subsetsResolved, 0u);
    EXPECT_GE(run.cacheHits, 2u); // remove + readmit
    // Same end state as admitting once.
    const golden::ChurnRun once =
        golden::runChurnCase(churnCase("churn-admit"));
    EXPECT_EQ(run.scheduleText, once.scheduleText);
}

/** A batch is one coalesced re-solve, not five. */
TEST(OnlineAdmission, BatchCoalescesIntoOneResolve)
{
    const golden::ChurnRun run =
        golden::runChurnCase(churnCase("churn-batch5"));
    ASSERT_EQ(run.results.size(), 1u);
    const RequestResult &r = run.results[0];
    EXPECT_TRUE(r.usedIncremental || r.usedFullCompile);
    EXPECT_TRUE(run.final->verification.ok);
    EXPECT_EQ(run.final->omega.period, run.start.period);
    EXPECT_EQ(run.final->bounds.messages.size(),
              golden::runChurnCase(churnCase("churn-admit"))
                      .final->bounds.messages.size() +
                  4);
}

/** The whole request pipeline is a deterministic function. */
TEST(OnlineAdmission, Deterministic)
{
    const golden::ChurnRun a =
        golden::runChurnCase(churnCase("churn-batch5"));
    const golden::ChurnRun b =
        golden::runChurnCase(churnCase("churn-batch5"));
    EXPECT_EQ(a.scheduleText, b.scheduleText);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].subsetsResolved,
                  b.results[i].subsetsResolved);
        EXPECT_EQ(a.results[i].subsetsCopied,
                  b.results[i].subsetsCopied);
    }
}

/** online.* counters account for the churn work. */
TEST(OnlineMetrics, CountersAccountForChurn)
{
    metrics::Registry::global().clear();
    metrics::Registry::setEnabled(true);
    const golden::ChurnRun run =
        golden::runChurnCase(churnCase("churn-readmit"));
    metrics::Registry::setEnabled(false);

    std::map<std::string, std::uint64_t> c;
    for (const auto &[name, value] :
         metrics::Registry::global().counterSnapshot())
        c[name] = value;
    metrics::Registry::global().clear();

    EXPECT_EQ(c["online.requests"], 4u); // start + 3 requests
    EXPECT_EQ(c["online.admitted"], 2u);
    EXPECT_EQ(c["online.removed"], 1u);
    EXPECT_EQ(c["online.rejected"], 0u);
    EXPECT_GE(c["online.incremental"], 1u);
    EXPECT_GE(c["online.cache_hits"], 2u);
    EXPECT_GE(c["online.subsets_copied"],
              c["online.subsets_resolved"]);
    (void)run;
}

/** InjectFault drives fault::repairSchedule: repair.* counters. */
TEST(OnlineMetrics, FaultRequestBumpsRepairCounters)
{
    const auto svc = golden::makeChurnService();
    ASSERT_TRUE(svc->start().accepted);

    metrics::Registry::global().clear();
    metrics::Registry::setEnabled(true);
    const RequestResult r = svc->injectFault("link:0-1");
    metrics::Registry::setEnabled(false);

    std::map<std::string, std::uint64_t> c;
    for (const auto &[name, value] :
         metrics::Registry::global().counterSnapshot())
        c[name] = value;
    metrics::Registry::global().clear();

    ASSERT_TRUE(r.accepted) << r.detail;
    EXPECT_EQ(c["online.faults_injected"], 1u);
    if (r.usedIncremental) {
        EXPECT_EQ(c["repair.incremental"], 1u);
        EXPECT_EQ(c["repair.subsets_resolved"],
                  r.subsetsResolved);
        EXPECT_EQ(c["repair.subsets_reused"], r.subsetsCopied);
    } else {
        EXPECT_GE(c["repair.full_recompiles"], 1u);
    }
    EXPECT_TRUE(svc->published()->verification.ok);
}

/** Rejections carry structured reasons, and reject atomically. */
TEST(OnlineRejection, StructuredReasons)
{
    const auto svc = golden::makeChurnService();
    AdmitSpec spec{"x0", "probe", "verify", 256.0};

    // Not started yet.
    EXPECT_EQ(svc->admit(spec).reason,
              RejectReason::InvalidRequest);

    ASSERT_TRUE(svc->start().accepted);
    const std::uint64_t v0 = svc->published()->version;

    // Unknown task.
    AdmitSpec bad = spec;
    bad.dst = "nonesuch";
    RequestResult r = svc->admit(bad);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.reason, RejectReason::InvalidRequest);
    EXPECT_NE(r.detail.find("nonesuch"), std::string::npos);

    // Duplicate of an existing message.
    bad = spec;
    bad.name = "c"; // DVB chain message
    EXPECT_EQ(svc->admit(bad).reason,
              RejectReason::InvalidRequest);

    // Duplicate within one batch: all-or-nothing.
    EXPECT_EQ(svc->admitBatch({spec, spec}).reason,
              RejectReason::InvalidRequest);

    // Nonpositive size.
    bad = spec;
    bad.bytes = 0.0;
    EXPECT_EQ(svc->admit(bad).reason,
              RejectReason::InvalidRequest);

    // Remove of an unknown message.
    EXPECT_EQ(svc->remove("nonesuch").reason,
              RejectReason::InvalidRequest);

    // Bad period.
    EXPECT_EQ(svc->updatePeriod(-1.0).reason,
              RejectReason::InvalidRequest);

    // Malformed and timed fault specs.
    EXPECT_EQ(svc->injectFault("garbage!").reason,
              RejectReason::InvalidRequest);
    EXPECT_EQ(svc->injectFault("link:0-1@5").reason,
              RejectReason::InvalidRequest);

    // None of the rejections published anything.
    EXPECT_EQ(svc->published()->version, v0);
}

/**
 * An infeasible admission is classified, and when a stretched
 * period would fit, the caller learns the period.
 */
/**
 * A rejected fault puts the fabric back as it was, faults applied
 * before the service was built included; clearing the mask and
 * reapplying only the service's own specs brought them back to life.
 */
TEST(OnlineRejection, RejectedFaultKeepsFaultsFromBeforeConstruction)
{
    const DvbParams dvb;
    TaskFlowGraph g = buildDvbTfg(dvb);
    auto topo = makeTopology("torus:4,4,4");
    topo->failLink(0);
    TimingModel tm;
    tm.apSpeed = dvb.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);
    online::OnlineSchedulerConfig cfg;
    cfg.compiler.inputPeriod = 120.0;
    online::OnlineScheduler svc(std::move(g), std::move(topo), alloc,
                                tm, cfg);
    ASSERT_TRUE(svc.start().accepted);
    const RequestResult r = svc.injectFault("link:#99999");
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.reason, RejectReason::InvalidRequest);
    EXPECT_FALSE(svc.topology().linkUp(0));
}

TEST(OnlineRejection, InfeasibleAdmissionIsClassified)
{
    const auto svc = golden::makeChurnService();
    ASSERT_TRUE(svc->start().accepted);
    const std::uint64_t v0 = svc->published()->version;

    // A message three orders of magnitude above the whole DVB
    // budget cannot fit at the current period.
    const RequestResult r =
        svc->admit({"huge", "input", "result", 5.0e6});
    ASSERT_FALSE(r.accepted);
    EXPECT_TRUE(r.reason == RejectReason::UtilizationCeiling ||
                r.reason == RejectReason::InfeasibleSubset ||
                r.reason == RejectReason::PeriodStretchRequired ||
                r.reason == RejectReason::InvalidRequest)
        << online::rejectReasonName(r.reason);
    if (r.reason == RejectReason::PeriodStretchRequired) {
        EXPECT_GT(r.requiredPeriod, r.period);
    }
    EXPECT_FALSE(r.detail.empty());
    EXPECT_EQ(svc->published()->version, v0);
    EXPECT_TRUE(svc->published()->verification.ok);
}

/** The canonical key identifies workloads, not construction order. */
TEST(OnlineCache, CanonicalKeyAndLru)
{
    const auto svc = golden::makeChurnService();
    ASSERT_TRUE(svc->start().accepted);
    // Admit/remove three distinct messages: six states, all cached.
    for (const char *n : {"k0", "k1", "k2"}) {
        ASSERT_TRUE(svc->admit({n, "probe", "verify", 256.0})
                        .accepted);
        ASSERT_TRUE(svc->remove(n).accepted);
    }
    // Every removal returns to the base workload: cache hits.
    EXPECT_GE(svc->cache().hits(), 3u);

    // LRU bound: capacity 1 keeps exactly one entry.
    online::ScheduleCache tiny(1);
    online::ScheduleCache::Entry e;
    tiny.insert("a", e);
    tiny.insert("b", e);
    EXPECT_EQ(tiny.size(), 1u);
    EXPECT_EQ(tiny.evictions(), 1u);
    EXPECT_EQ(tiny.lookup("a"), nullptr);
    EXPECT_NE(tiny.lookup("b"), nullptr);

    // The key covers the fault mask: degrading a link changes it.
    const DvbParams dvb;
    const TaskFlowGraph g = buildDvbTfg(dvb);
    const auto topo = makeTopology("torus:4,4,4");
    TimingModel tm;
    tm.apSpeed = dvb.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);
    SrCompilerConfig cfg;
    cfg.inputPeriod = 2.4 * tm.tauC(g);
    const std::string k1 =
        online::canonicalWorkloadKey(g, *topo, alloc, tm, cfg);
    topo->failLink(0);
    const std::string k2 =
        online::canonicalWorkloadKey(g, *topo, alloc, tm, cfg);
    EXPECT_NE(k1, k2);
    EXPECT_NE(online::fnv1a64(k1), online::fnv1a64(k2));
}

/**
 * The key covers the fabric wiring, not just its name: two fabrics
 * that share a name but wire their nodes differently route (and so
 * schedule) differently, and must not collide in the cache.
 */
TEST(OnlineCache, KeyCoversFabricWiring)
{
    class TwinFabric : public Topology
    {
      public:
        explicit TwinFabric(bool ring)
        {
            setNumNodes(4);
            if (ring) {
                addLink(0, 1);
                addLink(1, 2);
                addLink(2, 3);
                addLink(3, 0);
            } else {
                addLink(0, 1);
                addLink(0, 2);
                addLink(0, 3);
                addLink(1, 2);
            }
        }
        std::string name() const override { return "twin"; }

      protected:
        std::vector<Path>
        minimalPathsImpl(NodeId, NodeId, std::size_t) const override
        {
            return {};
        }
        Path
        routeLsdToMsdImpl(NodeId, NodeId) const override
        {
            return {};
        }
    };

    const DvbParams dvb;
    const TaskFlowGraph g = buildDvbTfg(dvb);
    TimingModel tm;
    tm.apSpeed = dvb.matchedApSpeed();
    tm.bandwidth = 128.0;
    SrCompilerConfig cfg;
    cfg.inputPeriod = 2.4 * tm.tauC(g);

    const TwinFabric ring(true);
    const TwinFabric star(false);
    ASSERT_EQ(ring.name(), star.name());
    ASSERT_EQ(ring.numNodes(), star.numNodes());
    ASSERT_EQ(ring.numLinks(), star.numLinks());

    const TaskAllocation alloc = alloc::roundRobin(g, ring, 13);
    const std::string kr =
        online::canonicalWorkloadKey(g, ring, alloc, tm, cfg);
    const std::string ks =
        online::canonicalWorkloadKey(g, star, alloc, tm, cfg);
    EXPECT_NE(kr, ks);
    EXPECT_NE(online::fnv1a64(kr), online::fnv1a64(ks));
}

/** UpdatePeriod republishes at the new period, certified. */
TEST(OnlinePeriod, UpdatePeriodRepublishes)
{
    const auto svc = golden::makeChurnService();
    ASSERT_TRUE(svc->start().accepted);
    const Time p0 = svc->currentPeriod();
    const RequestResult r = svc->updatePeriod(p0 * 1.5);
    ASSERT_TRUE(r.accepted) << r.detail;
    EXPECT_EQ(svc->published()->omega.period, p0 * 1.5);
    EXPECT_TRUE(svc->published()->verification.ok);
    // And back — this state was cached by start().
    const RequestResult back = svc->updatePeriod(p0);
    ASSERT_TRUE(back.accepted) << back.detail;
    EXPECT_TRUE(back.usedCache);
}

/**
 * Derate to 0.3 the 8 links from the `skip`-th lowest-numbered on
 * that the published schedule uses.
 */
RequestResult
derateUsedLinks(online::OnlineScheduler &svc, std::size_t skip)
{
    std::set<LinkId> used;
    for (const Path &p : svc.published()->omega.paths.paths)
        used.insert(p.links.begin(), p.links.end());
    std::string spec;
    int n = 0;
    for (auto it = std::next(used.begin(), skip);
         it != used.end() && n < 8; ++it, ++n)
        spec += (n ? ";" : "") +
                ("derate:#" + std::to_string(*it) + "=0.3");
    return svc.injectFault(spec);
}

/**
 * The fig10 service at 1.2 tau_c (60 us) after derating the first 8
 * used links: the repair stretches the period to 75 us.
 */
std::unique_ptr<online::OnlineScheduler>
stretchedService()
{
    auto svc = golden::makeChurnService(1.2);
    EXPECT_TRUE(svc->start().accepted);
    const RequestResult r = derateUsedLinks(*svc, 0);
    EXPECT_TRUE(r.accepted) << r.detail;
    EXPECT_DOUBLE_EQ(svc->published()->omega.period, 75.0);
    EXPECT_DOUBLE_EQ(svc->published()->omega.degradedFrom, 60.0);
    return svc;
}

/**
 * degradedFrom depends on what a request does, not on which path
 * served it: a publish at the same period keeps it (here through
 * the incremental repair), a second stretch keeps the earliest
 * healthy period, and a requested period clears it whether it is
 * compiled or served from the cache.
 */
TEST(OnlineProvenance, DegradedFromFollowsTheRequestNotThePath)
{
    {
        const auto svc = stretchedService();
        ASSERT_TRUE(derateUsedLinks(*svc, 16).accepted);
        const RequestResult r = derateUsedLinks(*svc, 32);
        ASSERT_TRUE(r.accepted) << r.detail;
        EXPECT_DOUBLE_EQ(svc->published()->omega.period, 112.5);
        EXPECT_DOUBLE_EQ(svc->published()->omega.degradedFrom, 60.0);
    }
    {
        const auto svc = stretchedService();
        const RequestResult r = svc->injectFault("link:#4");
        ASSERT_TRUE(r.accepted) << r.detail;
        EXPECT_TRUE(r.usedIncremental);
        EXPECT_DOUBLE_EQ(svc->published()->omega.period, 75.0);
        EXPECT_DOUBLE_EQ(svc->published()->omega.degradedFrom, 60.0);
    }
    for (const bool viaCache : {false, true}) {
        const auto svc = stretchedService();
        if (viaCache) {
            ASSERT_TRUE(
                svc->admit({"x0", "probe", "verify", 256}).accepted);
            EXPECT_DOUBLE_EQ(svc->published()->omega.degradedFrom,
                             60.0);
            ASSERT_TRUE(svc->remove("x0").accepted);
            EXPECT_DOUBLE_EQ(svc->published()->omega.degradedFrom,
                             60.0);
        }
        const RequestResult r = svc->updatePeriod(75.0);
        ASSERT_TRUE(r.accepted) << r.detail;
        EXPECT_EQ(r.usedCache, viaCache);
        EXPECT_DOUBLE_EQ(svc->published()->omega.degradedFrom, 0.0)
            << (viaCache ? "cache hit" : "full compile");
    }
}

} // namespace
} // namespace srsim
