/**
 * @file
 * Tests for the TFG file format and the topology factory.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/schedule_io.hh"
#include "core/sr_compiler.hh"
#include "core/verifier.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "tfg/tfg_io.hh"
#include "topology/factory.hh"
#include "topology/generalized_hypercube.hh"

namespace srsim {
namespace {

TEST(TfgIoTest, RoundTripPreservesGraph)
{
    const TaskFlowGraph g = buildDvbTfg({});
    std::stringstream ss;
    writeTfg(ss, g);
    const TaskFlowGraph back = readTfg(ss);

    ASSERT_EQ(back.numTasks(), g.numTasks());
    ASSERT_EQ(back.numMessages(), g.numMessages());
    for (TaskId t = 0; t < g.numTasks(); ++t) {
        EXPECT_EQ(back.task(t).name, g.task(t).name);
        EXPECT_DOUBLE_EQ(back.task(t).operations,
                         g.task(t).operations);
    }
    for (MessageId m = 0; m < g.numMessages(); ++m) {
        EXPECT_EQ(back.message(m).name, g.message(m).name);
        EXPECT_EQ(back.message(m).src, g.message(m).src);
        EXPECT_EQ(back.message(m).dst, g.message(m).dst);
        EXPECT_DOUBLE_EQ(back.message(m).bytes,
                         g.message(m).bytes);
    }
}

TEST(TfgIoTest, CommentsAndBlankLinesIgnored)
{
    std::stringstream ss;
    ss << "srsim-tfg v1\n"
       << "# a comment\n"
       << "\n"
       << "task a 100\n"
       << "task b 200\n"
       << "message m a b 64\n"
       << "end\n";
    const TaskFlowGraph g = readTfg(ss);
    EXPECT_EQ(g.numTasks(), 2);
    EXPECT_EQ(g.numMessages(), 1);
}

TEST(TfgIoTest, RejectsBadInputs)
{
    auto parse = [](const std::string &body) {
        std::stringstream ss;
        ss << body;
        return readTfg(ss);
    };
    EXPECT_THROW(parse("bogus\n"), FatalError);
    EXPECT_THROW(parse("srsim-tfg v1\ntask a 1\n"), FatalError);
    EXPECT_THROW(parse("srsim-tfg v1\ntask a 1\ntask a 2\nend\n"),
                 FatalError);
    EXPECT_THROW(
        parse("srsim-tfg v1\ntask a 1\nmessage m a zz 5\nend\n"),
        FatalError);
    EXPECT_THROW(parse("srsim-tfg v1\nfrobnicate\nend\n"),
                 FatalError);
    EXPECT_THROW(parse("srsim-tfg v1\nend\n"), FatalError);
    // Cycle.
    EXPECT_THROW(
        parse("srsim-tfg v1\ntask a 1\ntask b 1\n"
              "message m1 a b 5\nmessage m2 b a 5\nend\n"),
        FatalError);
}

/**
 * Golden round-trip: a compiled Omega serialized with schedule_io,
 * re-parsed, must (a) re-serialize byte-identically, (b) satisfy the
 * independent verifier, and (c) equal the original segment for
 * segment. Guards the on-disk format against drift now that
 * schedules are produced on worker threads.
 */
TEST(ScheduleIoTest, GoldenRoundTripVerifiesAndMatches)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto cube = GeneralizedHypercube::binaryCube(6);
    DvbParams dp;
    TimingModel tm;
    tm.apSpeed = dp.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, cube, 13);
    SrCompilerConfig cfg;
    cfg.inputPeriod = 2.0 * tm.tauC(g);
    const SrCompileResult r =
        compileScheduledRouting(g, cube, alloc, tm, cfg);
    ASSERT_TRUE(r.feasible) << r.detail;

    std::stringstream first;
    writeSchedule(first, r.omega);
    const std::string golden = first.str();

    const GlobalSchedule back = readSchedule(first, cube);

    // (a) format stability: write(read(write(x))) == write(x).
    std::stringstream second;
    writeSchedule(second, back);
    EXPECT_EQ(second.str(), golden);

    // (b) the re-parsed schedule is still a valid Omega.
    const VerifyResult v =
        verifySchedule(g, cube, alloc, r.bounds, back);
    EXPECT_TRUE(v.ok) << (v.violations.empty()
                              ? "?"
                              : v.violations.front());

    // (c) structural equality with the original.
    EXPECT_DOUBLE_EQ(back.period, r.omega.period);
    ASSERT_EQ(back.segments.size(), r.omega.segments.size());
    ASSERT_EQ(back.paths.paths.size(), r.omega.paths.paths.size());
    for (std::size_t i = 0; i < back.segments.size(); ++i) {
        EXPECT_EQ(back.paths.paths[i], r.omega.paths.paths[i])
            << "message " << i;
        ASSERT_EQ(back.segments[i].size(),
                  r.omega.segments[i].size())
            << "message " << i;
        for (std::size_t w = 0; w < back.segments[i].size(); ++w) {
            EXPECT_NEAR(back.segments[i][w].start,
                        r.omega.segments[i][w].start, 1e-9);
            EXPECT_NEAR(back.segments[i][w].end,
                        r.omega.segments[i][w].end, 1e-9);
        }
    }
}

/**
 * Malformed-input corpus: tryReadSchedule must be total on arbitrary
 * bytes — every corrupt file under tests/corpus/io/ comes back as a
 * structured error naming the defect, never an assert, abort, or
 * uncaught exception. The daemon restoring sessions from snapshot
 * files on recovery (src/server/daemon.cc) depends on exactly this
 * contract: a corrupt snapshot is rejected, never a crash.
 */
TEST(ScheduleIoTest, MalformedCorpusReturnsStructuredErrors)
{
    const auto topo = makeTopology("torus:4,4,4");
    struct BadCase
    {
        const char *file;
        const char *errorNeedle;
    };
    const BadCase cases[] = {
        {"empty.sched", "truncated while reading magic"},
        {"bad-magic.sched", "not an srsim-schedule"},
        {"truncated-header.sched", "truncated while reading"},
        {"bad-period.sched", "bad period line"},
        {"count-bomb.sched", "implausible message count"},
        {"negative-count.sched", "bad messages line"},
        {"bad-path-node.sched", "outside the 64-node fabric"},
        {"nonadjacent-path.sched", "not adjacent"},
        {"truncated-segments.sched",
         "truncated while reading segment"},
        {"inverted-segment.sched", "bad segment"},
        {"missing-end.sched", "missing end marker"},
        {"v2-bad-degraded.sched", "bad degraded-from line"},
        {"v2-unknown-header.sched", "unknown schedule header"},
        {"v1-faults-line.sched", "bad messages line"},
    };
    for (const BadCase &c : cases) {
        const std::string path =
            std::string(SRSIM_IO_CORPUS_DIR) + "/" + c.file;
        std::ifstream in(path);
        ASSERT_TRUE(in.is_open()) << "missing corpus file " << path;
        const ScheduleReadResult r = tryReadSchedule(in, *topo);
        EXPECT_FALSE(r.ok) << c.file;
        EXPECT_NE(r.error.find(c.errorNeedle), std::string::npos)
            << c.file << ": got error '" << r.error << "'";
        // A failed parse leaves no partial schedule behind.
        EXPECT_TRUE(r.omega.segments.empty()) << c.file;
    }
}

/** The valid corpus files parse, including v2 provenance. */
TEST(ScheduleIoTest, ValidCorpusParses)
{
    const auto topo = makeTopology("torus:4,4,4");
    {
        std::ifstream in(std::string(SRSIM_IO_CORPUS_DIR) +
                         "/valid-v1.sched");
        ASSERT_TRUE(in.is_open());
        const ScheduleReadResult r = tryReadSchedule(in, *topo);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.omega.segments.size(), 1u);
        EXPECT_TRUE(r.omega.faultSpec.empty());
    }
    {
        std::ifstream in(std::string(SRSIM_IO_CORPUS_DIR) +
                         "/valid-v2.sched");
        ASSERT_TRUE(in.is_open());
        const ScheduleReadResult r = tryReadSchedule(in, *topo);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.omega.faultSpec, "link:0-1");
        EXPECT_DOUBLE_EQ(r.omega.degradedFrom, 120.0);
    }
}

/** The throwing wrapper surfaces the same structured message. */
TEST(ScheduleIoTest, ReadScheduleFatalsOnCorruptInput)
{
    const auto topo = makeTopology("torus:4,4,4");
    std::istringstream in("srsim-schedule v1\nperiod 0\n");
    EXPECT_THROW(readSchedule(in, *topo), FatalError);
}

TEST(TopologyFactoryTest, BuildsAllKinds)
{
    EXPECT_EQ(makeTopology("cube:6")->name(), "binary 6-cube");
    EXPECT_EQ(makeTopology("ghc:4,4,4")->name(), "GHC(4,4,4)");
    EXPECT_EQ(makeTopology("torus:8,8")->name(), "8x8 torus");
    EXPECT_EQ(makeTopology("mesh:4,4")->name(), "4x4 mesh");
    EXPECT_EQ(makeTopology("torus:8,8")->numNodes(), 64);
}

TEST(TopologyFactoryTest, SpecOrderIsMsdFirst)
{
    // "ghc:2,4" = GHC(2,4): 2 is the most significant dimension.
    const auto t = makeTopology("ghc:2,4");
    EXPECT_EQ(t->name(), "GHC(2,4)");
    EXPECT_EQ(t->numNodes(), 8);
}

TEST(TopologyFactoryTest, RejectsBadSpecs)
{
    EXPECT_THROW(makeTopology("cube6"), FatalError);
    EXPECT_THROW(makeTopology("blimp:3,3"), FatalError);
    EXPECT_THROW(makeTopology("torus:"), FatalError);
    EXPECT_THROW(makeTopology("torus:8,x"), FatalError);
    EXPECT_THROW(makeTopology("torus:8,1"), FatalError);
    EXPECT_THROW(makeTopology("cube:0"), FatalError);
}

} // namespace
} // namespace srsim
