/**
 * @file
 * Scheduling-daemon suite: protocol parsing, WAL + snapshot codecs,
 * daemon/direct-service equivalence, backpressure, deadlines, and
 * crash recovery (the recovered daemon must republish byte-identical
 * schedules). Labeled `server tsan`: the churn stress runs under
 * ThreadSanitizer in the -DSRSIM_SANITIZE=thread CI lane.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/schedule_io.hh"
#include "engine/context.hh"
#include "metrics/metrics.hh"
#include "online/service.hh"
#include "server/daemon.hh"
#include "server/protocol.hh"
#include "server/snapshot.hh"
#include "server/wal.hh"
#include "tfg/dvb.hh"
#include "topology/factory.hh"

namespace srsim {
namespace {

using server::DaemonConfig;
using server::DaemonOp;
using server::DaemonOutcome;
using server::DaemonResponse;
using server::SchedulingDaemon;
using server::SessionConfig;

/**
 * Fresh empty scratch directory, unique per test *and* per process:
 * the same suite may run concurrently from several build trees
 * (plain and sanitizer lanes), and a fixed path would let one run's
 * remove_all() clobber the other's live WAL mid-test.
 */
std::vector<std::filesystem::path> &
scratchDirsMade()
{
    static std::vector<std::filesystem::path> dirs;
    return dirs;
}

std::string
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("srsim-server-" + name + "-" +
         std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    scratchDirsMade().push_back(dir);
    return dir.string();
}

/**
 * Remove this process's scratch dirs when its tests passed; keep
 * them for post-mortem inspection when something failed.
 */
class ScratchCleanup : public ::testing::Environment
{
    void TearDown() override
    {
        if (!::testing::UnitTest::GetInstance()->Passed())
            return;
        std::error_code ec;
        for (const std::filesystem::path &dir : scratchDirsMade())
            std::filesystem::remove_all(dir, ec);
    }
};

const ::testing::Environment *const scratchCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

/** The golden-churn figure configuration as a daemon session. */
SessionConfig
figSession(const std::string &name)
{
    SessionConfig sc;
    sc.name = name;
    sc.topo = "torus:4,4,4";
    sc.tfg = "dvb";
    sc.period = 120.0;
    sc.bandwidth = 128.0;
    sc.alloc = "rr:13";
    return sc;
}

std::vector<DaemonOp>
parseOps(const std::string &script)
{
    std::istringstream is(script);
    const server::DaemonScriptParseResult r =
        server::parseDaemonScript(is);
    EXPECT_TRUE(r.ok) << "line " << r.errorLine << ": " << r.error;
    return r.ops;
}

std::string
publishedBytes(const SchedulingDaemon &d, const std::string &name)
{
    const auto st = d.published(name);
    if (!st)
        return {};
    std::ostringstream os;
    writeSchedule(os, st->omega);
    return os.str();
}

/**
 * Value of counter `name` in `r` (0 when never bumped). Reads a
 * snapshot, not counter(), which would create the metric.
 */
std::uint64_t
count(const metrics::Registry &r, const std::string &name)
{
    for (const auto &[n, v] : r.counterSnapshot())
        if (n == name)
            return v;
    return 0;
}

/**
 * The same figure recipe driven directly, no daemon: the requests
 * of a one-session script fed straight to an OnlineScheduler.
 */
std::string
directBytes(const std::string &sessionScript)
{
    const DvbParams dvb;
    TaskFlowGraph g = buildDvbTfg(dvb);
    auto topo = makeTopology("torus:4,4,4");
    TimingModel tm;
    tm.apSpeed = dvb.matchedApSpeed();
    tm.bandwidth = 128.0;
    const TaskAllocation alloc = alloc::roundRobin(g, *topo, 13);
    online::OnlineSchedulerConfig cfg;
    cfg.compiler.inputPeriod = 120.0;
    cfg.compiler.assign.seed = 12345;
    online::OnlineScheduler svc(std::move(g), std::move(topo),
                                alloc, tm, cfg);
    EXPECT_TRUE(svc.start().accepted);
    for (const DaemonOp &op : parseOps(sessionScript))
        EXPECT_TRUE(svc.process(op.request).accepted);
    std::ostringstream os;
    writeSchedule(os, svc.published()->omega);
    return os.str();
}

// -- Protocol -----------------------------------------------------

TEST(ServerProtocol, ParsesOpenRequestsAndClose)
{
    const auto ops = parseOps(
        "# comment\n"
        "open a topo=torus:4,4,4 period=120 tfg=dvb bw=128 "
        "alloc=rr:13 seed=7 cache=0\n"
        "a admit x0 probe verify 256\n"
        "a period 125\n"
        "a fault link:0-1\n"
        "close a\n"
        // Trailing comments are legal on every kind of line.
        "open cam topo=torus:4,4,4 period=120 tfg=dvb bw=128 "
        "alloc=rr:13   # camera\n"
        "cam admit tap probe verify 48   # tap\n"
        "close cam # done\n");
    ASSERT_EQ(ops.size(), 8u);
    EXPECT_EQ(ops[0].kind, DaemonOp::Kind::Open);
    EXPECT_EQ(ops[0].open.name, "a");
    EXPECT_EQ(ops[0].open.bandwidth, 128.0);
    EXPECT_EQ(ops[0].open.seed, 7u);
    EXPECT_FALSE(ops[0].open.cache);
    EXPECT_EQ(ops[1].kind, DaemonOp::Kind::Request);
    EXPECT_EQ(ops[1].request.kind,
              online::RequestKind::AdmitMessage);
    EXPECT_EQ(ops[4].kind, DaemonOp::Kind::Close);
    EXPECT_EQ(ops[5].kind, DaemonOp::Kind::Open);
    EXPECT_EQ(ops[5].open.alloc, "rr:13");
    EXPECT_EQ(ops[6].request.admits[0].name, "tap");
    EXPECT_EQ(ops[6].request.admits[0].bytes, 48.0);
    EXPECT_EQ(ops[7].kind, DaemonOp::Kind::Close);
    EXPECT_EQ(ops[7].session, "cam");
}

/** Comments, batching, mid-token '#', and errors with line numbers. */
TEST(ServerProtocol, ParsesAndRejectsStructurally)
{
    {
        const auto ops = parseOps("# comment\n"
                                  "a admit a t1 t2 64\n"
                                  "\n"
                                  "a batch 2\n"
                                  "a admit b t1 t2 64\n"
                                  "   # comment inside a batch\n"
                                  "a admit c t2 t3 64\n"
                                  "a remove a\n"
                                  "a period 123.5\n"
                                  "a fault link:0-1;derate:#3=0.5\n"
                                  "a fault derate:#4=0.5 # strike\n");
        ASSERT_EQ(ops.size(), 6u);
        EXPECT_EQ(ops[0].request.kind,
                  online::RequestKind::AdmitMessage);
        EXPECT_EQ(ops[0].line, 2);
        EXPECT_EQ(ops[1].request.admits.size(), 2u);
        EXPECT_EQ(ops[1].request.admits[1].name, "c");
        EXPECT_EQ(ops[1].line, 4);
        EXPECT_EQ(ops[2].request.name, "a");
        EXPECT_EQ(ops[3].request.period, 123.5);
        EXPECT_EQ(ops[4].request.faultSpec,
                  "link:0-1;derate:#3=0.5");
        EXPECT_EQ(ops[5].request.faultSpec, "derate:#4=0.5");
    }
    const struct
    {
        const char *script;
        int errorLine;
    } bad[] = {
        {"a admit a t1 t2\n", 1},                 // short admit
        {"a admit a t1 t2 64\na frobnicate\n", 2}, // unknown verb
        {"a batch 3\na admit a t1 t2 64\n", 2},    // truncated batch
        {"a batch 2\na remove a\n", 2},            // non-admit in batch
        {"a remove a b\n", 1},                    // trailing token
        {"a fault\n", 1},                         // empty fault spec
    };
    for (const auto &c : bad) {
        std::istringstream is(c.script);
        const server::DaemonScriptParseResult r =
            server::parseDaemonScript(is);
        EXPECT_FALSE(r.ok) << c.script;
        EXPECT_EQ(r.errorLine, c.errorLine) << c.script;
    }
}

TEST(ServerProtocol, BatchCoalescesIntoOneRequest)
{
    const auto ops = parseOps(
        "open a topo=cube:3 period=100 tfg=dvb\n"
        "a batch 2\n"
        "a admit x0 probe verify 256\n"
        "a admit x1 match probe 128\n");
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[1].request.admits.size(), 2u);
}

TEST(ServerProtocol, RejectsMalformedLines)
{
    const char *bad[] = {
        "open a period=120 tfg=dvb\n",            // missing topo
        "open a topo=cube:3 period=0 tfg=dvb\n",  // bad period
        "open open topo=cube:3 period=1 tfg=dvb\n", // reserved name
        "a admit x0 probe verify 256\n"
        "close a extra\n",
        "a batch 2\n"
        "a admit x0 probe verify 256\n"
        "b admit x1 match probe 128\n", // wrong session in batch
        "frobnicate\n",
    };
    for (const char *script : bad) {
        std::istringstream is(script);
        EXPECT_FALSE(server::parseDaemonScript(is).ok) << script;
    }
}

// -- WAL ----------------------------------------------------------

TEST(ServerWal, RecordsRoundTripThroughTheLog)
{
    const std::string dir = scratchDir("wal-roundtrip");
    const std::string path = dir + "/wal.jsonl";
    {
        server::WriteAheadLog wal;
        std::string err;
        ASSERT_TRUE(wal.open(path, 1, &err)) << err;
        for (const DaemonOp &op : parseOps(
                 "open a topo=torus:4,4,4 period=120 tfg=dvb "
                 "bw=128 alloc=rr:13\n"
                 "a admit x0 probe verify 256\n"
                 "a remove x0\n"
                 "a period 125\n"
                 "a fault link:0-1\n"
                 "close a\n"))
            wal.append(op);
        wal.sync();
        EXPECT_EQ(wal.recordsAppended(), 6u);
        EXPECT_EQ(wal.fsyncs(), 1u);
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.tornTail);
    ASSERT_EQ(r.records.size(), 6u);
    EXPECT_EQ(r.records[0].op.kind, DaemonOp::Kind::Open);
    EXPECT_EQ(r.records[0].op.open.alloc, "rr:13");
    EXPECT_EQ(r.records[1].op.request.admits[0].bytes, 256.0);
    EXPECT_EQ(r.records[3].op.request.period, 125.0);
    EXPECT_EQ(r.records[4].op.request.faultSpec, "link:0-1");
    EXPECT_EQ(r.records[5].op.kind, DaemonOp::Kind::Close);
}

TEST(ServerWal, ExactDoublesAndWideSeedsSurviveReplay)
{
    // Found by the multi-session fuzzer: replay recompiles from the
    // WAL's numbers, so %.12g doubles (periods) and u64-through-
    // double seeds (> 2^53) diverged byte-wise after recovery.
    const std::string dir = scratchDir("wal-precision");
    const std::string path = dir + "/wal.jsonl";
    DaemonOp op;
    op.kind = DaemonOp::Kind::Open;
    op.session = "a";
    op.open.name = "a";
    op.open.topo = "torus:2,7,4";
    op.open.period = 140.64778820468143;
    op.open.apSpeed = 24.63606304888733;
    op.open.alloc = "rr:1";
    op.open.seed = 13546682927695711814ULL;
    {
        server::WriteAheadLog wal;
        std::string err;
        ASSERT_TRUE(wal.open(path, 1, &err)) << err;
        wal.append(op);
        wal.sync();
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.records.size(), 1u);
    const SessionConfig &sc = r.records[0].op.open;
    EXPECT_EQ(sc.period, 140.64778820468143);
    EXPECT_EQ(sc.apSpeed, 24.63606304888733);
    EXPECT_EQ(sc.seed, 13546682927695711814ULL);
}

TEST(ServerWal, TornTailEndsReplayCleanly)
{
    const std::string dir = scratchDir("wal-torn");
    const std::string path = dir + "/wal.jsonl";
    {
        server::WriteAheadLog wal;
        std::string err;
        ASSERT_TRUE(wal.open(path, 1, &err)) << err;
        for (const DaemonOp &op : parseOps(
                 "open a topo=cube:3 period=100 tfg=dvb\n"
                 "a admit x0 probe verify 256\n"))
            wal.append(op);
        wal.sync();
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"seq\":3,\"op\":\"adm"; // torn mid-record
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.tornTail);
    EXPECT_EQ(r.records.size(), 2u);
}

TEST(ServerWal, SequenceBreakIsATornTail)
{
    const std::string dir = scratchDir("wal-seqbreak");
    const std::string path = dir + "/wal.jsonl";
    {
        std::ofstream out(path);
        out << R"({"seq":1,"op":"close","session":"a"})" << "\n";
        out << R"({"seq":3,"op":"close","session":"a"})" << "\n";
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.tornTail);
    EXPECT_EQ(r.records.size(), 1u);
}

TEST(ServerWal, MissingFileIsAnEmptyLog)
{
    const server::WalReadResult r =
        server::readWal(scratchDir("wal-missing") + "/nope.jsonl");
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.tornTail);
    EXPECT_TRUE(r.records.empty());
}

TEST(ServerWal, LogBaseMayStartPastOne)
{
    // A log continued after recovery retired its stale predecessor
    // starts at the snapshot's seq + 1, not at 1; continuity is
    // still required from the base onward.
    const std::string dir = scratchDir("wal-base");
    const std::string path = dir + "/wal.jsonl";
    {
        std::ofstream out(path);
        out << R"({"seq":5,"op":"close","session":"a"})" << "\n";
        out << R"({"seq":6,"op":"close","session":"b"})" << "\n";
        out << R"({"seq":8,"op":"close","session":"c"})" << "\n";
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.tornTail); // 6 -> 8 breaks continuity
    ASSERT_EQ(r.records.size(), 2u);
    EXPECT_EQ(r.records[0].seq, 5u);
    EXPECT_EQ(r.records[1].seq, 6u);
}

TEST(ServerWal, ControlCharactersInStringsRoundTrip)
{
    // JsonWriter escapes control bytes as \u00xx; the reader must
    // decode them back or replayed state diverges byte-wise.
    const std::string dir = scratchDir("wal-ctrl");
    const std::string path = dir + "/wal.jsonl";
    DaemonOp op;
    op.kind = DaemonOp::Kind::Request;
    op.session = std::string("a\x01b\x1f", 4);
    op.request.kind = online::RequestKind::InjectFault;
    op.request.faultSpec = std::string("link:0-1\x07", 9);
    {
        server::WriteAheadLog wal;
        std::string err;
        ASSERT_TRUE(wal.open(path, 1, &err)) << err;
        wal.append(op);
        EXPECT_TRUE(wal.sync());
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].op.session, op.session);
    EXPECT_EQ(r.records[0].op.request.faultSpec,
              op.request.faultSpec);
}

// -- Snapshots ----------------------------------------------------

server::DaemonSnapshot
sampleSnapshot()
{
    server::DaemonSnapshot snap;
    snap.walSeq = 42;
    server::SessionSnapshot s;
    s.cfg = figSession("a");
    s.period = 123.5;
    s.tasks = {{"probe", 1000.0, 3}, {"verify", 500.0, 7}};
    s.messages = {{"m0", "probe", "verify", 256.0}};
    s.scheduleText = "not a real schedule\nbut raw bytes\n";
    snap.sessions.push_back(std::move(s));
    server::SnapshotCacheEntry e;
    e.key = "topo=cube:3;ap=1;t:probe:1:0;";
    e.scheduleText = "cached schedule\nbytes\n";
    e.numSubsets = 9;
    e.peakUtilization = 0.25;
    snap.cache.push_back(std::move(e));
    return snap;
}

TEST(ServerSnapshot, CodecRoundTrips)
{
    const server::DaemonSnapshot snap = sampleSnapshot();
    const std::string body = server::encodeSnapshot(snap);
    server::DaemonSnapshot back;
    std::string err;
    ASSERT_TRUE(server::decodeSnapshot(body, &back, &err)) << err;
    EXPECT_EQ(back.walSeq, 42u);
    ASSERT_EQ(back.sessions.size(), 1u);
    EXPECT_EQ(back.sessions[0].cfg.topo, "torus:4,4,4");
    EXPECT_EQ(back.sessions[0].period, 123.5);
    ASSERT_EQ(back.sessions[0].tasks.size(), 2u);
    EXPECT_EQ(back.sessions[0].tasks[1].node, 7);
    EXPECT_EQ(back.sessions[0].scheduleText,
              snap.sessions[0].scheduleText);
    ASSERT_EQ(back.cache.size(), 1u);
    EXPECT_EQ(back.cache[0].key, snap.cache[0].key);
    EXPECT_EQ(back.cache[0].scheduleText,
              snap.cache[0].scheduleText);
    EXPECT_EQ(back.cache[0].numSubsets, 9u);
    EXPECT_EQ(back.cache[0].peakUtilization, 0.25);
}

TEST(ServerSnapshot, WideSeedsSurviveTheCodec)
{
    // Same trap as the WAL: the decoder's double-based number
    // parser clips u64 seeds above 2^53.
    server::DaemonSnapshot snap;
    snap.walSeq = 3;
    server::SessionSnapshot s;
    s.cfg.name = "a";
    s.cfg.topo = "cube:3";
    s.cfg.seed = 13546682927695711814ULL;
    s.period = 140.64778820468143;
    snap.sessions.push_back(std::move(s));

    server::DaemonSnapshot out;
    std::string err;
    ASSERT_TRUE(server::decodeSnapshot(
        server::encodeSnapshot(snap), &out, &err))
        << err;
    ASSERT_EQ(out.sessions.size(), 1u);
    EXPECT_EQ(out.sessions[0].cfg.seed, 13546682927695711814ULL);
    EXPECT_EQ(out.sessions[0].period, 140.64778820468143);
}

TEST(ServerSnapshot, DecodeIsTotalOnGarbage)
{
    server::DaemonSnapshot snap;
    std::string err;
    EXPECT_FALSE(server::decodeSnapshot("", &snap, &err));
    EXPECT_FALSE(server::decodeSnapshot("bogus v9\n", &snap, &err));
    std::string body = server::encodeSnapshot(sampleSnapshot());
    EXPECT_FALSE(server::decodeSnapshot(
        body.substr(0, body.size() / 2), &snap, &err));
}

TEST(ServerSnapshot, FilesAreContentAddressedAndVerified)
{
    const std::string dir = scratchDir("snap-files");
    std::string path, err;
    ASSERT_TRUE(server::writeSnapshotFile(dir, sampleSnapshot(),
                                          &path, &err))
        << err;
    auto infos = server::listSnapshots(dir);
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].walSeq, 42u);
    server::DaemonSnapshot back;
    ASSERT_TRUE(server::loadSnapshotFile(infos[0], &back, &err))
        << err;
    EXPECT_EQ(back.sessions.size(), 1u);

    // Flip one byte: the content hash must catch it.
    {
        std::fstream f(path, std::ios::in | std::ios::out);
        f.seekp(10);
        f.put('X');
    }
    EXPECT_FALSE(server::loadSnapshotFile(infos[0], &back, &err));
}

// -- Daemon behavior ----------------------------------------------

TEST(ServerDaemon, MatchesTheDirectServiceByteForByte)
{
    DaemonConfig cfg; // ephemeral, 1 worker
    SchedulingDaemon d(cfg);
    const DaemonResponse opened = d.open(figSession("a"));
    ASSERT_EQ(opened.outcome, DaemonOutcome::Ok);
    ASSERT_TRUE(opened.result.accepted) << opened.result.detail;
    const std::string script = "a admit x0 probe verify 256\n"
                               "a remove x0\n"
                               "a admit x0 probe verify 256\n";
    for (const DaemonOp &op : parseOps(script)) {
        const DaemonResponse r =
            d.submit("a", op.request).get();
        ASSERT_EQ(r.outcome, DaemonOutcome::Ok);
        ASSERT_TRUE(r.result.accepted) << r.result.detail;
    }
    d.drain();
    EXPECT_EQ(publishedBytes(d, "a"), directBytes(script));
}

TEST(ServerDaemon, UnknownAndDuplicateSessionsAreStructured)
{
    DaemonConfig cfg;
    SchedulingDaemon d(cfg);
    online::Request r;
    r.kind = online::RequestKind::RemoveMessage;
    r.name = "x";
    EXPECT_EQ(d.submit("ghost", r).get().outcome,
              DaemonOutcome::UnknownSession);
    ASSERT_TRUE(d.open(figSession("a")).result.accepted);
    EXPECT_EQ(d.open(figSession("a")).outcome,
              DaemonOutcome::DuplicateSession);
    SessionConfig bad = figSession("b");
    bad.topo = "hypertorus:9";
    EXPECT_EQ(d.open(bad).outcome, DaemonOutcome::InvalidConfig);
    EXPECT_EQ(d.close("ghost").outcome,
              DaemonOutcome::UnknownSession);
}

TEST(ServerDaemon, FullQueueRejectsOverloadedWithoutBlocking)
{
    DaemonConfig cfg;
    cfg.queueCap = 3;
    SchedulingDaemon d(cfg);
    ASSERT_TRUE(d.open(figSession("a")).result.accepted);
    d.pauseForTest();
    online::Request admit;
    admit.kind = online::RequestKind::AdmitMessage;
    admit.admits.push_back({"x0", "probe", "verify", 256.0});
    online::Request remove;
    remove.kind = online::RequestKind::RemoveMessage;
    remove.name = "x0";
    std::vector<std::future<DaemonResponse>> futs;
    futs.push_back(d.submit("a", admit));
    futs.push_back(d.submit("a", remove));
    futs.push_back(d.submit("a", admit));
    // Queue is at cap: these must resolve immediately, not block.
    for (int i = 0; i < 3; ++i) {
        auto f = d.submit("a", remove);
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_EQ(f.get().outcome, DaemonOutcome::Overloaded);
    }
    EXPECT_EQ(d.queueDepth(), 3u);
    d.resumeForTest();
    for (auto &f : futs) {
        const DaemonResponse r = f.get();
        EXPECT_EQ(r.outcome, DaemonOutcome::Ok);
        EXPECT_TRUE(r.result.accepted) << r.result.detail;
    }
}

TEST(ServerDaemon, StaleRequestsExpireAtPickup)
{
    DaemonConfig cfg;
    cfg.deadlineMs = 5.0;
    SchedulingDaemon d(cfg);
    ASSERT_TRUE(d.open(figSession("a")).result.accepted);
    d.pauseForTest();
    online::Request admit;
    admit.kind = online::RequestKind::AdmitMessage;
    admit.admits.push_back({"x0", "probe", "verify", 256.0});
    auto f = d.submit("a", admit);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    d.resumeForTest();
    const DaemonResponse r = f.get();
    EXPECT_EQ(r.outcome, DaemonOutcome::DeadlineExpired);
    // The scheduler never saw it: version is still the initial one.
    EXPECT_EQ(d.published("a")->version, 1u);
}

/**
 * Per-session isolation (the context refactor's acceptance case):
 * two *concurrent* sessions with different solver kinds and thread
 * budgets must land their solver.warmstart.* and online.* counters
 * in their own child registries with zero cross-session bleed,
 * while the daemon root registry holds the exact aggregate.
 * Runs in the plain and TSan lanes (suite is labeled server+tsan).
 */
TEST(ServerDaemon, ConcurrentSessionsIsolatePerSessionMetrics)
{
    metrics::Registry::setEnabled(true);
    // A dedicated root context keeps this test's aggregate clean of
    // whatever earlier tests put in the process-wide registry.
    engine::ChildOptions rootOpts;
    rootOpts.name = "iso-root";
    const auto root =
        engine::EngineContext::processDefault().createChild(
            rootOpts);
    DaemonConfig cfg;
    cfg.ctx = root.get();
    cfg.workers = 2;
    cfg.cacheCapacity = 0; // every request is a real re-solve
    SchedulingDaemon d(cfg);

    SessionConfig warm = figSession("warm");
    warm.solver = "sparse";
    warm.cache = false;
    SessionConfig cold = figSession("cold");
    cold.solver = "dense";
    cold.threads = 2;
    cold.cache = false;
    ASSERT_TRUE(d.open(warm).result.accepted);
    ASSERT_TRUE(d.open(cold).result.accepted);

    // Distinct request counts per session: equal counters in both
    // registries would mask a cross-wiring bug.
    const int warmN = 6, coldN = 4;
    const auto churn = [&](const std::string &session, int n) {
        for (int i = 0; i < n; ++i) {
            online::Request admit;
            admit.kind = online::RequestKind::AdmitMessage;
            admit.admits.push_back(
                {"x" + std::to_string(i), "probe", "verify",
                 256.0});
            EXPECT_TRUE(
                d.submit(session, admit).get().result.accepted);
        }
    };
    std::thread tw([&] { churn("warm", warmN); });
    std::thread tc([&] { churn("cold", coldN); });
    tw.join();
    tc.join();
    d.drain();

    const auto mets = d.sessionMetrics();
    ASSERT_EQ(mets.size(), 2u);
    EXPECT_EQ(mets[0].first, "warm");
    EXPECT_EQ(mets[1].first, "cold");
    const metrics::Registry &warmReg = *mets[0].second;
    const metrics::Registry &coldReg = *mets[1].second;

    // online.* landed in the right child, exactly once per request
    // (+1 each: open()'s initial compile is a counted request too).
    EXPECT_EQ(count(warmReg, "online.requests"),
              static_cast<std::uint64_t>(warmN + 1));
    EXPECT_EQ(count(coldReg, "online.requests"),
              static_cast<std::uint64_t>(coldN + 1));
    // The aggregate is the exact sum — write-through, not copies.
    EXPECT_EQ(count(root->metricsRegistry(), "online.requests"),
              static_cast<std::uint64_t>(warmN + coldN + 2));

    // solver.warmstart.* is a sparse-stack phenomenon: the warm
    // session exercised it, the dense session must show no hits.
    EXPECT_GT(count(warmReg, "solver.warmstart.hits") +
                  count(warmReg, "solver.warmstart.misses"),
              0u);
    EXPECT_EQ(count(coldReg, "solver.warmstart.hits"), 0u);
    EXPECT_EQ(count(root->metricsRegistry(),
                    "solver.warmstart.hits"),
              count(warmReg, "solver.warmstart.hits") +
                  count(coldReg, "solver.warmstart.hits"));

    metrics::Registry::setEnabled(false);
}

/**
 * The solver.* counters are the only solver totals, so they count
 * with metrics disabled: the daemon summary prints them on every
 * run. The root holds the exact sum of its sessions (the daemon
 * issues no LP solves of its own).
 */
TEST(ServerDaemon, SolverTotalsCountWithMetricsOff)
{
    metrics::Registry::setEnabled(false);
    engine::ChildOptions rootOpts;
    rootOpts.name = "solver-root";
    const auto root =
        engine::EngineContext::processDefault().createChild(
            rootOpts);
    DaemonConfig cfg;
    cfg.ctx = root.get();
    cfg.cacheCapacity = 0; // every request is a real re-solve
    SchedulingDaemon d(cfg);
    for (const char *name : {"a", "b"}) {
        SessionConfig sc = figSession(name);
        sc.cache = false;
        ASSERT_TRUE(d.open(sc).result.accepted);
    }
    // Admit/remove churn re-solves the same subsets, so the second
    // admission warm-starts from the first one's stored bases.
    for (const DaemonOp &op : parseOps("a admit x0 probe verify 256\n"
                                       "a remove x0\n"
                                       "a admit x0 probe verify 256\n"
                                       "b admit x0 probe verify 256\n"
                                       "b remove x0\n"
                                       "b admit x0 probe verify 256\n"
                                       "b remove x0\n"))
        ASSERT_TRUE(
            d.submit(op.session, op.request).get().result.accepted);
    d.drain();

    const auto mets = d.sessionMetrics();
    ASSERT_EQ(mets.size(), 2u);
    for (const char *name :
         {"solver.solves", "solver.pivots",
          "solver.warmstart.attempts", "solver.warmstart.hits",
          "solver.warmstart.misses"}) {
        const std::uint64_t a = count(*mets[0].second, name);
        const std::uint64_t b = count(*mets[1].second, name);
        EXPECT_GT(a, 0u) << name;
        EXPECT_GT(b, 0u) << name;
        EXPECT_EQ(count(root->metricsRegistry(), name), a + b)
            << name;
    }
}

TEST(ServerDaemon, SharedCacheServesCrossSessionHits)
{
    DaemonConfig cfg;
    cfg.workers = 2;
    SchedulingDaemon d(cfg);
    ASSERT_TRUE(d.open(figSession("a")).result.accepted);
    const std::uint64_t missesAfterA = d.cache().misses();
    // Identical config: b's initial compile is a shared-cache hit.
    ASSERT_TRUE(d.open(figSession("b")).result.accepted);
    EXPECT_GT(d.cache().hits(), 0u);
    EXPECT_EQ(d.cache().misses(), missesAfterA);
    EXPECT_EQ(publishedBytes(d, "a"), publishedBytes(d, "b"));
    EXPECT_GT(d.cache().bytes(), 0u);
}

TEST(ServerDaemon, CacheEvictionsKeepByteAccounting)
{
    DaemonConfig cfg;
    cfg.cacheCapacity = 1;
    SchedulingDaemon d(cfg);
    ASSERT_TRUE(d.open(figSession("a")).result.accepted);
    online::Request admit;
    admit.kind = online::RequestKind::AdmitMessage;
    admit.admits.push_back({"x0", "probe", "verify", 256.0});
    ASSERT_TRUE(d.submit("a", admit).get().result.accepted);
    EXPECT_GT(d.cache().evictions(), 0u);
    EXPECT_EQ(d.cache().size(), 1u);
    EXPECT_GT(d.cache().bytes(), 0u);
}

// -- Durability ---------------------------------------------------

TEST(ServerDaemon, RecoversByteIdenticalFromWalReplay)
{
    const std::string dir = scratchDir("recover-wal");
    const std::string script = "a admit x0 probe verify 256\n"
                               "a admit x1 match probe 128\n"
                               "a remove x0\n";
    {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);
        for (const DaemonOp &op : parseOps(script))
            ASSERT_TRUE(
                d.submit("a", op.request).get().result.accepted);
        d.drain();
        d.crashForTest(); // no final snapshot, no graceful close
    }
    DaemonConfig cfg;
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_TRUE(d2.recovery().snapshotPath.empty());
    EXPECT_EQ(d2.recovery().walRecords, 4u);
    EXPECT_EQ(d2.recovery().replayed, 4u);
    EXPECT_EQ(d2.recovery().replayRejected, 0u);
    ASSERT_EQ(d2.sessionNames(),
              std::vector<std::string>{"a"});
    EXPECT_EQ(publishedBytes(d2, "a"), directBytes(script));
}

TEST(ServerDaemon, RecoversFromSnapshotPlusWalSuffix)
{
    const std::string dir = scratchDir("recover-snap");
    {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        cfg.snapshotEvery = 2;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);
        for (const DaemonOp &op :
             parseOps("a admit x0 probe verify 256\n"
                      "a admit x1 match probe 128\n"
                      "a remove x0\n"))
            ASSERT_TRUE(
                d.submit("a", op.request).get().result.accepted);
        d.drain();
        EXPECT_GT(d.snapshotsWritten(), 0u);
        d.crashForTest();
    }
    DaemonConfig cfg;
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_FALSE(d2.recovery().snapshotPath.empty());
    EXPECT_LT(d2.recovery().replayed, 4u);
    EXPECT_EQ(d2.recovery().replayRejected, 0u);
    EXPECT_EQ(publishedBytes(d2, "a"),
              directBytes("a admit x0 probe verify 256\n"
                          "a admit x1 match probe 128\n"
                          "a remove x0\n"));
}

TEST(ServerDaemon, CorruptSnapshotFallsBackToOlderState)
{
    const std::string dir = scratchDir("recover-corrupt");
    {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        cfg.snapshotEvery = 1;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);
        for (const DaemonOp &op :
             parseOps("a admit x0 probe verify 256\n"
                      "a remove x0\n"))
            ASSERT_TRUE(
                d.submit("a", op.request).get().result.accepted);
        d.drain();
        d.crashForTest();
    }
    // Corrupt the newest snapshot; recovery must reject it on the
    // content hash and fall back (older snapshot or full replay),
    // converging on the same state.
    auto infos = server::listSnapshots(dir);
    ASSERT_GE(infos.size(), 2u);
    {
        std::fstream f(infos[0].path,
                       std::ios::in | std::ios::out);
        f.seekp(40);
        f.put('!');
    }
    DaemonConfig cfg;
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_GE(d2.recovery().rejectedSnapshots.size(), 1u);
    EXPECT_EQ(publishedBytes(d2, "a"),
              directBytes("a admit x0 probe verify 256\n"
                          "a remove x0\n"));
}

TEST(ServerDaemon, UnsyncedTailIsLostOnCrash)
{
    const std::string dir = scratchDir("recover-unsynced");
    {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        cfg.walSyncEvery = 100; // group commit, never reached
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);
        online::Request admit;
        admit.kind = online::RequestKind::AdmitMessage;
        admit.admits.push_back({"x0", "probe", "verify", 256.0});
        ASSERT_TRUE(d.submit("a", admit).get().result.accepted);
        d.crashForTest(); // pending WAL bytes dropped
    }
    DaemonConfig cfg;
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_EQ(d2.recovery().walRecords, 0u);
    EXPECT_TRUE(d2.sessionNames().empty());
}

TEST(ServerDaemon, TornWalTailRecoversTheIntactPrefix)
{
    const std::string dir = scratchDir("recover-torn");
    {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);
        online::Request admit;
        admit.kind = online::RequestKind::AdmitMessage;
        admit.admits.push_back({"x0", "probe", "verify", 256.0});
        ASSERT_TRUE(d.submit("a", admit).get().result.accepted);
        d.drain();
        d.crashForTest();
    }
    {
        std::ofstream out(dir + "/wal.jsonl", std::ios::app);
        out << "{\"seq\":3,\"op\":\"re"; // torn mid-record
    }
    std::string intact;
    for (const server::WalRecord &rec :
         server::readWal(dir + "/wal.jsonl").records)
        intact += server::encodeWalRecord(rec) + '\n';
    DaemonConfig cfg;
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_TRUE(d2.recovery().walTornTail);
    EXPECT_EQ(d2.recovery().walRecords, 2u);
    // Recovery replaced the log by exactly its intact prefix, through
    // a temporary file it renamed away.
    {
        std::ifstream in(dir + "/wal.jsonl", std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        EXPECT_EQ(bytes.str(), intact);
    }
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    EXPECT_EQ(publishedBytes(d2, "a"),
              directBytes("a admit x0 probe verify 256\n"));
    // The rewritten log must append cleanly from here.
    online::Request admit;
    admit.kind = online::RequestKind::AdmitMessage;
    admit.admits.push_back({"x1", "match", "probe", 128.0});
    ASSERT_TRUE(d2.submit("a", admit).get().result.accepted);
    d2.shutdown();
    const server::WalReadResult wr =
        server::readWal(dir + "/wal.jsonl");
    EXPECT_FALSE(wr.tornTail);
    EXPECT_EQ(wr.records.size(), 3u);
}

TEST(ServerDaemon, SnapshotSupersedingALostWalTailLeavesNoGap)
{
    // A snapshot may certify records a damaged state dir's WAL no
    // longer has. Recovery must not reopen the log ahead of its
    // last on-disk record (the gap would make the *next* recovery
    // discard acknowledged records as a torn tail); it retires the
    // stale log and continues from the snapshot's sequence.
    const std::string dir = scratchDir("recover-lost-tail");
    {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        cfg.snapshotEvery = 1;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);
        for (const DaemonOp &op :
             parseOps("a admit x0 probe verify 256\n"
                      "a admit x1 match probe 128\n"
                      "a remove x0\n"))
            ASSERT_TRUE(
                d.submit("a", op.request).get().result.accepted);
        d.shutdown(); // final snapshot certifies seq 4
    }
    // Lose the WAL tail the snapshot certifies (keep seq 1-2).
    {
        const server::WalReadResult wr =
            server::readWal(dir + "/wal.jsonl");
        ASSERT_EQ(wr.records.size(), 4u);
        std::ofstream out(dir + "/wal.jsonl",
                          std::ios::binary | std::ios::trunc);
        for (std::size_t i = 0; i < 2; ++i)
            out << server::encodeWalRecord(wr.records[i]) << "\n";
    }
    std::string afterOneMore;
    {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        SchedulingDaemon d2(cfg);
        EXPECT_FALSE(d2.recovery().snapshotPath.empty());
        EXPECT_EQ(d2.recovery().replayed, 0u);
        EXPECT_EQ(publishedBytes(d2, "a"),
                  directBytes("a admit x0 probe verify 256\n"
                              "a admit x1 match probe 128\n"
                              "a remove x0\n"));
        EXPECT_TRUE(
            std::filesystem::exists(dir + "/wal.jsonl.stale"));
        online::Request admit;
        admit.kind = online::RequestKind::AdmitMessage;
        admit.admits.push_back({"x2", "probe", "verify", 64.0});
        ASSERT_TRUE(d2.submit("a", admit).get().result.accepted);
        d2.drain();
        afterOneMore = publishedBytes(d2, "a");
        d2.crashForTest();
    }
    // The fresh log starts at seq 5 and replays cleanly on top of
    // the snapshot — nothing acknowledged was discarded.
    const server::WalReadResult wr =
        server::readWal(dir + "/wal.jsonl");
    EXPECT_FALSE(wr.tornTail);
    ASSERT_EQ(wr.records.size(), 1u);
    EXPECT_EQ(wr.records[0].seq, 5u);
    DaemonConfig cfg;
    cfg.stateDir = dir;
    SchedulingDaemon d3(cfg);
    EXPECT_EQ(d3.recovery().replayed, 1u);
    EXPECT_EQ(d3.recovery().replayRejected, 0u);
    EXPECT_EQ(publishedBytes(d3, "a"), afterOneMore);
}

// -- Concurrency --------------------------------------------------

TEST(ServerDaemon, SnapshotsTolerateInFlightOpens)
{
    // open() parks a placeholder session (no service yet) while the
    // initial compile runs outside the daemon lock; snapshots taken
    // meanwhile (another session quiescing with snapshotEvery=1)
    // must skip it, not dereference it. Also pins WAL commit order:
    // a session's Open record precedes all its Requests, which
    // precede its Close.
    const std::string dir = scratchDir("snap-inflight-open");
    const std::string script = "a admit x0 probe verify 256\n"
                               "a remove x0\n"
                               "a admit x0 probe verify 256\n"
                               "a remove x0\n"
                               "a admit x0 probe verify 256\n"
                               "a remove x0\n";
    {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        cfg.snapshotEvery = 1;
        cfg.workers = 2;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);
        std::thread opener([&] {
            for (int i = 0; i < 6; ++i) {
                const std::string name = "b" + std::to_string(i);
                EXPECT_TRUE(
                    d.open(figSession(name)).result.accepted);
                EXPECT_EQ(d.close(name).outcome,
                          DaemonOutcome::Ok);
            }
        });
        for (const DaemonOp &op : parseOps(script))
            ASSERT_TRUE(
                d.submit("a", op.request).get().result.accepted);
        opener.join();
        d.shutdown();
    }
    // Per-session WAL order: Open < every Request < Close.
    const server::WalReadResult wr =
        server::readWal(dir + "/wal.jsonl");
    ASSERT_TRUE(wr.ok);
    EXPECT_FALSE(wr.tornTail);
    std::map<std::string, std::uint64_t> opened, closed;
    for (const server::WalRecord &rec : wr.records) {
        const std::string &name = rec.op.session;
        switch (rec.op.kind) {
          case DaemonOp::Kind::Open:
              EXPECT_FALSE(opened.count(name)) << name;
              opened[name] = rec.seq;
              break;
          case DaemonOp::Kind::Close:
              ASSERT_TRUE(opened.count(name)) << name;
              EXPECT_GT(rec.seq, opened[name]);
              closed[name] = rec.seq;
              break;
          case DaemonOp::Kind::Request:
              ASSERT_TRUE(opened.count(name)) << name;
              EXPECT_GT(rec.seq, opened[name]);
              EXPECT_FALSE(closed.count(name)) << name;
              break;
        }
    }
    // And the interleaved run recovers byte-identically.
    DaemonConfig cfg;
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_EQ(d2.recovery().replayRejected, 0u);
    ASSERT_EQ(d2.sessionNames(), std::vector<std::string>{"a"});
    EXPECT_EQ(publishedBytes(d2, "a"), directBytes(script));
}

TEST(ServerDaemon, ChurnStressMatchesSingleWorkerRun)
{
    // 6 sessions x alternating admit/remove churn on 4 workers,
    // submitted from 3 threads, must publish exactly the bytes a
    // serialized 1-worker daemon publishes.
    constexpr int kSessions = 6;
    constexpr int kRounds = 8;
    const auto runAll = [&](std::size_t workers) {
        DaemonConfig cfg;
        cfg.workers = workers;
        cfg.queueCap = 1024;
        SchedulingDaemon d(cfg);
        for (int s = 0; s < kSessions; ++s)
            EXPECT_TRUE(d.open(figSession("s" +
                                          std::to_string(s)))
                            .result.accepted);
        std::vector<std::thread> drivers;
        for (int t = 0; t < 3; ++t) {
            drivers.emplace_back([&, t] {
                for (int s = t; s < kSessions; s += 3) {
                    const std::string name =
                        "s" + std::to_string(s);
                    std::vector<std::future<DaemonResponse>> fs;
                    for (int i = 0; i < kRounds; ++i) {
                        online::Request r;
                        if (i % 2 == 0) {
                            r.kind =
                                online::RequestKind::AdmitMessage;
                            r.admits.push_back({"x0", "probe",
                                                "verify", 256.0});
                        } else {
                            r.kind =
                                online::RequestKind::RemoveMessage;
                            r.name = "x0";
                        }
                        fs.push_back(d.submit(name, std::move(r)));
                    }
                    for (auto &f : fs)
                        EXPECT_TRUE(
                            f.get().result.accepted);
                }
            });
        }
        for (auto &t : drivers)
            t.join();
        d.drain();
        std::vector<std::string> bytes;
        for (int s = 0; s < kSessions; ++s)
            bytes.push_back(
                publishedBytes(d, "s" + std::to_string(s)));
        return bytes;
    };
    EXPECT_EQ(runAll(4), runAll(1));
}

} // namespace
} // namespace srsim
