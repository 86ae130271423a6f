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

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
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
#include "util/logging.hh"

#include "durable_fake.hh"

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

/** A round-robin stride that is 0 or does not fit an int is a script error. */
TEST(ServerProtocol, RejectsOutOfRangeRoundRobinStrides)
{
    for (const char *stride : {"0", "99999999999", "2147483648"}) {
        std::istringstream is(
            std::string("# open with a bad stride\n"
                        "open s topo=torus:4,4,4 period=300 bw=128 "
                        "alloc=rr:") +
            stride + "\n");
        const server::DaemonScriptParseResult r =
            server::parseDaemonScript(is);
        EXPECT_FALSE(r.ok) << stride;
        EXPECT_EQ(r.errorLine, 2) << stride;
        EXPECT_NE(r.error.find("stride"), std::string::npos)
            << r.error;
    }
    parseOps("open s topo=torus:4,4,4 period=300 bw=128 "
             "alloc=rr:2147483647\n");
}

/** Non-finite numbers on an open line are script errors. */
TEST(ServerProtocol, OpenRejectsNonFiniteNumbers)
{
    for (const char *tail : {"period=nan", "period=inf", "period=120 bw=nan",
                             "period=120 ap=inf", "period=-inf",
                             "period=120 bw=inf", "period=120 ap=nan"}) {
        std::istringstream is(
            std::string("open a topo=cube:3 tfg=dvb ") + tail + "\n");
        const server::DaemonScriptParseResult r =
            server::parseDaemonScript(is);
        EXPECT_FALSE(r.ok) << tail;
        EXPECT_EQ(r.errorLine, 1) << tail;
    }
}

/** seed= and threads= are exact integers, never cast from a double. */
TEST(ServerProtocol, SeedsAndThreadsAreExactIntegers)
{
    const auto seedOf = [](const std::string &seed) {
        std::istringstream is("open a topo=cube:3 period=100 seed=" +
                              seed + "\n");
        const server::DaemonScriptParseResult r =
            server::parseDaemonScript(is);
        return r.ok ? std::optional<std::uint64_t>(r.ops[0].open.seed)
                    : std::nullopt;
    };
    EXPECT_EQ(seedOf("9007199254740993"), 9007199254740993ULL);
    EXPECT_EQ(seedOf("18446744073709551615"), 18446744073709551615ULL);
    EXPECT_EQ(seedOf("1e300"), std::nullopt);
    EXPECT_EQ(seedOf("18446744073709551616"), std::nullopt);
    EXPECT_EQ(seedOf("-1"), std::nullopt);
    EXPECT_EQ(seedOf("7.5"), std::nullopt);
    // Parser only: no session is opened with these thread counts.
    for (const char *threads : {"1e30", "0", "2.0", "-3",
                                "99999999999999999999"}) {
        std::istringstream is(
            std::string("open a topo=cube:3 period=100 threads=") +
            threads + "\n");
        EXPECT_FALSE(server::parseDaemonScript(is).ok) << threads;
    }
    std::istringstream is("open a topo=cube:3 period=100 threads=3\n");
    const server::DaemonScriptParseResult r = server::parseDaemonScript(is);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.ops[0].open.threads, 3u);
}

/** A token of `alphabet` characters, 1 to 8 of them. */
std::string
randomToken(std::mt19937_64 &rng, const std::string &alphabet)
{
    std::string out(1 + rng() % 8, ' ');
    for (char &c : out)
        c = alphabet[rng() % alphabet.size()];
    return out;
}

/** A finite double from a random bit pattern. */
double
randomFinite(std::mt19937_64 &rng)
{
    for (;;) {
        const std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        if (std::isfinite(v))
            return v;
    }
}

/** A finite double > 0 from a random bit pattern. */
double
randomPositive(std::mt19937_64 &rng)
{
    for (;;)
        if (const double v = std::fabs(randomFinite(rng)); v > 0.0)
            return v;
}

/** A random op of `kind` the grammar can spell. */
DaemonOp
randomOp(std::mt19937_64 &rng, int kind)
{
    const std::string word = "abcxyz019_:.,-";
    DaemonOp op;
    op.session = randomToken(rng, word);
    online::Request &r = op.request;
    switch (kind) {
      case 0: {
          op.kind = DaemonOp::Kind::Open;
          SessionConfig &sc = op.open;
          sc.name = op.session;
          sc.topo = randomToken(rng, word);
          sc.tfg = randomToken(rng, word + "/=");
          sc.period = randomPositive(rng);
          sc.bandwidth = randomPositive(rng);
          sc.apSpeed = rng() % 4 == 0 ? 0.0 : randomPositive(rng);
          const std::uint64_t a = rng() % 3;
          sc.alloc = a == 0   ? "greedy"
                     : a == 1 ? "random"
                              : "rr:" + std::to_string(
                                            1 + rng() % 2147483647);
          sc.seed = rng();
          sc.cache = rng() % 2 == 0;
          const std::uint64_t k = rng() % 3;
          sc.solver = k == 0 ? "" : k == 1 ? "dense" : "sparse";
          sc.threads = rng() % 2 == 0 ? 0 : 1 + rng() % (1ULL << 40);
          return op;
      }
      case 1:
          op.kind = DaemonOp::Kind::Close;
          return op;
      case 2:
          op.kind = DaemonOp::Kind::Request;
          r.kind = online::RequestKind::AdmitMessage;
          for (std::uint64_t i = 1 + rng() % 5; i > 0; --i)
              r.admits.push_back({randomToken(rng, word),
                                  randomToken(rng, word),
                                  randomToken(rng, word),
                                  randomFinite(rng)});
          return op;
      case 3:
          op.kind = DaemonOp::Kind::Request;
          r.kind = online::RequestKind::RemoveMessage;
          // '#' is payload mid-token only (it starts a comment
          // after whitespace).
          r.name = "m" + randomToken(rng, word + "#");
          return op;
      case 4:
          op.kind = DaemonOp::Kind::Request;
          r.kind = online::RequestKind::UpdatePeriod;
          r.period = randomFinite(rng);
          return op;
      default:
          op.kind = DaemonOp::Kind::Request;
          r.kind = online::RequestKind::InjectFault;
          r.faultSpec = "f" + randomToken(rng, word + "#=;") +
                        (rng() % 2 ? " " + randomToken(rng, word) : "");
          return op;
    }
}

/** parse(format(op)) == op, field for field, over every op kind. */
TEST(ServerProtocol, FormatInvertsTheParser)
{
    std::mt19937_64 rng(20261020);
    std::vector<int> perKind(6, 0);
    std::vector<int> perBatch(6, 0);
    for (int i = 0; i < 3000; ++i) {
        const int kind = static_cast<int>(rng() % 6);
        const DaemonOp op = randomOp(rng, kind);
        const std::string text = server::formatDaemonOp(op);
        SCOPED_TRACE(text);
        DaemonOp back;
        std::string err;
        ASSERT_TRUE(server::parseDaemonOp(text, &back, &err)) << err;
        ASSERT_EQ(back.kind, op.kind);
        EXPECT_EQ(back.session, op.session);
        if (op.kind == DaemonOp::Kind::Open) {
            const SessionConfig &x = op.open, &y = back.open;
            EXPECT_EQ(y.name, x.name);
            EXPECT_EQ(y.topo, x.topo);
            EXPECT_EQ(y.tfg, x.tfg);
            EXPECT_EQ(y.period, x.period);
            EXPECT_EQ(y.bandwidth, x.bandwidth);
            EXPECT_EQ(y.apSpeed, x.apSpeed);
            EXPECT_EQ(y.alloc, x.alloc);
            EXPECT_EQ(y.seed, x.seed);
            EXPECT_EQ(y.cache, x.cache);
            EXPECT_EQ(y.solver, x.solver);
            EXPECT_EQ(y.threads, x.threads);
        } else if (op.kind == DaemonOp::Kind::Request) {
            const online::Request &x = op.request, &y = back.request;
            ASSERT_EQ(y.kind, x.kind);
            ASSERT_EQ(y.admits.size(), x.admits.size());
            for (std::size_t a = 0; a < x.admits.size(); ++a) {
                EXPECT_EQ(y.admits[a].name, x.admits[a].name);
                EXPECT_EQ(y.admits[a].src, x.admits[a].src);
                EXPECT_EQ(y.admits[a].dst, x.admits[a].dst);
                EXPECT_EQ(y.admits[a].bytes, x.admits[a].bytes);
            }
            EXPECT_EQ(y.name, x.name);
            EXPECT_EQ(y.period, x.period);
            EXPECT_EQ(y.faultSpec, x.faultSpec);
            ++perBatch[x.admits.size()];
        }
        std::string logged;
        EXPECT_TRUE(server::loggableText(op, &logged, &err)) << err;
        EXPECT_EQ(logged, text);
        ++perKind[static_cast<std::size_t>(kind)];
    }
    for (const int n : perKind)
        EXPECT_GT(n, 300);
    for (std::size_t b = 1; b <= 5; ++b)
        EXPECT_GT(perBatch[b], 50) << b;
}

/** What the grammar cannot spell is not loggable. */
TEST(ServerProtocol, UnspellableOpsAreNotLoggable)
{
    std::vector<DaemonOp> bad;
    DaemonOp open = parseOps("open a topo=cube:3 period=100\n")[0];
    for (const double v : {std::nan(""), HUGE_VAL, 0.0, -1.0}) {
        bad.push_back(open);
        bad.back().open.period = v;
        bad.push_back(open);
        bad.back().open.bandwidth = v;
    }
    bad.push_back(open);
    bad.back().open.topo = "torus:4 4";
    bad.push_back(open);
    bad.back().open.name = "b"; // disagrees with op.session
    DaemonOp admit = parseOps("a admit x0 probe verify 256\n")[0];
    bad.push_back(admit);
    bad.back().request.admits[0].bytes = std::nan("");
    bad.push_back(admit);
    bad.back().request.admits[0].name = "two words";
    bad.push_back(admit);
    bad.back().request.admits.clear();
    DaemonOp fault = parseOps("a fault link:0-1\n")[0];
    bad.push_back(fault);
    bad.back().request.faultSpec = "link:0-1 ";
    bad.push_back(fault);
    bad.back().request.faultSpec = "link:0-1 #3";
    bad.push_back(fault);
    bad.back().session = "open";
    for (const DaemonOp &op : bad) {
        std::string text, err;
        EXPECT_FALSE(server::loggableText(op, &text, &err))
            << server::formatDaemonOp(op);
        EXPECT_FALSE(err.empty());
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
        ASSERT_TRUE(wal.open(path, 1, nullptr, &err)) << err;
        for (const DaemonOp &op : parseOps(
                 "open a topo=torus:4,4,4 period=120 tfg=dvb "
                 "bw=128 alloc=rr:13\n"
                 "a admit x0 probe verify 256\n"
                 "a remove x0\n"
                 "a period 125\n"
                 "a fault link:0-1\n"
                 "close a\n"))
            wal.append(server::formatDaemonOp(op));
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
        ASSERT_TRUE(wal.open(path, 1, nullptr, &err)) << err;
        wal.append(server::formatDaemonOp(op));
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
        ASSERT_TRUE(wal.open(path, 1, nullptr, &err)) << err;
        for (const DaemonOp &op : parseOps(
                 "open a topo=cube:3 period=100 tfg=dvb\n"
                 "a admit x0 probe verify 256\n"))
            wal.append(server::formatDaemonOp(op));
        wal.sync();
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"seq\":3,\"line\":\"a adm"; // torn mid-record
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
        out << R"({"seq":1,"line":"close a"})" << "\n";
        out << R"({"seq":3,"line":"close a"})" << "\n";
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
        out << R"({"seq":5,"line":"close a"})" << "\n";
        out << R"({"seq":6,"line":"close b"})" << "\n";
        out << R"({"seq":8,"line":"close c"})" << "\n";
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
        ASSERT_TRUE(wal.open(path, 1, nullptr, &err)) << err;
        wal.append(server::formatDaemonOp(op));
        EXPECT_TRUE(wal.sync());
    }
    const server::WalReadResult r = server::readWal(path);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].op.session, op.session);
    EXPECT_EQ(r.records[0].op.request.faultSpec,
              op.request.faultSpec);
}

TEST(ServerWal, PerFieldRecordsAreRefusedNotTruncated)
{
    // A log of the older per-field records is a format error, never
    // a torn tail: the torn-tail path rewrites the log to its intact
    // prefix and would erase it.
    const std::string dir = scratchDir("wal-per-field");
    const std::string path = dir + "/wal.jsonl";
    const std::string old =
        R"({"seq":1,"op":"open","session":"a","topo":"cube:3",)"
        R"("tfg":"dvb","period":100,"bw":64,"ap":0,"alloc":"greedy",)"
        R"("seed":"12345","cache":true})"
        "\n";
    {
        std::ofstream out(path, std::ios::binary);
        out << old;
    }
    const server::WalReadResult r = server::readWal(path);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.tornTail);
    EXPECT_NE(r.error.find("per-field"), std::string::npos) << r.error;

    std::string fatal;
    try {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        SchedulingDaemon d(cfg);
    } catch (const FatalError &e) {
        fatal = e.what();
    }
    EXPECT_NE(fatal.find("per-field"), std::string::npos) << fatal;
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str(), old);
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
    const TaskId probe = s.g.addTask("probe", 1000.0);
    const TaskId verify = s.g.addTask("verify", 500.0);
    s.g.addMessage("m0", probe, verify, 256.0);
    s.placement = {3, 7};
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
    ASSERT_EQ(back.sessions[0].g.tasks().size(), 2u);
    EXPECT_EQ(back.sessions[0].g.tasks()[1].name, "verify");
    EXPECT_EQ(back.sessions[0].g.tasks()[1].operations, 500.0);
    ASSERT_EQ(back.sessions[0].g.messages().size(), 1u);
    EXPECT_EQ(back.sessions[0].g.messages()[0].bytes, 256.0);
    EXPECT_EQ(back.sessions[0].placement, (std::vector<NodeId>{3, 7}));
    EXPECT_EQ(back.sessions[0].scheduleText,
              snap.sessions[0].scheduleText);
    ASSERT_EQ(back.cache.size(), 1u);
    EXPECT_EQ(back.cache[0].key, snap.cache[0].key);
    EXPECT_EQ(back.cache[0].scheduleText,
              snap.cache[0].scheduleText);
    EXPECT_EQ(back.cache[0].numSubsets, 9u);
    EXPECT_EQ(back.cache[0].peakUtilization, 0.25);
}

TEST(ServerSnapshot, SessionOverridesRoundTripAndOlderVersionsAreRefused)
{
    server::DaemonSnapshot snap = sampleSnapshot();
    snap.sessions[0].cfg.solver = "dense";
    snap.sessions[0].cfg.threads = 2;
    const std::string body = server::encodeSnapshot(snap);
    server::DaemonSnapshot back;
    std::string err;
    ASSERT_TRUE(server::decodeSnapshot(body, &back, &err)) << err;
    EXPECT_EQ(back.sessions[0].cfg.solver, "dense");
    EXPECT_EQ(back.sessions[0].cfg.threads, 2u);

    // v1 and v2 images spelled sessions as per-field rows; they are
    // refused like any undecodable image (recovery then falls back
    // to an older snapshot or to the WAL).
    for (const char *magic : {"srsim-daemon-snapshot v1\n",
                              "srsim-daemon-snapshot v2\n"}) {
        const std::string old =
            magic + body.substr(body.find('\n') + 1);
        EXPECT_FALSE(server::decodeSnapshot(old, &back, &err)) << magic;
        EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
    }
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
    s.cfg.period = 140.64778820468143;
    s.cfg.seed = 13546682927695711814ULL;
    s.period = 140.64778820468143;
    s.g.addTask("t0", 1.0);
    s.placement = {0};
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
                                          nullptr, &path, &err))
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

/** A bad stride fails its own open and takes no other session down. */
TEST(ServerDaemon, BadRoundRobinStrideIsInvalidConfig)
{
    DaemonConfig cfg;
    SchedulingDaemon d(cfg);
    ASSERT_TRUE(d.open(figSession("a")).result.accepted);
    int n = 0;
    for (const char *alloc : {"rr:0", "rr:99999999999"}) {
        SessionConfig bad = figSession("b" + std::to_string(n++));
        bad.alloc = alloc;
        const DaemonResponse r = d.open(bad);
        EXPECT_EQ(r.outcome, DaemonOutcome::InvalidConfig) << alloc;
        EXPECT_NE(r.detail.find("stride"), std::string::npos)
            << r.detail;
    }
    for (const DaemonOp &op :
         parseOps("a admit x0 probe verify 256\n")) {
        const DaemonResponse r = d.submit("a", op.request).get();
        ASSERT_EQ(r.outcome, DaemonOutcome::Ok);
        EXPECT_TRUE(r.result.accepted) << r.result.detail;
    }
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

/**
 * The daemon takes only ops whose text reads back: an open or a
 * request the WAL could not replay exactly is refused before it
 * reaches the scheduler, with and without a state directory.
 */
TEST(ServerDaemon, OnlyLoggableOpsAreTaken)
{
    for (const bool durable : {false, true}) {
        SCOPED_TRACE(durable ? "durable" : "ephemeral");
        DaemonConfig cfg;
        if (durable)
            cfg.stateDir = scratchDir("loggable");
        SchedulingDaemon d(cfg);
        SessionConfig nan = figSession("n");
        nan.period = std::nan("");
        const DaemonResponse open = d.open(nan);
        EXPECT_EQ(open.outcome, DaemonOutcome::InvalidConfig);
        EXPECT_NE(open.detail.find("period"), std::string::npos)
            << open.detail;
        ASSERT_TRUE(d.open(figSession("a")).result.accepted);

        online::Request admit;
        admit.kind = online::RequestKind::AdmitMessage;
        admit.admits.push_back(
            {"x0", "probe", "verify", std::nan("")});
        const DaemonResponse r = d.submit("a", admit).get();
        EXPECT_EQ(r.outcome, DaemonOutcome::Ok);
        EXPECT_FALSE(r.result.accepted);
        EXPECT_EQ(r.result.reason,
                  online::RejectReason::InvalidRequest);
        online::Request fault;
        fault.kind = online::RequestKind::InjectFault;
        fault.faultSpec = "link:0-1 ";
        EXPECT_EQ(d.submit("a", fault).get().result.reason,
                  online::RejectReason::InvalidRequest);
        EXPECT_EQ(d.sessionNames(), std::vector<std::string>{"a"});
        d.drain();
        EXPECT_EQ(d.walRecords(), durable ? 1u : 0u);
    }
}

/** Every open the daemon accepted is live after a restart. */
TEST(ServerDaemon, EveryAcceptedOpenIsLiveAfterReopen)
{
    const std::string dir = scratchDir("accepted-opens");
    std::vector<std::string> accepted;
    {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        SchedulingDaemon d(cfg);
        for (const double period : {std::nan(""), HUGE_VAL, 120.0}) {
            SessionConfig sc = figSession(
                "s" + std::to_string(accepted.size() + 10 *
                                     d.sessionNames().size()) +
                std::to_string(static_cast<int>(period == 120.0)));
            sc.period = period;
            const DaemonResponse r = d.open(sc);
            if (r.outcome == DaemonOutcome::Ok && r.result.accepted)
                accepted.push_back(sc.name);
        }
        d.shutdown();
    }
    ASSERT_FALSE(accepted.empty());
    DaemonConfig cfg;
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    EXPECT_EQ(d2.recovery().replayRejected, 0u);
    EXPECT_TRUE(d2.recovery().rejectedSnapshots.empty());
    EXPECT_EQ(d2.sessionNames(), accepted);
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

TEST(ServerDaemon, SnapshotRestoreKeepsTheSessionSolver)
{
    // A solver=dense session never warm-starts. Recovery that goes
    // through a snapshot must bring the override back with it, or
    // the restored session runs on the daemon's warm-starting
    // default.
    const std::string dir = scratchDir("snap-solver");
    SessionConfig sc = figSession("a");
    sc.solver = "dense";
    sc.cache = false; // every request is a real re-solve
    {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.open(sc).result.accepted);
        d.shutdown(); // final snapshot certifies the open
    }
    DaemonConfig cfg;
    cfg.stateDir = dir;
    SchedulingDaemon d2(cfg);
    ASSERT_FALSE(d2.recovery().snapshotPath.empty());
    EXPECT_EQ(d2.recovery().replayed, 0u);
    for (const DaemonOp &op : parseOps("a admit x0 probe verify 256\n"
                                       "a remove x0\n"
                                       "a admit x0 probe verify 256\n"))
        ASSERT_TRUE(
            d2.submit("a", op.request).get().result.accepted);
    d2.drain();
    const auto mets = d2.sessionMetrics();
    ASSERT_EQ(mets.size(), 1u);
    EXPECT_GT(count(*mets[0].second, "solver.solves"), 0u);
    EXPECT_EQ(count(*mets[0].second, "solver.warmstart.attempts"), 0u);
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
        out << "{\"seq\":3,\"line\":\"a re"; // torn mid-record
    }
    std::string intact;
    for (const server::WalRecord &rec :
         server::readWal(dir + "/wal.jsonl").records)
        intact += server::encodeWalRecord(rec.seq, rec.line) + '\n';
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
            out << server::encodeWalRecord(wr.records[i].seq,
                                           wr.records[i].line)
                << "\n";
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

// -- Durable files: injected errors and crashes -------------------

using testing_durable::DirImage;
using testing_durable::FakeSyscalls;
using testing_durable::SyscallEvent;

/** Apply one op synchronously; @return whether it was accepted. */
bool
applyOp(SchedulingDaemon &d, const DaemonOp &op)
{
    switch (op.kind) {
      case DaemonOp::Kind::Open: {
          const DaemonResponse r = d.open(op.open);
          return r.outcome == DaemonOutcome::Ok && r.result.accepted;
      }
      case DaemonOp::Kind::Close:
          return d.close(op.session).outcome == DaemonOutcome::Ok;
      case DaemonOp::Kind::Request: {
          const DaemonResponse r =
              d.submit(op.session, op.request).get();
          return r.outcome == DaemonOutcome::Ok && r.result.accepted;
      }
    }
    return false;
}

/** Live sessions by name, with their published bytes. */
using DaemonState = std::map<std::string, std::string>;

DaemonState
stateOf(const SchedulingDaemon &d)
{
    DaemonState st;
    for (const std::string &name : d.sessionNames())
        st[name] = publishedBytes(d, name);
    return st;
}

/**
 * The straight-line reference: an ephemeral daemon runs `ops` in
 * order. Every op of these scripts is accepted, so op i is WAL
 * record i + 1 and entry s is the state after record s.
 */
std::vector<DaemonState>
referenceHistory(const std::vector<DaemonOp> &ops)
{
    SchedulingDaemon d(DaemonConfig{});
    std::vector<DaemonState> history{DaemonState{}};
    for (const DaemonOp &op : ops) {
        EXPECT_TRUE(applyOp(d, op));
        history.push_back(stateOf(d));
    }
    return history;
}

/** What recovering one state directory gave. */
struct Recovered
{
    /** FatalError text; empty when recovery finished. */
    std::string fatal;
    /** Last WAL record the recovered state reflects. */
    std::uint64_t seq = 0;
    /** walSeq of the snapshot recovery started from (0 = none). */
    std::uint64_t snapshotSeq = 0;
    std::uint64_t replayRejected = 0;
    DaemonState state;
};

Recovered
recoverDir(const std::string &dir)
{
    Recovered r;
    try {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        SchedulingDaemon d(cfg);
        r.seq = d.walSyncedSeq();
        r.snapshotSeq = d.recovery().snapshotSeq;
        r.replayRejected = d.recovery().replayRejected;
        r.state = stateOf(d);
        d.crashForTest(); // leave the directory as recovery left it
    } catch (const FatalError &e) {
        r.fatal = e.what();
    }
    return r;
}

/** Why `r` is not a state of the reference history ("" = it is). */
std::string
checkRecovered(const Recovered &r,
               const std::vector<DaemonState> &history)
{
    if (!r.fatal.empty())
        return "fatal: " + r.fatal;
    if (r.replayRejected != 0)
        return std::to_string(r.replayRejected) +
               " replayed records rejected";
    if (r.seq >= history.size())
        return "recovered seq " + std::to_string(r.seq) +
               " is past the history";
    if (r.state != history[r.seq])
        return "state differs from the reference at seq " +
               std::to_string(r.seq);
    return {};
}

const char *const kMatrixScript =
    "open a topo=torus:4,4,4 period=120 tfg=dvb bw=128 alloc=rr:13\n"
    "a admit x0 probe verify 256\n"
    "a admit x1 match probe 128\n"
    "a remove x0\n"
    "a remove x1\n";

/** Snapshot counts around one step (op or shutdown) of a run. */
struct MatrixStep
{
    /** The injected failure fired during this step. */
    bool injectedHere = false;
    std::uint64_t snapsBefore = 0;
    std::uint64_t snapsAfter = 0;
};

struct MatrixRun
{
    std::string fatal;
    /** One per op, then one for shutdown. */
    std::vector<MatrixStep> steps;
    std::uint64_t snapshots = 0;
    std::uint64_t syncedSeq = 0;
    DirImage dir;
};

/** Run `ops` and shut down, on a fresh `dir`, through `fake`. */
MatrixRun
runMatrix(const std::string &dir, FakeSyscalls &fake,
          const std::vector<DaemonOp> &ops)
{
    std::filesystem::remove_all(dir);
    MatrixRun run;
    try {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        cfg.snapshotEvery = 2;
        cfg.walSyncEvery = 1;
        cfg.syscalls = &fake;
        SchedulingDaemon d(cfg);
        const auto step = [&](const auto &body) {
            MatrixStep st;
            const bool before = fake.injected();
            st.snapsBefore = d.snapshotsWritten();
            body();
            st.snapsAfter = d.snapshotsWritten();
            st.injectedHere = !before && fake.injected();
            run.steps.push_back(st);
        };
        for (const DaemonOp &op : ops)
            step([&] { EXPECT_TRUE(applyOp(d, op)); });
        step([&] { d.shutdown(); });
        run.snapshots = d.snapshotsWritten();
        run.syncedSeq = d.walSyncedSeq();
    } catch (const FatalError &e) {
        run.fatal = e.what();
    }
    run.dir = testing_durable::readDirImage(dir);
    return run;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

std::string
describe(const SyscallEvent &ev)
{
    return std::string(testing_durable::kindName(ev.kind)) + " " +
           std::filesystem::path(ev.path).filename().string();
}

/*
 * EINTR, EIO and ENOSPC at every write, fsync, rename and close of a
 * durable run (recovery's directory sync, WAL group commits, periodic
 * and final snapshots, the WAL's close):
 *  - EINTR is retried: the directory ends byte for byte as without it;
 *  - a failed WAL write keeps its records pending, and a later sync
 *    makes every record durable;
 *  - a failed WAL fsync is sticky: nothing after it is certified and
 *    no later snapshot is taken;
 *  - a failed snapshot step counts no snapshot;
 *  - a failed recovery step is a FatalError naming strerror;
 * and in every non-fatal case the directory recovers to a state of
 * the reference history.
 */
TEST(ServerDurable, InjectedErrorMatrix)
{
    const std::string dir = scratchDir("error-matrix");
    const std::string wal = dir + "/wal.jsonl";
    const std::vector<DaemonOp> ops = parseOps(kMatrixScript);
    const std::vector<DaemonState> history = referenceHistory(ops);
    const std::uint64_t records = ops.size();

    FakeSyscalls base;
    const MatrixRun clean = runMatrix(dir, base, ops);
    ASSERT_EQ(clean.fatal, "");
    ASSERT_GE(clean.snapshots, 2u);
    ASSERT_EQ(clean.syncedSeq, records);
    const std::vector<SyscallEvent> &evs = base.events();

    std::size_t cases = 0;
    bool walWritten = false;
    for (std::size_t i = 0; i < evs.size(); ++i) {
        const SyscallEvent &ev = evs[i];
        const bool onWal = ev.path == wal;
        // Directory syncs before the first WAL write are recovery's.
        const bool recovery = !walWritten && !onWal;
        walWritten |= onWal && ev.kind == SyscallEvent::Kind::Write;
        if (ev.kind == SyscallEvent::Kind::Open ||
            ev.kind == SyscallEvent::Kind::OpenDirectory)
            continue;
        for (const int e : {EINTR, EIO, ENOSPC}) {
            SCOPED_TRACE("call " + std::to_string(i) + " (" +
                         describe(ev) + ") fails with " +
                         std::strerror(e));
            FakeSyscalls fake;
            fake.failAt(i, e);
            const MatrixRun run = runMatrix(dir, fake, ops);
            ASSERT_TRUE(fake.injected());
            ++cases;
            if (e == EINTR) {
                EXPECT_EQ(run.fatal, "");
                EXPECT_EQ(run.snapshots, clean.snapshots);
                EXPECT_TRUE(run.dir == clean.dir);
                continue;
            }
            if (recovery) {
                EXPECT_NE(run.fatal.find(std::strerror(e)),
                          std::string::npos)
                    << run.fatal;
                continue;
            }
            ASSERT_EQ(run.fatal, "");
            const Recovered rec = recoverDir(dir);
            EXPECT_EQ(checkRecovered(rec, history), "");
            std::size_t at = 0;
            while (at < run.steps.size() && !run.steps[at].injectedHere)
                ++at;
            ASSERT_LT(at, run.steps.size());
            const MatrixStep &hit = run.steps[at];
            if (onWal && ev.kind == SyscallEvent::Kind::Fsync) {
                EXPECT_LT(run.syncedSeq, records);
                EXPECT_EQ(run.snapshots, hit.snapsBefore);
                EXPECT_GE(rec.seq, run.syncedSeq);
            } else if (onWal) {
                // A failed write (retried later) or a failed close
                // after the final sync: nothing is lost.
                EXPECT_EQ(run.syncedSeq, records);
                EXPECT_EQ(rec.seq, records);
            } else {
                EXPECT_EQ(hit.snapsAfter, hit.snapsBefore);
                EXPECT_EQ(run.syncedSeq, records);
                EXPECT_EQ(rec.seq, records);
            }
        }
    }
    // 3 errnos x (recovery's directory fsync + close, 5 group commits
    // of write + fsync, >= 2 snapshots of 6 checked calls, WAL close).
    EXPECT_GE(cases, 3u * (2 + 10 + 12 + 1));
}

/*
 * Recovery rewrites a torn WAL through an atomic replace. A failure
 * at any step of it is a FatalError naming the log and strerror, and
 * leaves the log with its old or its new bytes: the next recovery
 * finishes the job.
 */
TEST(ServerDurable, FailedTornTailRewriteIsAStructuredFatal)
{
    const std::string dir = scratchDir("torn-rewrite");
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
        out << "{\"seq\":3,\"line\":\"a re"; // torn mid-record
    }
    const DirImage torn = testing_durable::readDirImage(dir);
    const std::string expected =
        directBytes("a admit x0 probe verify 256\n");

    FakeSyscalls base;
    {
        DaemonConfig cfg;
        cfg.stateDir = dir;
        cfg.syscalls = &base;
        SchedulingDaemon d(cfg);
        ASSERT_TRUE(d.recovery().walTornTail);
        d.crashForTest();
    }
    const DirImage repaired = testing_durable::readDirImage(dir);
    const std::vector<SyscallEvent> &evs = base.events();
    // The rewrite is every call before the log is reopened for append.
    std::size_t rewriteEnd = 0;
    while (rewriteEnd < evs.size() &&
           !(evs[rewriteEnd].kind == SyscallEvent::Kind::Open &&
             endsWith(evs[rewriteEnd].path, "/wal.jsonl")))
        ++rewriteEnd;
    ASSERT_GE(rewriteEnd, 8u); // open, write, fsync, close, rename,
                               // opendir, fsync, close

    for (std::size_t i = 0; i < rewriteEnd; ++i) {
        if (evs[i].kind == SyscallEvent::Kind::Open ||
            evs[i].kind == SyscallEvent::Kind::OpenDirectory)
            continue;
        for (const int e : {EINTR, EIO, ENOSPC}) {
            SCOPED_TRACE("call " + std::to_string(i) + " (" +
                         describe(evs[i]) + ") fails with " +
                         std::strerror(e));
            testing_durable::writeDirImage(dir, torn);
            FakeSyscalls fake;
            fake.failAt(i, e);
            std::string fatal;
            try {
                DaemonConfig cfg;
                cfg.stateDir = dir;
                cfg.syscalls = &fake;
                SchedulingDaemon d(cfg);
                d.crashForTest();
            } catch (const FatalError &ex) {
                fatal = ex.what();
            }
            if (e == EINTR) {
                EXPECT_EQ(fatal, "");
                EXPECT_TRUE(testing_durable::readDirImage(dir) ==
                            repaired);
                continue;
            }
            EXPECT_NE(fatal.find("cannot rewrite torn WAL"),
                      std::string::npos)
                << fatal;
            EXPECT_NE(fatal.find(std::strerror(e)), std::string::npos)
                << fatal;
            const Recovered rec = recoverDir(dir);
            EXPECT_EQ(rec.fatal, "");
            EXPECT_EQ(rec.seq, 2u);
            EXPECT_EQ(rec.state, (DaemonState{{"a", expected}}));
        }
    }
}

/** Real syscalls, except that every write reports no progress. */
class NoProgressWrites final : public durable::Syscalls
{
  public:
    int
    open(const char *path, int flags, int mode) override
    {
        return durable::realSyscalls().open(path, flags, mode);
    }
    int
    openDirectory(const char *path) override
    {
        return durable::realSyscalls().openDirectory(path);
    }
    long
    write(int, const void *, std::size_t) override
    {
        errno = EBADF; // stale: a zero-byte write sets no errno
        return 0;
    }
    int fsync(int fd) override { return durable::realSyscalls().fsync(fd); }
    int
    rename(const char *from, const char *to) override
    {
        return durable::realSyscalls().rename(from, to);
    }
    int close(int fd) override { return durable::realSyscalls().close(fd); }
};

TEST(ServerDurable, ZeroByteWriteIsAFailureWithoutAStaleErrno)
{
    const std::string dir = scratchDir("zero-write");
    NoProgressWrites sys;
    durable::AppendFile f;
    std::string err;
    ASSERT_TRUE(f.open(dir + "/log", &sys, &err)) << err;
    std::string pending = "record\n";
    EXPECT_FALSE(f.appendAndSync(pending, &err));
    EXPECT_EQ(pending, "record\n"); // kept for a retry
    EXPECT_FALSE(f.failed());      // a write failure is not sticky
    EXPECT_NE(err.find("no progress"), std::string::npos) << err;
    EXPECT_EQ(err.find(std::strerror(EBADF)), std::string::npos) << err;
    EXPECT_TRUE(f.close(&err)) << err;
}

const char *const kSweepScript =
    "open a topo=torus:4,4,4 period=120 tfg=dvb bw=128 alloc=rr:13\n"
    "open b topo=torus:4,4,4 period=120 tfg=dvb bw=128 alloc=rr:13\n"
    "a admit x0 probe verify 256\n"
    "b admit x0 probe verify 256\n"
    "a admit x1 match probe 128\n"
    "b remove x0\n"
    "a remove x0\n"
    "b admit x1 match probe 128\n"
    "close b\n"
    "a remove x1\n";
/** Ops before the recorded run restarts the daemon gracefully. */
constexpr std::size_t kSweepRestartAfter = 6;

/*
 * Crash at every syscall of a durable two-session churn run (group
 * commit every 2 records, a snapshot every 3 accepted ops, one
 * graceful restart), in the style of Pillai et al. (OSDI'14). The
 * fake records the run and models the durable state; each crash
 * image (and a second one keeping half of the WAL's unsynced append,
 * a torn tail) is recovered with the real syscalls. Every recovery
 * must finish without rejecting a replayed record, land on the
 * straight-line reference at its sequence number, keep every record
 * the daemon had synced and every snapshot it had counted.
 */
TEST(ServerDurable, CrashAtEverySyscallRecoversADurablePrefix)
{
    const std::vector<DaemonOp> ops = parseOps(kSweepScript);
    const std::vector<DaemonState> history = referenceHistory(ops);

    /** What the daemon claimed durable once `calls` calls ran. */
    struct Claim
    {
        std::size_t calls = 0;
        std::uint64_t synced = 0;
        std::uint64_t snapshotSeq = 0;
    };
    std::vector<Claim> claims;
    FakeSyscalls fake;
    {
        DaemonConfig cfg;
        cfg.stateDir = scratchDir("sweep-run");
        cfg.snapshotEvery = 3;
        cfg.walSyncEvery = 2;
        cfg.syscalls = &fake;
        auto d = std::make_unique<SchedulingDaemon>(cfg);
        std::uint64_t snaps = 0, snapshotSeq = 0;
        const auto claim = [&] {
            if (d->snapshotsWritten() > snaps) {
                snaps = d->snapshotsWritten();
                snapshotSeq = d->walSyncedSeq();
            }
            claims.push_back(
                {fake.events().size(), d->walSyncedSeq(), snapshotSeq});
        };
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (i == kSweepRestartAfter) {
                d->shutdown();
                claim();
                d = std::make_unique<SchedulingDaemon>(cfg);
                snaps = 0;
                ASSERT_EQ(d->recovery().replayRejected, 0u);
            }
            ASSERT_TRUE(applyOp(*d, ops[i])) << "op " << i;
            claim();
        }
        d->shutdown();
        claim();
        ASSERT_EQ(d->walSyncedSeq(), ops.size());
    }
    const std::vector<SyscallEvent> &evs = fake.events();
    // >= 2 snapshots, so crashes land between a snapshot's tmp fsync
    // and its rename, and between the rename and the directory fsync.
    std::size_t snapshotRenames = 0;
    for (const SyscallEvent &ev : evs)
        snapshotRenames += ev.kind == SyscallEvent::Kind::Rename &&
                           endsWith(ev.path, ".snap.tmp");
    EXPECT_GE(snapshotRenames, 2u);

    const std::string imageDir = scratchDir("sweep-image");
    std::map<DirImage, Recovered> recovered;
    std::vector<std::string> failures;
    Claim due;
    std::size_t nextClaim = 0;
    for (std::size_t k = 0; k <= evs.size(); ++k) {
        while (nextClaim < claims.size() &&
               claims[nextClaim].calls <= k)
            due = claims[nextClaim++];
        for (const bool torn : {false, true}) {
            const DirImage image =
                fake.crashImage(k, torn ? "wal.jsonl" : "");
            auto it = recovered.find(image);
            if (it == recovered.end()) {
                testing_durable::writeDirImage(imageDir, image);
                it = recovered.emplace(image, recoverDir(imageDir)).first;
            }
            const Recovered &r = it->second;
            std::string why = checkRecovered(r, history);
            if (why.empty() && r.seq < due.synced)
                why = "recovered seq " + std::to_string(r.seq) +
                      " loses synced seq " + std::to_string(due.synced);
            if (why.empty() && r.snapshotSeq < due.snapshotSeq)
                why = "recovered from snapshot seq " +
                      std::to_string(r.snapshotSeq) +
                      ", but one at seq " +
                      std::to_string(due.snapshotSeq) + " was counted";
            if (!why.empty())
                failures.push_back(
                    "crash after " + std::to_string(k) + " calls" +
                    (k > 0 ? " (last: " + describe(evs[k - 1]) + ")"
                           : std::string()) +
                    (torn ? ", torn WAL tail" : "") + ": " + why);
        }
    }
    EXPECT_TRUE(failures.empty())
        << failures.size() << " crash images fail; first: "
        << failures.front();
    // Distinct images recovered: more than one per WAL record.
    EXPECT_GT(recovered.size(), ops.size());
}

} // namespace
} // namespace srsim
