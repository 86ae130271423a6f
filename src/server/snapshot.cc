#include "server/snapshot.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "online/cache.hh"

namespace srsim {
namespace server {

namespace {

constexpr const char *kMagic = "srsim-daemon-snapshot v2";
/** Written before sessions' solver= / threads= were persisted. */
constexpr const char *kMagicV1 = "srsim-daemon-snapshot v1";

/** Lines + an embedded raw block, with 17-digit double round-trip. */
class BodyWriter
{
  public:
    std::ostringstream os;

    BodyWriter() { os << std::setprecision(17); }

    template <typename... Ts>
    void
    line(Ts &&...parts)
    {
        (os << ... << parts);
        os << '\n';
    }
};

/** Cursor over the body; every getter reports failure via ok_. */
class BodyReader
{
  public:
    explicit BodyReader(const std::string &body) : body_(body) {}

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }

    /** Next line (without the newline); fails at end of body. */
    std::string
    nextLine()
    {
        if (!ok_)
            return {};
        const std::size_t nl = body_.find('\n', pos_);
        if (nl == std::string::npos) {
            fail("unexpected end of snapshot");
            return {};
        }
        std::string line = body_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        return line;
    }

    /** Raw block of exactly n bytes followed by a newline. */
    std::string
    rawBlock(std::size_t n)
    {
        if (!ok_)
            return {};
        if (pos_ + n + 1 > body_.size() || body_[pos_ + n] != '\n') {
            fail("truncated schedule block");
            return {};
        }
        std::string block = body_.substr(pos_, n);
        pos_ += n + 1;
        return block;
    }

    void
    fail(const std::string &what)
    {
        if (ok_) {
            ok_ = false;
            error_ = what;
        }
    }

  private:
    const std::string &body_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

/** Parse "<key> <payload...>"; fails on key mismatch. */
std::string
expectKey(BodyReader &r, const char *key)
{
    const std::string line = r.nextLine();
    if (!r.ok())
        return {};
    const std::string prefix = std::string(key) + " ";
    if (line.rfind(prefix, 0) != 0) {
        r.fail(std::string("expected '") + key + " ...', got '" +
               line + "'");
        return {};
    }
    return line.substr(prefix.size());
}

double
toNumber(BodyReader &r, const std::string &s)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (!end || *end != '\0' || s.empty()) {
        r.fail("malformed number '" + s + "'");
        return 0.0;
    }
    return v;
}

/** Exact u64 parse — toNumber() would clip seeds above 2^53. */
std::uint64_t
toU64(BodyReader &r, const std::string &s)
{
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (!end || *end != '\0' || s.empty()) {
        r.fail("malformed integer '" + s + "'");
        return 0;
    }
    return v;
}

} // namespace

std::string
encodeSnapshot(const DaemonSnapshot &snap)
{
    BodyWriter w;
    w.line(kMagic);
    w.line("walseq ", snap.walSeq);
    w.line("sessions ", snap.sessions.size());
    for (const SessionSnapshot &s : snap.sessions) {
        const SessionConfig &c = s.cfg;
        w.line("session ", c.name);
        w.line("topo ", c.topo);
        w.line("tfgsrc ", c.tfg);
        w.line("openperiod ", c.period);
        w.line("bw ", c.bandwidth);
        w.line("ap ", c.apSpeed);
        w.line("alloc ", c.alloc);
        w.line("seed ", c.seed);
        w.line("cachesess ", c.cache ? 1 : 0);
        w.line("solver ", c.solver);
        w.line("threads ", c.threads);
        w.line("period ", s.period);
        w.line("tasks ", s.tasks.size());
        for (const SnapshotTask &t : s.tasks)
            w.line("task ", t.name, " ", t.operations, " ", t.node);
        w.line("messages ", s.messages.size());
        for (const SnapshotMessage &m : s.messages)
            w.line("message ", m.name, " ", m.src, " ", m.dst, " ",
                   m.bytes);
        w.line("schedule ", s.scheduleText.size());
        w.os << s.scheduleText;
        w.os << '\n';
    }
    w.line("cacheentries ", snap.cache.size());
    for (const SnapshotCacheEntry &e : snap.cache) {
        w.line("centry ", e.numSubsets, " ", e.peakUtilization,
               " ", e.key.size(), " ", e.scheduleText.size());
        w.os << e.key;
        w.os << '\n';
        w.os << e.scheduleText;
        w.os << '\n';
    }
    w.line("end");
    return w.os.str();
}

bool
decodeSnapshot(const std::string &body, DaemonSnapshot *snap,
               std::string *err)
{
    BodyReader r(body);
    const auto bail = [&]() {
        *err = r.error();
        return false;
    };

    const std::string magic = r.nextLine();
    const bool v1 = magic == kMagicV1;
    if (magic != kMagic && !v1) {
        r.fail("bad magic (expected '" + std::string(kMagic) + "')");
        return bail();
    }
    snap->walSeq = toU64(r, expectKey(r, "walseq"));
    const double nSessions = toNumber(r, expectKey(r, "sessions"));
    if (!r.ok() || nSessions < 0 || nSessions > 1e6) {
        r.fail("implausible session count");
        return bail();
    }
    snap->sessions.clear();
    for (int i = 0; i < static_cast<int>(nSessions); ++i) {
        SessionSnapshot s;
        s.cfg.name = expectKey(r, "session");
        s.cfg.topo = expectKey(r, "topo");
        s.cfg.tfg = expectKey(r, "tfgsrc");
        s.cfg.period = toNumber(r, expectKey(r, "openperiod"));
        s.cfg.bandwidth = toNumber(r, expectKey(r, "bw"));
        s.cfg.apSpeed = toNumber(r, expectKey(r, "ap"));
        s.cfg.alloc = expectKey(r, "alloc");
        s.cfg.seed = toU64(r, expectKey(r, "seed"));
        s.cfg.cache =
            toNumber(r, expectKey(r, "cachesess")) != 0.0;
        // A v1 image's sessions run on the daemon's defaults.
        if (!v1) {
            s.cfg.solver = expectKey(r, "solver");
            s.cfg.threads = static_cast<std::size_t>(
                toU64(r, expectKey(r, "threads")));
        }
        s.period = toNumber(r, expectKey(r, "period"));
        const double nTasks = toNumber(r, expectKey(r, "tasks"));
        if (!r.ok() || nTasks < 0 || nTasks > 1e6) {
            r.fail("implausible task count");
            return bail();
        }
        for (int t = 0; t < static_cast<int>(nTasks); ++t) {
            std::istringstream ls(expectKey(r, "task"));
            SnapshotTask st;
            if (!(ls >> st.name >> st.operations >> st.node)) {
                r.fail("malformed task row");
                return bail();
            }
            s.tasks.push_back(std::move(st));
        }
        const double nMsgs = toNumber(r, expectKey(r, "messages"));
        if (!r.ok() || nMsgs < 0 || nMsgs > 1e6) {
            r.fail("implausible message count");
            return bail();
        }
        for (int m = 0; m < static_cast<int>(nMsgs); ++m) {
            std::istringstream ls(expectKey(r, "message"));
            SnapshotMessage sm;
            if (!(ls >> sm.name >> sm.src >> sm.dst >> sm.bytes)) {
                r.fail("malformed message row");
                return bail();
            }
            s.messages.push_back(std::move(sm));
        }
        const double schedLen =
            toNumber(r, expectKey(r, "schedule"));
        if (!r.ok() || schedLen < 0 || schedLen > 1e9) {
            r.fail("implausible schedule length");
            return bail();
        }
        s.scheduleText =
            r.rawBlock(static_cast<std::size_t>(schedLen));
        if (!r.ok())
            return bail();
        snap->sessions.push_back(std::move(s));
    }
    const double nCache = toNumber(r, expectKey(r, "cacheentries"));
    if (!r.ok() || nCache < 0 || nCache > 1e6) {
        r.fail("implausible cache-entry count");
        return bail();
    }
    snap->cache.clear();
    for (int c = 0; c < static_cast<int>(nCache); ++c) {
        std::istringstream ls(expectKey(r, "centry"));
        SnapshotCacheEntry e;
        double keyLen = 0.0, schedLen = 0.0;
        if (!(ls >> e.numSubsets >> e.peakUtilization >> keyLen >>
              schedLen) ||
            keyLen < 0 || keyLen > 1e9 || schedLen < 0 ||
            schedLen > 1e9) {
            r.fail("malformed cache-entry header");
            return bail();
        }
        e.key = r.rawBlock(static_cast<std::size_t>(keyLen));
        e.scheduleText =
            r.rawBlock(static_cast<std::size_t>(schedLen));
        if (!r.ok())
            return bail();
        snap->cache.push_back(std::move(e));
    }
    if (r.nextLine() != "end") {
        r.fail("missing end trailer");
        return bail();
    }
    return r.ok() ? true : bail();
}

bool
writeSnapshotFile(const std::string &dir,
                  const DaemonSnapshot &snap, durable::Syscalls *sys,
                  std::string *pathOut, std::string *err)
{
    const std::string body = encodeSnapshot(snap);
    const std::uint64_t hash = online::fnv1a64(body);
    std::ostringstream name;
    name << "snap-" << snap.walSeq << "-" << std::hex
         << std::setw(16) << std::setfill('0') << hash << ".snap";
    const std::filesystem::path finalPath =
        std::filesystem::path(dir) / name.str();

    if (!durable::replaceFile(finalPath.string(), body, sys, err))
        return false;
    if (pathOut)
        *pathOut = finalPath.string();
    return true;
}

std::vector<SnapshotFileInfo>
listSnapshots(const std::string &dir)
{
    std::vector<SnapshotFileInfo> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string fn = entry.path().filename().string();
        std::uint64_t seq = 0;
        char hashHex[17] = {0};
        // snap-<walseq>-<16-hex>.snap  (SCNu64: %lu would be UB on
        // LLP64/32-bit targets where unsigned long is 32 bits)
        if (std::sscanf(fn.c_str(),
                        "snap-%" SCNu64 "-%16[0-9a-f].snap", &seq,
                        hashHex) != 2)
            continue;
        if (fn != "snap-" + std::to_string(seq) + "-" +
                      std::string(hashHex) + ".snap")
            continue;
        SnapshotFileInfo info;
        info.path = entry.path().string();
        info.walSeq = seq;
        info.hash = std::strtoull(hashHex, nullptr, 16);
        out.push_back(std::move(info));
    }
    std::sort(out.begin(), out.end(),
              [](const SnapshotFileInfo &a,
                 const SnapshotFileInfo &b) {
                  return a.walSeq > b.walSeq;
              });
    return out;
}

bool
loadSnapshotFile(const SnapshotFileInfo &info, DaemonSnapshot *snap,
                 std::string *err)
{
    std::ifstream in(info.path, std::ios::binary);
    if (!in) {
        *err = "cannot open '" + info.path + "'";
        return false;
    }
    std::ostringstream os;
    os << in.rdbuf();
    const std::string body = os.str();
    if (online::fnv1a64(body) != info.hash) {
        *err = "content hash mismatch for '" + info.path + "'";
        return false;
    }
    if (!decodeSnapshot(body, snap, err)) {
        *err = "'" + info.path + "': " + *err;
        return false;
    }
    if (snap->walSeq != info.walSeq) {
        *err = "'" + info.path + "': walseq disagrees with name";
        return false;
    }
    return true;
}

} // namespace server
} // namespace srsim
