#include "server/snapshot.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "online/cache.hh"
#include "tfg/tfg_io.hh"
#include "util/logging.hh"

namespace srsim {
namespace server {

namespace {

constexpr const char *kMagic = "srsim-daemon-snapshot v3";

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

/** "<key> <n>" with 0 <= n <= limit; 0 once the reader failed. */
std::size_t
countOf(BodyReader &r, const char *key, double limit)
{
    const double n = toNumber(r, expectKey(r, key));
    if (r.ok() && !(n >= 0 && n <= limit))
        r.fail(std::string("implausible ") + key + " count");
    return r.ok() ? static_cast<std::size_t>(n) : 0;
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
        DaemonOp open;
        open.kind = DaemonOp::Kind::Open;
        open.session = s.cfg.name;
        open.open = s.cfg;
        w.line(formatDaemonOp(open));
        w.line("period ", s.period);
        std::ostringstream tfg;
        writeTfg(tfg, s.g);
        w.line("tfg ", tfg.str().size());
        w.line(tfg.str());
        w.os << "placement";
        for (const NodeId n : s.placement)
            w.os << ' ' << n;
        w.line();
        w.line("schedule ", s.scheduleText.size());
        w.line(s.scheduleText);
    }
    w.line("cacheentries ", snap.cache.size());
    for (const SnapshotCacheEntry &e : snap.cache) {
        w.line("centry ", e.numSubsets, " ", e.peakUtilization,
               " ", e.key.size(), " ", e.scheduleText.size());
        w.line(e.key);
        w.line(e.scheduleText);
    }
    w.line("end");
    return w.os.str();
}

bool
decodeSnapshot(const std::string &body, DaemonSnapshot *snap,
               std::string *err)
{
    BodyReader r(body);
    const auto bail = [&](const std::string &why) {
        r.fail(why);
        *err = r.error();
        return false;
    };

    if (r.nextLine() != kMagic)
        return bail("bad magic (expected '" + std::string(kMagic) +
                    "')");
    snap->walSeq = countOf(r, "walseq", 9e15); // exact below 2^53
    snap->sessions.clear();
    for (std::size_t i = countOf(r, "sessions", 1e6); i > 0; --i) {
        SessionSnapshot &s = snap->sessions.emplace_back();
        const std::string openLine = r.nextLine();
        DaemonOp open;
        std::string why;
        if (!r.ok())
            return bail("");
        if (!parseDaemonOp(openLine, &open, &why) ||
            open.kind != DaemonOp::Kind::Open)
            return bail("bad session open line '" + openLine +
                        "': " + why);
        s.cfg = std::move(open.open);
        s.period = toNumber(r, expectKey(r, "period"));
        std::istringstream tfg(r.rawBlock(countOf(r, "tfg", 1e9)));
        if (!r.ok())
            return bail("");
        try {
            s.g = readTfg(tfg);
        } catch (const FatalError &e) {
            return bail(std::string("session workload: ") + e.what());
        }
        std::istringstream placement(r.nextLine());
        std::string key;
        NodeId node = 0;
        placement >> key;
        while (placement >> node)
            s.placement.push_back(node);
        if (key != "placement" || !placement.eof() ||
            s.placement.size() != s.g.tasks().size())
            return bail("malformed placement row");
        s.scheduleText = r.rawBlock(countOf(r, "schedule", 1e9));
    }
    snap->cache.clear();
    for (std::size_t i = countOf(r, "cacheentries", 1e6); i > 0; --i) {
        SnapshotCacheEntry &e = snap->cache.emplace_back();
        std::istringstream ls(expectKey(r, "centry"));
        double keyLen = 0.0, schedLen = 0.0;
        if (!(ls >> e.numSubsets >> e.peakUtilization >> keyLen >>
              schedLen) ||
            keyLen < 0 || keyLen > 1e9 || schedLen < 0 ||
            schedLen > 1e9)
            return bail("malformed cache-entry header");
        e.key = r.rawBlock(static_cast<std::size_t>(keyLen));
        e.scheduleText =
            r.rawBlock(static_cast<std::size_t>(schedLen));
    }
    if (r.nextLine() != "end")
        return bail("missing end trailer");
    return r.ok() || bail("");
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
