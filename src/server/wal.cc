#include "server/wal.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "engine/context.hh"
#include "metrics/metrics.hh"
#include "trace/trace.hh"
#include "util/json.hh"
#include "util/json_read.hh"
#include "util/logging.hh"

namespace srsim {
namespace server {

std::string
encodeWalRecord(const WalRecord &rec)
{
    std::ostringstream os;
    JsonWriter w(os);
    // Replay recompiles from these numbers; byte-exact recovery
    // needs the exact doubles back (periods and byte counts are
    // arbitrary, not microsecond-grid values).
    w.fullPrecision();
    w.beginObject();
    w.kv("seq", rec.seq);
    const DaemonOp &op = rec.op;
    switch (op.kind) {
      case DaemonOp::Kind::Open: {
          const SessionConfig &sc = op.open;
          w.kv("op", "open");
          w.kv("session", op.session);
          w.kv("topo", sc.topo);
          w.kv("tfg", sc.tfg);
          w.kv("period", sc.period);
          w.kv("bw", sc.bandwidth);
          w.kv("ap", sc.apSpeed);
          w.kv("alloc", sc.alloc);
          // As a string: the decoder parses JSON numbers as
          // doubles, which cannot hold every 64-bit seed.
          w.kv("seed", std::to_string(sc.seed));
          w.kv("cache", sc.cache);
          if (!sc.solver.empty())
              w.kv("solver", sc.solver);
          if (sc.threads > 0)
              w.kv("threads",
                   static_cast<std::uint64_t>(sc.threads));
          break;
      }
      case DaemonOp::Kind::Close:
          w.kv("op", "close");
          w.kv("session", op.session);
          break;
      case DaemonOp::Kind::Request: {
          const online::Request &r = op.request;
          switch (r.kind) {
            case online::RequestKind::AdmitMessage:
                w.kv("op", "admit");
                w.kv("session", op.session);
                w.key("admits").beginArray();
                for (const online::AdmitSpec &a : r.admits) {
                    w.beginObject();
                    w.kv("name", a.name);
                    w.kv("src", a.src);
                    w.kv("dst", a.dst);
                    w.kv("bytes", a.bytes);
                    w.endObject();
                }
                w.endArray();
                break;
            case online::RequestKind::RemoveMessage:
                w.kv("op", "remove");
                w.kv("session", op.session);
                w.kv("name", r.name);
                break;
            case online::RequestKind::UpdatePeriod:
                w.kv("op", "period");
                w.kv("session", op.session);
                w.kv("period", r.period);
                break;
            case online::RequestKind::InjectFault:
                w.kv("op", "fault");
                w.kv("session", op.session);
                w.kv("spec", r.faultSpec);
                break;
          }
          break;
      }
    }
    w.endObject();
    return os.str();
}

namespace {

/** Decode one WAL line; throws std::runtime_error on mismatch. */
WalRecord
decodeWalRecord(const std::string &line)
{
    const jsonmini::ValuePtr v = jsonmini::parse(line);
    if (v->kind != jsonmini::Value::Kind::Object)
        throw std::runtime_error("record is not an object");
    WalRecord rec;
    rec.seq = static_cast<std::uint64_t>(v->at("seq").number);
    const std::string op = v->at("op").string;
    rec.op.session = v->at("session").string;
    if (op == "open") {
        rec.op.kind = DaemonOp::Kind::Open;
        SessionConfig &sc = rec.op.open;
        sc.name = rec.op.session;
        sc.topo = v->at("topo").string;
        sc.tfg = v->at("tfg").string;
        sc.period = v->at("period").number;
        sc.bandwidth = v->at("bw").number;
        sc.apSpeed = v->at("ap").number;
        sc.alloc = v->at("alloc").string;
        sc.seed = std::strtoull(v->at("seed").string.c_str(),
                                nullptr, 10);
        sc.cache = v->at("cache").boolean;
        // Absent on records written before sessions carried solver
        // and thread overrides: inherit-the-daemon defaults.
        if (v->has("solver"))
            sc.solver = v->at("solver").string;
        if (v->has("threads"))
            sc.threads = static_cast<std::size_t>(
                v->at("threads").number);
    } else if (op == "close") {
        rec.op.kind = DaemonOp::Kind::Close;
    } else if (op == "admit") {
        rec.op.kind = DaemonOp::Kind::Request;
        rec.op.request.kind = online::RequestKind::AdmitMessage;
        const jsonmini::Value &arr = v->at("admits");
        if (arr.kind != jsonmini::Value::Kind::Array)
            throw std::runtime_error("admits is not an array");
        for (const jsonmini::ValuePtr &e : arr.array) {
            online::AdmitSpec a;
            a.name = e->at("name").string;
            a.src = e->at("src").string;
            a.dst = e->at("dst").string;
            a.bytes = e->at("bytes").number;
            rec.op.request.admits.push_back(std::move(a));
        }
        if (rec.op.request.admits.empty())
            throw std::runtime_error("empty admit batch");
    } else if (op == "remove") {
        rec.op.kind = DaemonOp::Kind::Request;
        rec.op.request.kind = online::RequestKind::RemoveMessage;
        rec.op.request.name = v->at("name").string;
    } else if (op == "period") {
        rec.op.kind = DaemonOp::Kind::Request;
        rec.op.request.kind = online::RequestKind::UpdatePeriod;
        rec.op.request.period = v->at("period").number;
    } else if (op == "fault") {
        rec.op.kind = DaemonOp::Kind::Request;
        rec.op.request.kind = online::RequestKind::InjectFault;
        rec.op.request.faultSpec = v->at("spec").string;
    } else {
        throw std::runtime_error("unknown op '" + op + "'");
    }
    return rec;
}

} // namespace

WalReadResult
readWal(const std::string &path)
{
    WalReadResult out;
    std::ifstream in(path);
    if (!in) {
        // No log yet: an empty daemon, not an error.
        out.ok = true;
        return out;
    }
    std::string line;
    std::uint64_t lastSeq = 0;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        WalRecord rec;
        try {
            rec = decodeWalRecord(line);
        } catch (const std::exception &e) {
            out.tornTail = true;
            out.error = "line " + std::to_string(lineNo) + ": " +
                        e.what();
            break;
        }
        // The first record's seq is the log's base (a log continued
        // after a snapshot superseded its stale predecessor starts
        // past 1); from there the sequence must be contiguous.
        if (!out.records.empty() && rec.seq != lastSeq + 1) {
            // A sequence break means everything from here on is
            // not the log the synced prefix promised.
            out.tornTail = true;
            out.error = "line " + std::to_string(lineNo) +
                        ": sequence break (expected " +
                        std::to_string(lastSeq + 1) + ", got " +
                        std::to_string(rec.seq) + ")";
            break;
        }
        lastSeq = rec.seq;
        out.records.push_back(std::move(rec));
    }
    out.ok = true;
    return out;
}

metrics::Registry &
WriteAheadLog::reg() const
{
    return registry_ != nullptr
               ? *registry_
               : engine::resolve(nullptr).metricsRegistry();
}

WriteAheadLog::~WriteAheadLog()
{
    close();
}

bool
WriteAheadLog::open(const std::string &path, std::uint64_t nextSeq,
                    durable::Syscalls *sys, std::string *err)
{
    close();
    if (!file_.open(path, sys, err))
        return false;
    nextSeq_ = nextSeq;
    syncedSeq_ = nextSeq - 1;
    return true;
}

std::uint64_t
WriteAheadLog::append(const DaemonOp &op)
{
    WalRecord rec;
    rec.seq = nextSeq_++;
    rec.op = op;
    pending_ += encodeWalRecord(rec);
    pending_ += '\n';
    ++appended_;
    if (SRSIM_METRICS_ENABLED())
        reg().counter("server.wal_records").add(1);
    return rec.seq;
}

bool
WriteAheadLog::sync()
{
    if (file_.failed())
        return false;
    if (!file_.isOpen() || pending_.empty())
        return true;
    const double t0 = trace::Tracer::nowWallUs();
    std::string err;
    if (!file_.appendAndSync(pending_, &err)) {
        if (file_.failed())
            warn("WAL fsync failed (", err,
                 "); log can no longer certify durability");
        else
            warn("WAL write failed (", err, "); records stay pending");
        return false;
    }
    syncedSeq_ = nextSeq_ - 1;
    ++fsyncs_;
    if (SRSIM_METRICS_ENABLED()) {
        metrics::Registry &r = reg();
        r.counter("server.wal_fsyncs").add(1);
        r.histogram("server.wal_fsync_us",
                    metrics::Histogram::timeBucketsUs())
            .add(trace::Tracer::nowWallUs() - t0);
    }
    return true;
}

bool
WriteAheadLog::close()
{
    if (!file_.isOpen())
        return true;
    const bool synced = sync();
    std::string err;
    if (!file_.close(&err)) {
        warn("WAL close failed (", err, ")");
        return false;
    }
    return synced;
}

void
WriteAheadLog::crashForTest()
{
    pending_.clear();
    std::string err;
    if (!file_.close(&err))
        warn("WAL close failed (", err, ")");
}

} // namespace server
} // namespace srsim
