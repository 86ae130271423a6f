#include "server/wal.hh"

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
encodeWalRecord(std::uint64_t seq, const std::string &line)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("seq", seq);
    w.kv("line", line);
    w.endObject();
    return os.str();
}

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
        const std::string where = "line " + std::to_string(lineNo);
        jsonmini::ValuePtr v;
        try {
            v = jsonmini::parse(line);
        } catch (const std::exception &e) {
            // Only a crash mid-append leaves an incomplete object.
            out.tornTail = true;
            out.error = where + ": " + e.what();
            break;
        }
        // A complete record that is not {"seq","line"} is no torn
        // write: refuse it rather than truncate the log there.
        if (v->kind != jsonmini::Value::Kind::Object ||
            !v->has("seq") || !v->has("line")) {
            out.error = where + ": not a {\"seq\",\"line\"} record; "
                        "logs of per-field records (written before "
                        "records became protocol lines) are not read";
            return out;
        }
        WalRecord rec;
        rec.seq = static_cast<std::uint64_t>(v->at("seq").number);
        rec.line = v->at("line").string;
        std::string err;
        if (!parseDaemonOp(rec.line, &rec.op, &err)) {
            out.error = where + ": " + err;
            return out;
        }
        // The first record's seq is the log's base (a log continued
        // after a snapshot superseded its stale predecessor starts
        // past 1); from there the sequence must be contiguous.
        if (!out.records.empty() && rec.seq != lastSeq + 1) {
            // A sequence break means everything from here on is
            // not the log the synced prefix promised.
            out.tornTail = true;
            out.error = where + ": sequence break (expected " +
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
WriteAheadLog::append(const std::string &line)
{
    const std::uint64_t seq = nextSeq_++;
    pending_ += encodeWalRecord(seq, line);
    pending_ += '\n';
    ++appended_;
    if (SRSIM_METRICS_ENABLED())
        reg().counter("server.wal_records").add(1);
    return seq;
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
