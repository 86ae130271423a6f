/**
 * @file
 * Write-ahead log of the scheduling daemon.
 *
 * Durability contract: every *accepted* state-changing operation
 * (open, close, and each accepted request) is appended as one JSON
 * object per line, `{"seq":N,"line":"<text>"}`, in commit order,
 * with a strictly increasing sequence number. The text is the op's
 * canonical script text (protocol.hh formatDaemonOp()) and is read
 * back with the script parser, so the log has no codec of its own. Records are buffered in user space
 * and made durable by sync() — write(2) + fsync(2) through
 * durable::AppendFile — so the daemon can group-commit batches;
 * anything not yet synced is exactly what a crash may lose.
 * Replaying the log from an empty daemon (or a snapshot's walseq)
 * deterministically reconstructs the state:
 * rejected requests never reach the log, and accepted requests
 * re-applied to the same prior state are accepted again with
 * byte-identical published schedules.
 *
 * The reader is tolerant of a torn tail: a line that is not a
 * complete JSON object (the classic crash-mid-write artifact) ends
 * the replay cleanly instead of failing recovery, and so does a
 * record that breaks sequence monotonicity. A complete record that
 * is not a line record, or whose line does not parse, fails the read
 * instead: it is no torn write (a log of the older per-field
 * records is refused, never truncated away). The first record fixes the
 * log's base sequence — it need not be 1: a log that continues
 * after a snapshot superseded its stale predecessor starts past it
 * (recovery then insists on a snapshot that bridges the gap).
 */

#ifndef SRSIM_SERVER_WAL_HH_
#define SRSIM_SERVER_WAL_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.hh"
#include "util/durable_file.hh"

namespace srsim {

namespace metrics {
class Registry;
}

namespace server {

/** One durable log record: a sequenced daemon operation. */
struct WalRecord
{
    std::uint64_t seq = 0;
    /** The op's canonical script text, as logged. */
    std::string line;
    /** `line`, parsed. */
    DaemonOp op;
};

/** Serialize one record as a single JSON line (no newline). */
std::string encodeWalRecord(std::uint64_t seq, const std::string &line);

/** Outcome of reading a WAL file. */
struct WalReadResult
{
    /** False on a complete record that is not a readable line
        record (a missing file or a torn tail is ok=true). */
    bool ok = false;
    std::vector<WalRecord> records;
    /** True when a torn/corrupt tail was discarded. */
    bool tornTail = false;
    /** Diagnostic for !ok or for the discarded tail. */
    std::string error;
};

/** Read every intact record of `path` (missing file = 0 records). */
WalReadResult readWal(const std::string &path);

/** Append-only writer with explicit group commit. */
class WriteAheadLog
{
  public:
    WriteAheadLog() = default;
    ~WriteAheadLog();

    WriteAheadLog(const WriteAheadLog &) = delete;
    WriteAheadLog &operator=(const WriteAheadLog &) = delete;

    /**
     * Open `path` for appending through `sys` (nullptr = the real
     * syscalls); new records are numbered from `nextSeq`, and every
     * record before it counts as durable. @return false (with *err
     * set) on I/O failure.
     */
    bool open(const std::string &path, std::uint64_t nextSeq,
              durable::Syscalls *sys, std::string *err);

    bool isOpen() const { return file_.isOpen(); }

    /** Buffer a record of `line`, an op's loggableText();
        @return its sequence number. */
    std::uint64_t append(const std::string &line);

    /**
     * Make every buffered record durable (write + fsync).
     * @return true iff every appended record is on disk. A failed
     * write keeps the rest pending (a later sync retries); a failed
     * fsync is sticky — the dirty pages' fate is unknown, so the log
     * can never again certify durability on this fd.
     */
    bool sync();

    /**
     * Graceful close: sync, then close the fd. @return false (after
     * a warning) when either fails.
     */
    bool close();

    /**
     * Crash simulation for tests: drop the user-space buffer and
     * close the fd without syncing — on-disk state is exactly the
     * last sync()'d prefix, as after a real crash.
     */
    void crashForTest();

    /**
     * Registry the server.wal_* metrics land in; nullptr (the
     * default) resolves the process default registry. The daemon
     * points this at its root context's registry before opening.
     */
    void setRegistry(metrics::Registry *r) { registry_ = r; }

    /** Sequence number the next append() will use. */
    std::uint64_t nextSeq() const { return nextSeq_; }
    /** Highest sequence number known to be durable. */
    std::uint64_t syncedSeq() const { return syncedSeq_; }
    /** Records appended (buffered or synced) this run. */
    std::uint64_t recordsAppended() const { return appended_; }
    /** sync() calls that actually hit the disk. */
    std::uint64_t fsyncs() const { return fsyncs_; }

  private:
    /** Resolve the effective metrics registry (see setRegistry). */
    metrics::Registry &reg() const;

    metrics::Registry *registry_ = nullptr;
    durable::AppendFile file_;
    std::string pending_;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t syncedSeq_ = 0;
    std::uint64_t appended_ = 0;
    std::uint64_t fsyncs_ = 0;
};

} // namespace server
} // namespace srsim

#endif // SRSIM_SERVER_WAL_HH_
