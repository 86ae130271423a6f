/**
 * @file
 * Content-addressed daemon snapshots.
 *
 * A snapshot is a point-in-time image of every live session taken
 * at a quiescent WAL boundary: `walseq N` means the image reflects
 * exactly the effects of WAL records 1..N. Recovery restores the
 * newest intact snapshot and replays only the WAL suffix > N, so
 * the cost of recovery is bounded by the snapshot interval instead
 * of the full history.
 *
 * Per session the image stores the session's `open` line (the
 * protocol's canonical text, read back with the script parser), its
 * *current* period, its *current* workload as an `srsim-tfg v1`
 * block (tfg_io, doubles at 17 digits), one line with each task's
 * node — the allocation is fixed at open but derived from the
 * message set then, so it is stored, never re-derived — and the
 * published schedule in the schedule_io v2 text form (which carries
 * the accumulated fault spec). Restoring re-applies the fault mask,
 * recomputes the route-free bounds, and re-verifies the schedule —
 * a snapshot is trusted only after it certifies.
 *
 * Files are content-addressed — `snap-<walseq>-<fnv1a64(body)>.snap`
 * — and written with durable::replaceFile() (tmp + fsync + rename
 * + directory fsync), so a crash while snapshotting leaves either no
 * new file or a verifiable one; a corrupt file fails its hash and
 * recovery falls back to the next older snapshot, and ultimately to
 * a full WAL replay. The format is versioned ("srsim-daemon-snapshot
 * v3", the first whose sessions are protocol and TFG text); readers
 * reject every other version, like any undecodable image.
 */

#ifndef SRSIM_SERVER_SNAPSHOT_HH_
#define SRSIM_SERVER_SNAPSHOT_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.hh"
#include "tfg/tfg.hh"
#include "topology/topology.hh"
#include "util/durable_file.hh"

namespace srsim {
namespace server {

/** Point-in-time image of one live session. */
struct SessionSnapshot
{
    /** The session's open-time configuration. */
    SessionConfig cfg;
    /** Current input period (us) — drifts via period/fault. */
    double period = 0.0;
    /** Current workload (tasks and messages in id order). */
    TaskFlowGraph g;
    /** The node the (fixed) allocation placed each task on. */
    std::vector<NodeId> placement;
    /** writeSchedule() bytes (v2: includes the fault spec). */
    std::string scheduleText;
};

/** One shared-cache entry of the image. */
struct SnapshotCacheEntry
{
    /** Canonical workload key (online::canonicalWorkloadKey). */
    std::string key;
    /** writeSchedule() bytes of the cached schedule. */
    std::string scheduleText;
    std::uint64_t numSubsets = 0;
    double peakUtilization = 0.0;
};

/** Point-in-time image of the whole daemon. */
struct DaemonSnapshot
{
    /** WAL records 1..walSeq are reflected in this image. */
    std::uint64_t walSeq = 0;
    /** Live sessions in open order. */
    std::vector<SessionSnapshot> sessions;
    /**
     * Shared schedule-cache image, most-recently-used first. The
     * cache is part of the byte-level history: replaying the WAL
     * suffix republishes the original run's exact bytes only if
     * requests that hit the cache then hit the same entries now, so
     * recovery re-seeds the cache from this image before replaying.
     */
    std::vector<SnapshotCacheEntry> cache;
};

/** Serialize to the versioned text body. */
std::string encodeSnapshot(const DaemonSnapshot &snap);

/**
 * Parse a snapshot body. Total on arbitrary bytes: truncation,
 * version skew, and malformed rows come back as false + *err.
 */
bool decodeSnapshot(const std::string &body, DaemonSnapshot *snap,
                    std::string *err);

/**
 * Write `snap` into `dir` under its content-addressed name with
 * durable::replaceFile() through `sys` (nullptr = the real
 * syscalls). @return false + *err on I/O failure; on success
 * *pathOut (if non-null) receives the final path.
 */
bool writeSnapshotFile(const std::string &dir,
                       const DaemonSnapshot &snap,
                       durable::Syscalls *sys, std::string *pathOut,
                       std::string *err);

/** One snapshot file found in a state directory. */
struct SnapshotFileInfo
{
    std::string path;
    std::uint64_t walSeq = 0;
    /** Hash claimed by the file name (verified on load). */
    std::uint64_t hash = 0;
};

/** Snapshot files in `dir`, newest (highest walSeq) first. */
std::vector<SnapshotFileInfo> listSnapshots(const std::string &dir);

/**
 * Load + verify one snapshot file: the body must hash to the name's
 * claim and decode cleanly. @return false + *err otherwise.
 */
bool loadSnapshotFile(const SnapshotFileInfo &info,
                      DaemonSnapshot *snap, std::string *err);

} // namespace server
} // namespace srsim

#endif // SRSIM_SERVER_SNAPSHOT_HH_
