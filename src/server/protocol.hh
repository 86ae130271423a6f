/**
 * @file
 * Text protocol of the scheduling daemon — the repository's one
 * request grammar.
 *
 * The daemon multiplexes many named *sessions*, so its script
 * prefixes every data-plane line with the session name and adds
 * control-plane verbs to open and close sessions:
 *
 *     # comment / blank lines ignored
 *     open <session> topo=SPEC period=US tfg=dvb|FILE
 *          [bw=B] [ap=S] [alloc=greedy|random|rr:<stride>]
 *          [seed=N] [cache=0|1] [solver=dense|sparse] [threads=N]
 *     close <session>
 *     <session> admit  <name> <srcTask> <dstTask> <bytes>
 *     <session> remove <name>
 *     <session> period <tau_in_us>
 *     <session> fault  <fault-spec>      # rest of line
 *     <session> batch  <N>               # coalesce the next N
 *     <session> admit  ...               #   "<session> admit" lines
 *
 * A '#' starts a comment at the beginning of a line or after
 * whitespace, on every kind of line; mid-token it is payload (the
 * fault grammar addresses links as '#<index>', e.g.
 * `derate:#3=0.5`). A one-session script (`open s ...` followed by
 * `s admit ...` lines) drives a single OnlineScheduler.
 *
 * `tfg=dvb` builds the paper's DARPA Vision Benchmark workload
 * in-process (no file dependency — recovery can always replay it);
 * any other value is a TFG file path. `ap=0` (the default) picks the
 * DVB-matched AP speed for tfg=dvb and 1.0 otherwise. Numbers must
 * be finite; `seed=` and `threads=` are exact decimal integers.
 * Parsing is total: malformed lines produce a structured error with
 * the 1-based line number, never an abort.
 *
 * This grammar is also the daemon's durable spelling of an op:
 * formatDaemonOp() prints the canonical text that
 * parseDaemonScript() reads back field for field, and a WAL record
 * or a snapshot's session header is that text. The daemon takes
 * only ops whose text reads back (loggableText()), so every
 * accepted op can be replayed exactly.
 */

#ifndef SRSIM_SERVER_PROTOCOL_HH_
#define SRSIM_SERVER_PROTOCOL_HH_

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "online/requests.hh"

namespace srsim {
namespace server {

/** Everything an `open` line configures for one session. */
struct SessionConfig
{
    /** Session name (unique among live sessions). */
    std::string name;
    /** Topology spec (topology/factory grammar). */
    std::string topo;
    /** Workload source: "dvb" (builtin) or a TFG file path. */
    std::string tfg = "dvb";
    /** Initial input period tau_in (us); must be > 0. */
    double period = 0.0;
    /** Link bandwidth (bytes/us). */
    double bandwidth = 64.0;
    /** AP speed (ops/us); 0 = matched speed for dvb, else 1.0. */
    double apSpeed = 0.0;
    /** Allocation kind: greedy | random | rr:<stride>. */
    std::string alloc = "greedy";
    /** Seed for random allocation and path-assignment restarts. */
    std::uint64_t seed = 12345;
    /** Whether this session may use the shared schedule cache. */
    bool cache = true;
    /**
     * LP solver kind for this session's compiles: "dense",
     * "sparse", or "" to inherit the daemon's solver kind.
     */
    std::string solver;
    /**
     * Private thread budget for this session's engine context;
     * 0 shares the daemon's pool.
     */
    std::size_t threads = 0;

    bool operator==(const SessionConfig &) const = default;
};

/** One parsed daemon-script operation. */
struct DaemonOp
{
    enum class Kind { Open, Close, Request };
    Kind kind = Kind::Request;
    /** Target session name (all kinds). */
    std::string session;
    /** Kind::Open: the session configuration. */
    SessionConfig open;
    /** Kind::Request: the per-session request. */
    online::Request request;
    /** 1-based script line (0 for synthesized ops). */
    int line = 0;
};

/** Outcome of parsing one daemon script. */
struct DaemonScriptParseResult
{
    bool ok = false;
    std::vector<DaemonOp> ops;
    /** Parse failure, with the offending 1-based line. */
    std::string error;
    int errorLine = 0;
};

/** Parse a whole daemon script; `batch N` becomes one Request. */
DaemonScriptParseResult parseDaemonScript(std::istream &is);

/**
 * Canonical script text of `op`: every open key in one order
 * (`solver=` and `threads=` only when set), doubles at 17
 * significant digits, seeds in exact decimal; a request of several
 * admits is `batch N` followed by N admit lines. No trailing
 * newline.
 */
std::string formatDaemonOp(const DaemonOp &op);

/**
 * Parse text that holds exactly one op (a WAL record's line, a
 * snapshot's open line). @return false with *err set otherwise.
 */
bool parseDaemonOp(const std::string &text, DaemonOp *out,
                   std::string *err);

/**
 * The text the daemon logs for `op`: formatDaemonOp(op), provided
 * parseDaemonOp() reads it back as `op` field for field (fields
 * `op`'s kind does not use must keep their defaults). @return false
 * with *err set when it does not (a non-finite number, a name the
 * grammar cannot spell, an empty batch, ...).
 */
bool loggableText(const DaemonOp &op, std::string *text,
                  std::string *err);

/**
 * Parse one request in the per-session verb grammar (`admit`,
 * `remove`, `period`, `fault`; no session prefix, no comment).
 * @return false with *err set when the line is malformed.
 */
bool parseRequestLine(const std::string &line, online::Request &out,
                      std::string *err);

} // namespace server
} // namespace srsim

#endif // SRSIM_SERVER_PROTOCOL_HH_
