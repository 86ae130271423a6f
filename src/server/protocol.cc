#include "server/protocol.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "mapping/allocation.hh"

namespace srsim {
namespace server {

namespace {

/** A finite decimal number: NaN and infinities are rejected. */
bool
parseNumber(const std::string &s, double *out)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (!end || *end != '\0' || s.empty() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

/**
 * An exact unsigned 64-bit integer: decimal digits only, overflow
 * rejected (never a cast from a double, which cannot hold every
 * seed and is undefined out of range).
 */
bool
parseU64(const std::string &s, std::uint64_t *out)
{
    if (s.empty() || s.find_first_not_of("0123456789") !=
                         std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno == ERANGE || !end || *end != '\0')
        return false;
    *out = v;
    return true;
}

/**
 * Strip a trailing comment and surrounding whitespace. A '#' starts
 * a comment only at the beginning of the line or after whitespace;
 * mid-token it is payload (`fault derate:#3=0.5`).
 */
std::string
cleanLine(const std::string &raw)
{
    std::string s = raw;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '#' &&
            (i == 0 || s[i - 1] == ' ' || s[i - 1] == '\t')) {
            s.erase(i);
            break;
        }
    }
    const std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return {};
    const std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/** Parse the key=value tail of an `open` line into `sc`. */
bool
parseOpenConfig(std::istringstream &ls, SessionConfig &sc,
                std::string *err)
{
    std::string tok;
    while (ls >> tok) {
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
            *err = "expected key=value, got '" + tok + "'";
            return false;
        }
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        const auto bad = [&](const char *what) {
            *err = key + " must be " + what + ", got '" + val + "'";
            return false;
        };
        double num = 0.0;
        std::uint64_t whole = 0;
        if (key == "topo") {
            sc.topo = val;
        } else if (key == "tfg") {
            sc.tfg = val;
        } else if (key == "period" || key == "bw") {
            if (!parseNumber(val, &num) || num <= 0.0)
                return bad("a positive number");
            (key == "bw" ? sc.bandwidth : sc.period) = num;
        } else if (key == "ap") {
            if (!parseNumber(val, &num) || num < 0.0)
                return bad("a finite number >= 0");
            sc.apSpeed = num;
        } else if (key == "alloc") {
            if (!alloc::parseSpec(val, err))
                return false;
            sc.alloc = val;
        } else if (key == "seed") {
            if (!parseU64(val, &sc.seed))
                return bad("an unsigned 64-bit integer");
        } else if (key == "cache") {
            if (val != "0" && val != "1")
                return bad("0 or 1");
            sc.cache = val == "1";
        } else if (key == "solver") {
            if (val != "dense" && val != "sparse")
                return bad("dense or sparse");
            sc.solver = val;
        } else if (key == "threads") {
            if (!parseU64(val, &whole) || whole < 1)
                return bad("a positive integer");
            sc.threads = static_cast<std::size_t>(whole);
        } else {
            *err = "unknown open key '" + key + "'";
            return false;
        }
    }
    if (sc.topo.empty()) {
        *err = "open requires topo=SPEC";
        return false;
    }
    if (sc.tfg.empty()) {
        *err = "open requires a non-empty tfg source";
        return false;
    }
    if (sc.period <= 0.0) {
        *err = "open requires period=US (> 0)";
        return false;
    }
    return true;
}

} // namespace

std::string
formatDaemonOp(const DaemonOp &op)
{
    std::ostringstream os;
    os << std::setprecision(17); // doubles read back bit for bit
    const SessionConfig &sc = op.open;
    const online::Request &r = op.request;
    if (op.kind == DaemonOp::Kind::Open) {
        os << "open " << op.session << " topo=" << sc.topo
           << " tfg=" << sc.tfg << " period=" << sc.period
           << " bw=" << sc.bandwidth << " ap=" << sc.apSpeed
           << " alloc=" << sc.alloc << " seed=" << sc.seed
           << " cache=" << sc.cache;
        if (!sc.solver.empty())
            os << " solver=" << sc.solver;
        if (sc.threads > 0)
            os << " threads=" << sc.threads;
    } else if (op.kind == DaemonOp::Kind::Close) {
        os << "close " << op.session;
    } else if (r.kind == online::RequestKind::AdmitMessage) {
        if (r.admits.size() != 1)
            os << op.session << " batch " << r.admits.size() << '\n';
        for (std::size_t i = 0; i < r.admits.size(); ++i) {
            const online::AdmitSpec &a = r.admits[i];
            os << (i > 0 ? "\n" : "") << op.session << " admit "
               << a.name << ' ' << a.src << ' ' << a.dst << ' '
               << a.bytes;
        }
    } else if (r.kind == online::RequestKind::RemoveMessage) {
        os << op.session << " remove " << r.name;
    } else if (r.kind == online::RequestKind::UpdatePeriod) {
        os << op.session << " period " << r.period;
    } else {
        os << op.session << " fault " << r.faultSpec;
    }
    return os.str();
}

bool
parseDaemonOp(const std::string &text, DaemonOp *out,
              std::string *err)
{
    std::istringstream is(text);
    DaemonScriptParseResult r = parseDaemonScript(is);
    if (!r.ok || r.ops.size() != 1) {
        *err = r.ok ? "expected one op, got " +
                          std::to_string(r.ops.size())
                    : r.error;
        return false;
    }
    *out = std::move(r.ops[0]);
    return true;
}

bool
loggableText(const DaemonOp &op, std::string *text, std::string *err)
{
    std::string line = formatDaemonOp(op);
    DaemonOp back;
    if (!parseDaemonOp(line, &back, err))
        return false;
    // Field for field, the fields a kind does not use included:
    // the text cannot carry them.
    if (op.kind != back.kind || op.session != back.session ||
        op.open != back.open || op.request != back.request) {
        *err = "'" + line + "' does not read back as the same op";
        return false;
    }
    *text = std::move(line);
    return true;
}

bool
parseRequestLine(const std::string &line, online::Request &out,
                 std::string *err)
{
    std::istringstream ls(line);
    std::string verb, extra;
    ls >> verb;
    online::Request r;
    const auto fail = [&](std::string msg) {
        *err = std::move(msg);
        return false;
    };
    if (verb == "admit") {
        r.kind = online::RequestKind::AdmitMessage;
        online::AdmitSpec spec;
        if (!(ls >> spec.name >> spec.src >> spec.dst >> spec.bytes))
            return fail(
                "expected: admit <name> <srcTask> <dstTask> <bytes>");
        r.admits.push_back(std::move(spec));
    } else if (verb == "remove") {
        r.kind = online::RequestKind::RemoveMessage;
        if (!(ls >> r.name))
            return fail("expected: remove <name>");
    } else if (verb == "period") {
        r.kind = online::RequestKind::UpdatePeriod;
        if (!(ls >> r.period))
            return fail("expected: period <tau_in_us>");
    } else if (verb == "fault") {
        // The spec is the rest of the line.
        r.kind = online::RequestKind::InjectFault;
        std::getline(ls, r.faultSpec);
        const std::size_t b = r.faultSpec.find_first_not_of(" \t");
        r.faultSpec =
            b == std::string::npos ? "" : r.faultSpec.substr(b);
        if (r.faultSpec.empty())
            return fail("expected: fault <fault-spec>");
    } else {
        return fail("unknown request verb '" + verb + "'");
    }
    if (ls >> extra)
        return fail("trailing tokens after " + verb + ": '" + extra +
                    "'");
    out = std::move(r);
    return true;
}

DaemonScriptParseResult
parseDaemonScript(std::istream &is)
{
    DaemonScriptParseResult out;
    std::string line;
    int lineNo = 0;
    const auto fail = [&](int ln, std::string msg) {
        out.ok = false;
        out.error = std::move(msg);
        out.errorLine = ln;
        return out;
    };
    // Next non-blank line with its comment stripped; false at EOF.
    const auto next = [&] {
        std::string raw;
        while (std::getline(is, raw)) {
            ++lineNo;
            line = cleanLine(raw);
            if (!line.empty())
                return true;
        }
        return false;
    };

    while (next()) {
        std::istringstream ls(line);
        std::string head;
        ls >> head;

        if (head == "open") {
            DaemonOp op;
            op.kind = DaemonOp::Kind::Open;
            op.line = lineNo;
            if (!(ls >> op.session))
                return fail(lineNo, "open requires a session name");
            if (op.session == "open" || op.session == "close" ||
                op.session.find('=') != std::string::npos)
                return fail(lineNo, "invalid session name '" +
                                        op.session + "'");
            op.open.name = op.session;
            std::string err;
            if (!parseOpenConfig(ls, op.open, &err))
                return fail(lineNo, err);
            out.ops.push_back(std::move(op));
            continue;
        }

        if (head == "close") {
            DaemonOp op;
            op.kind = DaemonOp::Kind::Close;
            op.line = lineNo;
            std::string extra;
            if (!(ls >> op.session))
                return fail(lineNo, "close requires a session name");
            if (ls >> extra)
                return fail(lineNo, "unexpected token '" + extra +
                                        "' after close");
            out.ops.push_back(std::move(op));
            continue;
        }

        // "<session> <verb> ..."
        DaemonOp op;
        op.kind = DaemonOp::Kind::Request;
        op.session = head;
        op.line = lineNo;
        std::string rest;
        std::getline(ls, rest);
        std::istringstream vs(rest);
        std::string verb;
        if (!(vs >> verb))
            return fail(lineNo, "session '" + head +
                                    "' line has no request");

        if (verb == "batch") {
            int n = 0;
            std::string extra;
            if (!(vs >> n) || n <= 0)
                return fail(lineNo,
                            "batch requires a positive count");
            if (vs >> extra)
                return fail(lineNo, "unexpected token '" + extra +
                                        "' after batch count");
            op.request.kind = online::RequestKind::AdmitMessage;
            while (static_cast<int>(op.request.admits.size()) < n) {
                if (!next())
                    return fail(lineNo,
                                "batch truncated by end of script");
                std::istringstream bs(line);
                std::string bsession, brest, err;
                bs >> bsession;
                if (bsession != head)
                    return fail(lineNo,
                                "batch line must target session '" +
                                    head + "', got '" + bsession +
                                    "'");
                std::getline(bs, brest);
                online::Request one;
                if (!parseRequestLine(brest, one, &err))
                    return fail(lineNo, err);
                if (one.kind != online::RequestKind::AdmitMessage)
                    return fail(lineNo,
                                "batch accepts only admit lines");
                op.request.admits.push_back(one.admits[0]);
            }
            out.ops.push_back(std::move(op));
            continue;
        }

        std::string err;
        if (!parseRequestLine(rest, op.request, &err))
            return fail(lineNo, err);
        out.ops.push_back(std::move(op));
    }

    out.ok = true;
    return out;
}

} // namespace server
} // namespace srsim
