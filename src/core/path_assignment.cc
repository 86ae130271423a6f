#include "core/path_assignment.hh"

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "engine/context.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace srsim {

UtilizationAnalyzer::UtilizationAnalyzer(const TimeBounds &bounds,
                                         const IntervalSet &intervals,
                                         const Topology &topo)
    : bounds_(bounds), intervals_(intervals), topo_(topo)
{
    const std::size_t nmsg = bounds_.messages.size();
    durations_.resize(nmsg);
    noSlack_.resize(nmsg);
    activeIv_.resize(nmsg);
    for (std::size_t i = 0; i < nmsg; ++i) {
        durations_[i] = bounds_.messages[i].duration;
        noSlack_[i] = bounds_.messages[i].noSlack();
        activeIv_[i] = intervals_.activeIntervals(i);
    }
    lengths_.resize(intervals_.size());
    for (std::size_t k = 0; k < intervals_.size(); ++k)
        lengths_[k] = intervals_.interval(k).length();
    capacity_.resize(static_cast<std::size_t>(topo_.numLinks()));
    for (std::size_t l = 0; l < capacity_.size(); ++l)
        capacity_[l] = topo_.linkCapacity(static_cast<LinkId>(l));
}

double
UtilizationAnalyzer::linkUtilization(const PathAssignment &pa,
                                     LinkId j) const
{
    double demand = 0.0;
    std::vector<bool> used(intervals_.size(), false);
    for (std::size_t i = 0; i < bounds_.messages.size(); ++i) {
        const Path &p = pa.pathFor(i);
        if (std::find(p.links.begin(), p.links.end(), j) ==
            p.links.end())
            continue;
        demand += durations_[i];
        for (std::size_t k : activeIv_[i])
            used[k] = true;
    }
    double avail = 0.0;
    for (std::size_t k = 0; k < intervals_.size(); ++k)
        if (used[k])
            avail += intervals_.interval(k).length();
    // A derated link only offers its duty-cycle fraction of the
    // active time; a failed link offers none.
    avail *= topo_.linkCapacity(j);
    if (avail <= 0.0)
        return demand > 0.0
                   ? std::numeric_limits<double>::infinity()
                   : 0.0;
    return demand / avail;
}

double
UtilizationAnalyzer::spotUtilization(const PathAssignment &pa,
                                     LinkId j, std::size_t k) const
{
    double count = 0.0;
    for (std::size_t i = 0; i < bounds_.messages.size(); ++i) {
        if (!noSlack_[i] || !intervals_.active(i, k))
            continue;
        const Path &p = pa.pathFor(i);
        if (std::find(p.links.begin(), p.links.end(), j) !=
            p.links.end())
            count += 1.0;
    }
    return count;
}

UtilizationReport
UtilizationAnalyzer::analyze(const PathAssignment &pa) const
{
    return LinkLoad(*this, pa).report();
}

namespace {

/** Position of the first occurrence of link l in p (hops() if none). */
std::size_t
firstPos(const Path &p, LinkId l)
{
    return static_cast<std::size_t>(
        std::find(p.links.begin(), p.links.end(), l) - p.links.begin());
}

/**
 * First-touch key: the full scan first meets link l at message `msg`,
 * position `pos` of its path, and visits links in this key's order.
 */
std::uint64_t
touchKey(std::size_t msg, std::size_t pos)
{
    return (static_cast<std::uint64_t>(msg) << 32) |
           static_cast<std::uint64_t>(pos);
}

} // namespace

LinkLoad::LinkLoad(const UtilizationAnalyzer &ua,
                   const PathAssignment &pa)
    : ua_(ua), kk_(ua.intervals().size())
{
    row_.assign(ua_.capacity_.size(), kNoRow);
    paths_.reserve(pa.paths.size());
    std::vector<std::size_t> crossings;
    for (const Path &p : pa.paths) {
        paths_.push_back(&p);
        for (LinkId l : p.links) {
            std::uint32_t &r = row_[static_cast<std::size_t>(l)];
            if (r == kNoRow) {
                r = static_cast<std::uint32_t>(crossings.size());
                crossings.push_back(0);
            }
            ++crossings[r];
        }
    }
    msgs_.resize(crossings.size());
    for (std::size_t r = 0; r < crossings.size(); ++r)
        msgs_[r].reserve(crossings[r]);
    counts_.resize(crossings.size() * kk_);
    for (std::size_t i = 0; i < paths_.size(); ++i) {
        const bool ns = ua_.noSlack_[i];
        for (LinkId l : paths_[i]->links) {
            const std::uint32_t r = row_[static_cast<std::size_t>(l)];
            msgs_[r].push_back(i);
            for (std::size_t k : ua_.activeIv_[i]) {
                Count &c = counts_[r * kk_ + k];
                ++c.active;
                if (ns)
                    ++c.noSlack;
            }
        }
    }
    rank_.resize(crossings.size());
    for (std::size_t lj = 0; lj < row_.size(); ++lj) {
        if (row_[lj] == kNoRow)
            continue;
        Rank &r = rank_[row_[lj]];
        r = fresh(static_cast<LinkId>(lj));
        if (r.value > 0.0)
            ranked_.push_back(r);
    }
    std::sort(ranked_.begin(), ranked_.end());
}

/** Give link l, which a message now crosses, a row of its own. */
std::uint32_t
LinkLoad::addRow(LinkId l)
{
    const std::uint32_t r = static_cast<std::uint32_t>(msgs_.size());
    row_[static_cast<std::size_t>(l)] = r;
    msgs_.emplace_back();
    counts_.resize(counts_.size() + kk_);
    rank_.emplace_back();
    return r;
}

const std::vector<std::size_t> &
LinkLoad::msgsOf(LinkId l) const
{
    static const std::vector<std::size_t> kEmpty;
    const std::uint32_t r = row_[static_cast<std::size_t>(l)];
    return r == kNoRow ? kEmpty : msgs_[r];
}

PathAssignment
LinkLoad::assignment() const
{
    PathAssignment pa;
    pa.paths.reserve(paths_.size());
    for (const Path *p : paths_)
        pa.paths.push_back(*p);
    return pa;
}

/**
 * Local best of link l (Defs. 5.1/5.2) with message `msg` crossing it
 * `after` times instead of `before`; kNoMove measures the state as
 * is. The key is left for the caller.
 */
LinkLoad::Rank
LinkLoad::measure(LinkId l, std::size_t msg, int before,
                  int after) const
{
    ++measures_;
    const std::vector<Time> &dur = ua_.durations_;

    // Demand: a fresh sum in message index order, with the moved
    // message's terms spliced into their place.
    double demand = 0.0;
    bool placed = false;
    for (std::size_t m : msgsOf(l)) {
        if (m == msg)
            continue;
        if (!placed && m > msg) {
            for (int c = 0; c < after; ++c)
                demand += dur[msg];
            placed = true;
        }
        demand += dur[m];
    }
    if (!placed)
        for (int c = 0; c < after; ++c)
            demand += dur[msg];

    // Active time in interval order, and the first hottest spot.
    const int delta = after - before;
    static const std::vector<std::size_t> kNone;
    const std::vector<std::size_t> &iv =
        delta != 0 ? ua_.activeIv_[msg] : kNone;
    const int spotDelta = delta != 0 && ua_.noSlack_[msg] ? delta : 0;
    const std::uint32_t row = row_[static_cast<std::size_t>(l)];
    const Count *count =
        row == kNoRow ? nullptr : counts_.data() + row * kk_;
    double avail = 0.0;
    int hottest = 1; // only hot-spots (s > 1) compete
    std::size_t hotK = 0;
    std::size_t p = 0;
    for (std::size_t k = 0; k < kk_; ++k) {
        int a = count != nullptr ? count[k].active : 0;
        int s = count != nullptr ? count[k].noSlack : 0;
        if (p < iv.size() && iv[p] == k) {
            a += delta;
            s += spotDelta;
            ++p;
        }
        if (a > 0)
            avail += ua_.lengths_[k];
        if (s > hottest) {
            hottest = s;
            hotK = k;
        }
    }
    // A derated link only offers its duty-cycle fraction of the
    // active time; a failed link offers none.
    avail *= ua_.capacity_[static_cast<std::size_t>(l)];

    Rank r;
    r.value = avail > 0.0
                  ? demand / avail
                  : (demand > 0.0
                         ? std::numeric_limits<double>::infinity()
                         : 0.0);
    r.position = PeakPosition{false, l, 0};
    // A spot counts only as a *hot-spot*: two or more no-slack
    // messages pinned to one link in one interval (Def. 5.2's
    // U^s_jk <= 1 violated). A lone no-slack message is not
    // contention, and counting it would pin the peak at 1.0 whenever
    // tau_m == tau_c. The link ratio is scanned first, so it wins
    // ties.
    if (hottest > 1 && static_cast<double>(hottest) > r.value) {
        r.value = static_cast<double>(hottest);
        r.position = PeakPosition{true, l, hotK};
    }
    return r;
}

/**
 * First-touch key of link l once message `msg` crosses it `after`
 * times along `path`. Some message must remain on l.
 */
std::uint64_t
LinkLoad::keyOf(LinkId l, std::size_t msg, const Path &path,
                int after) const
{
    const std::vector<std::size_t> &ms = msgsOf(l);
    std::size_t other = SIZE_MAX;
    for (std::size_t m : ms) {
        if (m != msg) {
            other = m;
            break;
        }
    }
    if (after > 0 && msg < other)
        return touchKey(msg, firstPos(path, l));
    if (other == ms.front())
        return rank_[row_[static_cast<std::size_t>(l)]].key;
    return touchKey(other, firstPos(*paths_[other], l));
}

/** Rank of link l, which some message crosses, in the current state. */
LinkLoad::Rank
LinkLoad::fresh(LinkId l) const
{
    Rank r = measure(l, kNoMove, 0, 0);
    const std::size_t first = msgsOf(l).front();
    r.key = touchKey(first, firstPos(*paths_[first], l));
    return r;
}

void
LinkLoad::rerank(LinkId l)
{
    const std::uint32_t row = row_[static_cast<std::size_t>(l)];
    Rank &r = rank_[row];
    if (r.value > 0.0)
        ranked_.erase(
            std::lower_bound(ranked_.begin(), ranked_.end(), r));
    r = msgs_[row].empty() ? Rank{} : fresh(l);
    if (r.value > 0.0)
        ranked_.insert(
            std::lower_bound(ranked_.begin(), ranked_.end(), r), r);
}

UtilizationReport
LinkLoad::report() const
{
    UtilizationReport rep;
    if (!ranked_.empty()) {
        rep.peak = ranked_.front().value;
        rep.position = ranked_.front().position;
    }
    return rep;
}

UtilizationReport
LinkLoad::score(std::size_t msg, const Path &path,
                ScoreCutoff cut) const
{
    const Path &old = *paths_[msg];
    // Tag the move's links with their crossings before and after.
    if (probe_.empty())
        probe_.resize(row_.size());
    ++mark_;
    const auto tag = [&](LinkId l) -> Probe & {
        Probe &p = probe_[static_cast<std::size_t>(l)];
        if (p.mark != mark_) {
            p.mark = mark_;
            p.before = 0;
            p.after = 0;
            p.seen = false;
        }
        return p;
    };
    for (LinkId l : old.links)
        ++tag(l).before;
    for (LinkId l : path.links)
        ++tag(l).after;

    const auto reportOf = [](const Rank &r) {
        return UtilizationReport{r.value, r.position};
    };
    // The best link the move leaves alone keeps its stored rank. The
    // peak is at least that, so a rank that reaches the cut-off
    // settles the score before any link is measured.
    const Rank *best = nullptr;
    for (const Rank &r : ranked_) {
        if (probe_[static_cast<std::size_t>(r.position.link)].mark !=
            mark_) {
            best = &r;
            break;
        }
    }
    if (best != nullptr && cut.reachedBy(best->value))
        return reportOf(*best);

    // The links of the move, one at a time, until one reaches the
    // cut-off: those of the new path first, since a rejected move
    // mostly adds load to a link that is already hot.
    const bool keyed = !cut.inclusive;
    Rank touched;
    const auto consider = [&](LinkId l) {
        const std::size_t lj = static_cast<std::size_t>(l);
        Probe &p = probe_[lj];
        if (p.seen)
            return false;
        p.seen = true;
        if (p.after == 0 &&
            msgsOf(l).size() == static_cast<std::size_t>(p.before))
            return false; // the move empties the link
        Rank r;
        if (p.before == p.after) {
            r = rank_[row_[lj]];
        } else {
            if (p.memoState != state_ || p.memoMsg != msg ||
                p.memoBefore != p.before || p.memoAfter != p.after) {
                p.memo = measure(l, msg, p.before, p.after);
                p.memoState = state_;
                p.memoMsg = msg;
                p.memoBefore = p.before;
                p.memoAfter = p.after;
            }
            r = p.memo;
        }
        if (cut.reachedBy(r.value)) {
            touched = r;
            best = &touched;
            return true;
        }
        // The key only breaks ties, so a link that cannot tie or
        // beat the best so far needs none.
        if (!(r.value > 0.0) ||
            (best != nullptr && r.value < best->value))
            return false;
        if (keyed)
            r.key = keyOf(l, msg, path, p.after);
        if (best == nullptr || r < *best) {
            touched = r;
            best = &touched;
        }
        return false;
    };
    for (LinkId l : path.links)
        if (consider(l))
            return reportOf(*best);
    for (LinkId l : old.links)
        if (consider(l))
            return reportOf(*best);
    return best != nullptr ? reportOf(*best) : UtilizationReport{};
}

void
LinkLoad::apply(std::size_t msg, const Path &path)
{
    ++state_;
    const Path &old = *paths_[msg];
    paths_[msg] = &path;
    const bool ns = ua_.noSlack_[msg];
    const auto shift = [&](std::uint32_t row, int by) {
        for (std::size_t k : ua_.activeIv_[msg]) {
            Count &c = counts_[row * kk_ + k];
            c.active += by;
            if (ns)
                c.noSlack += by;
        }
    };
    for (LinkId l : old.links) {
        const std::uint32_t row = row_[static_cast<std::size_t>(l)];
        auto &ms = msgs_[row];
        ms.erase(std::lower_bound(ms.begin(), ms.end(), msg));
        shift(row, -1);
    }
    for (LinkId l : path.links) {
        std::uint32_t row = row_[static_cast<std::size_t>(l)];
        if (row == kNoRow)
            row = addRow(l);
        auto &ms = msgs_[row];
        ms.insert(std::upper_bound(ms.begin(), ms.end(), msg), msg);
        shift(row, +1);
    }
    for (LinkId l : old.links)
        rerank(l);
    for (LinkId l : path.links)
        rerank(l);
}

const std::vector<std::size_t> &
LinkLoad::messagesOn(LinkId j) const
{
    static const std::vector<std::size_t> kEmpty;
    if (j < 0 || static_cast<std::size_t>(j) >= row_.size())
        return kEmpty;
    return msgsOf(j);
}

namespace {

/**
 * Candidate minimal paths for every network message. A message with
 * no path at all (disconnected fabric) gets an empty candidate list;
 * the caller turns that into a structured failure.
 */
std::vector<std::vector<Path>>
candidatePaths(const TaskFlowGraph &g, const Topology &topo,
               const TaskAllocation &alloc, const TimeBounds &bounds,
               std::size_t maxPaths)
{
    std::vector<std::vector<Path>> out;
    out.reserve(bounds.messages.size());
    for (const MessageBounds &b : bounds.messages) {
        const Message &m = g.message(b.msg);
        const NodeId s = alloc.nodeOf(m.src);
        const NodeId d = alloc.nodeOf(m.dst);
        out.push_back(topo.minimalPaths(s, d, maxPaths));
    }
    return out;
}

/** Outcome of one improvement walk (one restart). */
struct WalkResult
{
    PathAssignment assignment;
    UtilizationReport report;
    int reroutes = 0;
    std::uint64_t evals = 0;
    std::uint64_t linkMeasures = 0;
};

/**
 * One iterative-improvement walk of Fig. 4's inner loop: start from
 * a random assignment drawn from `seed`'s own RNG stream and reroute
 * peak-crossing messages until no move reduces (or usefully
 * repositions) the peak. Deterministic given (candidates, seed).
 */
WalkResult
improveWalk(const std::vector<std::vector<Path>> &candidates,
            const UtilizationAnalyzer &ua,
            const AssignPathsOptions &opts, std::uint64_t seed)
{
    Rng rng(seed);
    PathAssignment start;
    start.paths.reserve(candidates.size());
    for (const auto &cands : candidates)
        start.paths.push_back(cands[rng.index(cands.size())]);
    // The walk's own link-load state scores each candidate move on
    // the links it touches.
    LinkLoad load(ua, start);
    UtilizationReport cur_rep = load.report();

    WalkResult w;
    // Iterative improvement: a sweep reroutes at most one message;
    // repositioning moves (same peak value, different link/spot) are
    // allowed a bounded number of times so the walk can escape
    // plateaus without oscillating forever.
    int inner = 0;
    int repositions = 0;
    const int repositionBudget =
        2 * static_cast<int>(ua.bounds().messages.size()) + 4;
    bool iflag = true;
    while (iflag && inner < opts.maxInnerIterations) {
        iflag = false;
        ++inner;

        // Reroutable = multi-hop messages crossing the peak link
        // (restricted to the peak interval for spots).
        std::vector<std::size_t> reroutable;
        for (std::size_t i : load.messagesOn(cur_rep.position.link)) {
            if (!reroutable.empty() && reroutable.back() == i)
                continue;
            if (load.path(i).hops() < 2)
                continue;
            if (cur_rep.position.isSpot &&
                !ua.intervals().active(i, cur_rep.position.interval))
                continue;
            if (candidates[i].size() < 2)
                continue;
            reroutable.push_back(i);
        }

        double best_new_peak = cur_rep.peak;
        std::size_t red_msg = SIZE_MAX, red_path = 0;
        std::size_t repos_msg = SIZE_MAX, repos_path = 0;

        for (std::size_t i : reroutable) {
            for (std::size_t c = 0; c < candidates[i].size(); ++c) {
                if (candidates[i][c] == load.path(i))
                    continue;
                // Past the first reposition candidate only a lower
                // peak counts; before it, any peak up to the current
                // one may, and then its position matters.
                const ScoreCutoff cut =
                    repos_msg != SIZE_MAX
                        ? ScoreCutoff{best_new_peak - 1e-12, true}
                        : ScoreCutoff{cur_rep.peak + 1e-12, false};
                const UtilizationReport rep =
                    load.score(i, candidates[i][c], cut);
                ++w.evals;
                if (rep.peak < best_new_peak - 1e-12) {
                    best_new_peak = rep.peak;
                    red_msg = i;
                    red_path = c;
                } else if (repos_msg == SIZE_MAX &&
                           rep.peak <= cur_rep.peak + 1e-12 &&
                           !(rep.position == cur_rep.position)) {
                    repos_msg = i;
                    repos_path = c;
                }
            }
        }

        if (red_msg != SIZE_MAX) {
            load.apply(red_msg, candidates[red_msg][red_path]);
            ++w.reroutes;
            iflag = true;
        } else if (repos_msg != SIZE_MAX &&
                   repositions < repositionBudget) {
            load.apply(repos_msg, candidates[repos_msg][repos_path]);
            ++w.reroutes;
            ++repositions;
            iflag = true;
        }
        cur_rep = load.report();
    }

    w.assignment = load.assignment();
    w.report = cur_rep;
    w.linkMeasures = load.measures();
    return w;
}

} // namespace

PathAssignment
lsdToMsdAssignment(const TaskFlowGraph &g, const Topology &topo,
                   const TaskAllocation &alloc,
                   const TimeBounds &bounds)
{
    PathAssignment pa;
    pa.paths.reserve(bounds.messages.size());
    for (const MessageBounds &b : bounds.messages) {
        const Message &m = g.message(b.msg);
        pa.paths.push_back(topo.routeLsdToMsd(alloc.nodeOf(m.src),
                                              alloc.nodeOf(m.dst)));
    }
    return pa;
}

AssignPathsResult
assignPaths(const TaskFlowGraph &g, const Topology &topo,
            const TaskAllocation &alloc, const TimeBounds &bounds,
            const IntervalSet &intervals,
            const AssignPathsOptions &opts)
{
    if (opts.maxRestarts < 0) {
        AssignPathsResult bad;
        bad.ok = false;
        bad.error = "maxRestarts must not be negative (got " +
                    std::to_string(opts.maxRestarts) + ")";
        return bad;
    }
    const auto candidates = candidatePaths(g, topo, alloc, bounds,
                                           opts.maxPathsPerMessage);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].empty()) {
            const Message &m = g.message(bounds.messages[i].msg);
            AssignPathsResult bad;
            bad.ok = false;
            bad.failedMessage = m.id;
            bad.error = "no path between node " +
                        std::to_string(alloc.nodeOf(m.src)) +
                        " and node " +
                        std::to_string(alloc.nodeOf(m.dst)) +
                        " for message '" + m.name + "'";
            return bad;
        }
    }

    // Outer loop of Fig. 4, restructured for parallelism: restart
    // walks are *independent* (walk r draws its random start from
    // the RNG stream deriveSeed(opts.seed, r)), so they run
    // concurrently on the context's pool and the result is
    // bit-identical to the serial order for every thread count. The
    // reduction is a fixed-order scan: lowest peak U wins, ties go
    // to the lowest restart index.
    const std::size_t walks =
        static_cast<std::size_t>(opts.maxRestarts) + 1;
    const UtilizationAnalyzer ua(bounds, intervals, topo);
    std::vector<WalkResult> results(walks);
    engine::resolve(opts.ctx).pool().parallelFor(
        walks, [&](std::size_t r) {
            results[r] = improveWalk(candidates, ua, opts,
                                     deriveSeed(opts.seed, r));
        });

    AssignPathsResult result;
    std::size_t best = 0;
    for (std::size_t r = 0; r < walks; ++r) {
        result.reroutes += results[r].reroutes;
        result.evals += results[r].evals;
        result.linkMeasures += results[r].linkMeasures;
        if (results[r].report.peak <
            results[best].report.peak - 1e-12)
            best = r;
    }
    result.restarts = static_cast<int>(walks) - 1;
    result.assignment = std::move(results[best].assignment);
    result.report = results[best].report;
    return result;
}

GreedyRouteResult
greedyRouteMessages(const TaskFlowGraph &g, const Topology &topo,
                    const TaskAllocation &alloc,
                    const TimeBounds &bounds,
                    const IntervalSet &intervals,
                    const std::vector<std::size_t> &indices,
                    std::size_t maxPathsPerMessage,
                    PathAssignment &pa)
{
    GreedyRouteResult out;
    UtilizationAnalyzer ua(bounds, intervals, topo);

    // Phase 1: every listed message takes its first surviving
    // minimal path, so phase 2 scores candidates against a complete
    // assignment.
    std::vector<std::vector<Path>> cands(indices.size());
    for (std::size_t j = 0; j < indices.size(); ++j) {
        const std::size_t i = indices[j];
        const Message &m = g.message(bounds.messages[i].msg);
        cands[j] = topo.minimalPaths(alloc.nodeOf(m.src),
                                     alloc.nodeOf(m.dst),
                                     maxPathsPerMessage);
        if (cands[j].empty()) {
            out.failedMessage = m.id;
            out.error = "no surviving minimal path between node " +
                        std::to_string(alloc.nodeOf(m.src)) +
                        " and node " +
                        std::to_string(alloc.nodeOf(m.dst)) +
                        " for message '" + m.name + "'";
            return out;
        }
        pa.paths[i] = cands[j].front();
    }

    // Phase 2: in list order, keep the candidate minimizing the
    // peak utilization with all other routes fixed.
    LinkLoad load(ua, pa);
    std::vector<std::size_t> chosen(indices.size(), 0);
    for (std::size_t j = 0; j < indices.size(); ++j) {
        const std::size_t i = indices[j];
        double best_peak = 0.0;
        for (std::size_t c = 0; c < cands[j].size(); ++c) {
            const ScoreCutoff cut =
                c == 0 ? ScoreCutoff{}
                       : ScoreCutoff{best_peak - 1e-12, true};
            const double peak = load.score(i, cands[j][c], cut).peak;
            if (c == 0 || peak < best_peak - 1e-12) {
                chosen[j] = c;
                best_peak = peak;
            }
        }
        load.apply(i, cands[j][chosen[j]]);
    }

    out.ok = true;
    out.report = load.report();
    // `load` refers to pa's rows; write them only after its last use.
    for (std::size_t j = 0; j < indices.size(); ++j)
        pa.paths[indices[j]] = cands[j][chosen[j]];
    return out;
}

} // namespace srsim
