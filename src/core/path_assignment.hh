/**
 * @file
 * Path assignment for scheduled routing (Sec. 5.1, Fig. 4).
 *
 * Each network message is assigned one of the multiple equivalent
 * minimal paths between its endpoints. A candidate assignment is
 * scored by the peak utilization
 *     U = max( max_j U'_j , max_{j,k} U^s_jk )
 * where U'_j is link utilization (total transmission demand on link
 * L_j over the total time in which at least one message is active on
 * it, Def. 5.1) and U^s_jk is spot utilization (the number of
 * no-slack messages using L_j in interval A_k, Def. 5.2). U <= 1 is
 * necessary for a feasible flow-control schedule to exist.
 *
 * AssignPaths (Fig. 4) performs iterative improvement: repeatedly
 * reroute one multi-hop message on the peak link/spot, choosing the
 * alternative path with the largest peak reduction (or, failing
 * that, one that repositions the same peak value elsewhere in the
 * link-interval space), and restart randomly to escape local minima.
 */

#ifndef SRSIM_CORE_PATH_ASSIGNMENT_HH_
#define SRSIM_CORE_PATH_ASSIGNMENT_HH_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/intervals.hh"
#include "core/time_bounds.hh"
#include "mapping/allocation.hh"
#include "tfg/tfg.hh"
#include "topology/topology.hh"

namespace srsim {

/**
 * A complete path assignment: one route per network message, indexed
 * like TimeBounds::messages.
 */
struct PathAssignment
{
    std::vector<Path> paths;

    const Path &pathFor(std::size_t msgIdx) const
    {
        return paths[msgIdx];
    }
};

/** Where the peak utilization is attained. */
struct PeakPosition
{
    bool isSpot = false;
    LinkId link = kInvalidLink;
    /** Interval index; meaningful only when isSpot. */
    std::size_t interval = 0;

    bool
    operator==(const PeakPosition &o) const
    {
        return isSpot == o.isSpot && link == o.link &&
               (!isSpot || interval == o.interval);
    }
};

/** Peak utilization and its position. */
struct UtilizationReport
{
    double peak = 0.0;
    PeakPosition position;
};

class LinkLoad;

/**
 * The peak value from which a caller discards a score: peaks
 * `>= value` when `inclusive`, else peaks `> value`. The default
 * discards nothing.
 *
 * An inclusive cut-off is for a caller that compares peak values
 * only: LinkLoad::score() then skips the first-touch keys, so among
 * tied links the position it reports is any one of them.
 */
struct ScoreCutoff
{
    double value = std::numeric_limits<double>::infinity();
    bool inclusive = false;

    bool
    reachedBy(double peak) const
    {
        return inclusive ? peak >= value : peak > value;
    }
};

/**
 * Computes link/spot utilizations of path assignments against fixed
 * time bounds and interval decomposition. Stateless after
 * construction, so one analyzer may serve concurrent walks.
 */
class UtilizationAnalyzer
{
  public:
    UtilizationAnalyzer(const TimeBounds &bounds,
                        const IntervalSet &intervals,
                        const Topology &topo);

    /** Link utilization U'_j (Def. 5.1). */
    double linkUtilization(const PathAssignment &pa, LinkId j) const;

    /** Spot utilization U^s_jk (Def. 5.2): raw no-slack count. */
    double
    spotUtilization(const PathAssignment &pa, LinkId j,
                    std::size_t k) const;

    /**
     * Peak U over all links and spots, with its position.
     *
     * Spots contribute only when they are hot-spots (two or more
     * no-slack messages on one link in one interval); a lone
     * no-slack message satisfies U^s_jk <= 1 and is not contention.
     * This matches the paper's plotted curves, which drop below 1.0
     * even at tau_m == tau_c where a no-slack message always exists.
     *
     * Equivalent to LinkLoad(*this, pa).report(), which is how it is
     * computed: the U rule lives in LinkLoad alone.
     */
    UtilizationReport analyze(const PathAssignment &pa) const;

    const TimeBounds &bounds() const { return bounds_; }
    const IntervalSet &intervals() const { return intervals_; }

  private:
    friend class LinkLoad;

    const TimeBounds &bounds_;
    const IntervalSet &intervals_;
    const Topology &topo_;

    // Precomputed per-message, per-interval and per-link data.
    std::vector<Time> durations_;
    std::vector<bool> noSlack_;
    std::vector<std::vector<std::size_t>> activeIv_;
    std::vector<double> lengths_;
    std::vector<double> capacity_;
};

/**
 * The link-load state of one path assignment, kept incrementally so
 * that a one-message move is scored on the links it touches only.
 *
 * Per link it keeps the messages routed over it (ascending index),
 * the per-interval active and no-slack counts, and its local best:
 * the link utilization, or the first hot-spot (s > 1) that beats it.
 * Links are ranked by local best, ties to the smallest first-touch
 * key (first message on the link, position of the link in that
 * message's path). That ranking reproduces analyze()'s strict-`>`
 * scan bit for bit, which visits links in first-touch order:
 *
 *   - a link's demand is always a fresh sum over its messages in
 *     index order and its active time a sum in interval order, never
 *     a running `+=`/`-=` delta, so the doubles match a full pass;
 *   - equal peaks resolve to the smallest first-touch key, which is
 *     the position the full scan reports.
 *
 * Not thread-safe, score() included (it memoizes link measurements);
 * each walk owns its own LinkLoad.
 */
class LinkLoad
{
  public:
    /**
     * The state of `pa`. It refers to pa's paths and to every path
     * later passed to apply(); those must outlive the LinkLoad.
     */
    LinkLoad(const UtilizationAnalyzer &ua, const PathAssignment &pa);

    /** Peak utilization of the current assignment. */
    UtilizationReport report() const;

    /**
     * Peak utilization the assignment would have with message `msg`
     * on `path` instead; the state is left unchanged. Equal to
     * analyze() of the moved assignment, except that once some link
     * reaches the cut-off, score() returns that link's value: the
     * full peak, their maximum, reaches it too.
     */
    UtilizationReport score(std::size_t msg, const Path &path,
                            ScoreCutoff cut = {}) const;

    /** Move message `msg` onto `path`. */
    void apply(std::size_t msg, const Path &path);

    /** The current route of message `msg`. */
    const Path &path(std::size_t msg) const { return *paths_[msg]; }

    /** A copy of the current assignment. */
    PathAssignment assignment() const;

    /**
     * Message indices routed over link j, ascending; a message whose
     * path crosses j twice appears twice. Empty for kInvalidLink.
     */
    const std::vector<std::size_t> &messagesOn(LinkId j) const;

    /** Link measurements taken so far, memo hits excluded. */
    std::uint64_t measures() const { return measures_; }

  private:
    /** A link's local best and first-touch key. */
    struct Rank
    {
        double value = 0.0;
        std::uint64_t key = 0;
        PeakPosition position;

        /** Ranks earlier in the full scan's verdict order. */
        bool
        operator<(const Rank &o) const
        {
            return value > o.value ||
                   (value == o.value && key < o.key);
        }
    };

    /** Marks "no message moves" for measure(). */
    static constexpr std::size_t kNoMove = SIZE_MAX;

    /**
     * Per-link working state of score(). `mark` tags the links of
     * the move being scored, with their crossings before and after
     * it. `memo` keeps the link's measure() under one move until the
     * next apply(): a message's candidate paths overlap heavily, so
     * most of a link's measurements repeat.
     */
    struct Probe
    {
        std::uint64_t mark = 0;
        int before = 0;
        int after = 0;
        bool seen = false;
        std::uint64_t memoState = 0;
        std::size_t memoMsg = kNoMove;
        int memoBefore = 0;
        int memoAfter = 0;
        Rank memo;
    };

    /** Messages on a link in an interval: all, and no-slack ones. */
    struct Count
    {
        int active = 0;
        int noSlack = 0;
    };

    /** row_ entry of a link no message has crossed yet. */
    static constexpr std::uint32_t kNoRow = UINT32_MAX;

    std::uint32_t addRow(LinkId l);
    const std::vector<std::size_t> &msgsOf(LinkId l) const;
    Rank measure(LinkId l, std::size_t msg, int before,
                 int after) const;
    Rank fresh(LinkId l) const;
    std::uint64_t keyOf(LinkId l, std::size_t msg, const Path &path,
                        int after) const;
    void rerank(LinkId l);

    const UtilizationAnalyzer &ua_;
    std::vector<const Path *> paths_;
    std::size_t kk_ = 0;
    /**
     * Per link, its row in the tables below. Only links some message
     * has crossed get a row, so building the state costs what the
     * assignment uses, not links x intervals.
     */
    std::vector<std::uint32_t> row_;
    /** Per row: the messages routed over the link, ascending. */
    std::vector<std::vector<std::size_t>> msgs_;
    /** Per row and interval, row-major. */
    std::vector<Count> counts_;
    /** Per row: the link's rank. */
    std::vector<Rank> rank_;
    /** Links with a positive local best, sorted best first. */
    std::vector<Rank> ranked_;
    /** Bumped by apply(); tags the memos still valid. */
    std::uint64_t state_ = 1;
    /** Bumped by score(); tags the links of the move it scores. */
    mutable std::uint64_t mark_ = 0;
    mutable std::vector<Probe> probe_;
    mutable std::uint64_t measures_ = 0;
};

namespace engine {
class EngineContext;
}

/** Knobs of the AssignPaths heuristic. */
struct AssignPathsOptions
{
    /** Cap on enumerated minimal paths per message (0 = all). */
    std::size_t maxPathsPerMessage = 256;
    /**
     * Random restarts beyond the first walk. The maxRestarts + 1
     * improvement walks are independent (walk r seeds its RNG from
     * deriveSeed(seed, r)) and run concurrently on the context's
     * ThreadPool; the best result (lowest peak U, ties to the
     * lowest restart index) wins, so the outcome is identical for
     * every thread count including the serial pool. Must not be
     * negative.
     */
    int maxRestarts = 12;
    /** Safety bound on reroutes within one improvement sweep. */
    int maxInnerIterations = 2000;
    std::uint64_t seed = 12345;
    /**
     * Engine context supplying the thread pool the restart walks
     * run on. nullptr uses the process default context. The walk
     * outcome is thread-count independent, so the choice of pool
     * never changes the assignment.
     */
    const engine::EngineContext *ctx = nullptr;
};

/** Outcome of assignPaths(). */
struct AssignPathsResult
{
    PathAssignment assignment;
    UtilizationReport report;
    int restarts = 0;
    int reroutes = 0;
    /** Candidate paths scored, summed over every walk. */
    std::uint64_t evals = 0;
    /** Link measurements (LinkLoad::measures()), summed likewise. */
    std::uint64_t linkMeasures = 0;
    /**
     * False when no candidate path exists for some message (e.g. a
     * disconnected fabric) or maxRestarts is negative; the
     * assignment is then unusable and `error` / `failedMessage`
     * describe the offender.
     */
    bool ok = true;
    MessageId failedMessage = kInvalidMessage;
    std::string error;
};

/** Outcome of greedyRouteMessages(). */
struct GreedyRouteResult
{
    /** False when some message has no surviving minimal path. */
    bool ok = false;
    MessageId failedMessage = kInvalidMessage;
    std::string error;
    /** Peak utilization of the final assignment. */
    UtilizationReport report;
};

/**
 * Route the given message indices greedily without a full compile:
 * every listed message first takes its first minimal path, then (in
 * list order) keeps the candidate minimizing the peak utilization
 * with all other routes fixed. All other rows of `pa` are left
 * untouched, so this is the single-message (and few-message) routing
 * entry point used by degraded-mode repair and by online admission.
 *
 * `pa` must be sized like bounds.messages; rows of the listed
 * indices may hold anything (they are overwritten).
 */
GreedyRouteResult
greedyRouteMessages(const TaskFlowGraph &g, const Topology &topo,
                    const TaskAllocation &alloc,
                    const TimeBounds &bounds,
                    const IntervalSet &intervals,
                    const std::vector<std::size_t> &indices,
                    std::size_t maxPathsPerMessage,
                    PathAssignment &pa);

/**
 * The deterministic-routing baseline: every message takes its
 * LSD-to-MSD path.
 */
PathAssignment
lsdToMsdAssignment(const TaskFlowGraph &g, const Topology &topo,
                   const TaskAllocation &alloc,
                   const TimeBounds &bounds);

/** Run the AssignPaths heuristic of Fig. 4. */
AssignPathsResult
assignPaths(const TaskFlowGraph &g, const Topology &topo,
            const TaskAllocation &alloc, const TimeBounds &bounds,
            const IntervalSet &intervals,
            const AssignPathsOptions &opts = {});

} // namespace srsim

#endif // SRSIM_CORE_PATH_ASSIGNMENT_HH_
