#include "core/interval_allocation.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "engine/context.hh"
#include "solver/lp.hh"
#include "solver/revised.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace srsim {

namespace {

/**
 * Guard-reserved capacity of (link, interval) for one subset,
 * scaled by the link's surviving duty-cycle fraction when the
 * topology is degraded.
 */
Time
guardedCapacity(const IntervalSet &ivs, const PathAssignment &pa,
                const MessageSubset &sub, LinkId l, std::size_t k,
                Time guard, const Topology *topo)
{
    const double cap = topo ? topo->linkCapacity(l) : 1.0;
    const Time len = ivs.interval(k).length() * cap;
    if (guard <= 0.0)
        return len;
    int active = 0;
    for (std::size_t h : sub.members) {
        const auto &links = pa.pathFor(h).links;
        if (std::find(links.begin(), links.end(), l) ==
            links.end())
            continue;
        // activeIntervals is sorted; linear scan is fine here.
        for (std::size_t ak : ivs.activeIntervals(h))
            if (ak == k) {
                ++active;
                break;
            }
    }
    return std::max(0.0, len - guard * active);
}

/**
 * Most of interval k one message may take: its length less the
 * message's own guard, floored to whole packets on a packet grid
 * (`packet` > 0) so that rounding a feasible row to packets never
 * needs a packet the interval cannot hold.
 */
Time
cellCapacity(const IntervalSet &ivs, std::size_t k, Time guard,
             Time packet)
{
    const Time room = std::max(0.0, ivs.interval(k).length() - guard);
    if (packet <= 0.0)
        return room;
    return packet * std::floor(room / packet + 1e-9);
}

/**
 * LP allocation of one maximal subset. Returns false on
 * infeasibility (Z > 1 or LP failure); `status` and `error` then
 * say which of the two it was.
 */
bool
allocateSubsetLp(const TimeBounds &bounds, const IntervalSet &ivs,
                 const PathAssignment &pa, const MessageSubset &sub,
                 Time guard, Time packet, const Topology *topo,
                 lp::BasisCache *basisCache,
                 const engine::EngineContext &ectx, Matrix<Time> &P,
                 double &peakLoad, lp::Status &status,
                 std::string &error)
{
    lp::Problem prob;

    // Variables: X_{hj} for every member h active in interval j,
    // plus the peak-load fraction Z (minimized).
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> var;
    for (std::size_t h : sub.members) {
        for (std::size_t k : ivs.activeIntervals(h)) {
            var[{h, k}] = prob.addVariable(
                0.0, "X_" + std::to_string(h) + "_" +
                         std::to_string(k));
        }
    }
    const std::size_t z = prob.addVariable(1.0, "Z");

    // (3) total allocation equals the message duration.
    for (std::size_t h : sub.members) {
        lp::Constraint c;
        for (std::size_t k : ivs.activeIntervals(h))
            c.terms.emplace_back(var.at({h, k}), 1.0);
        c.rel = lp::Relation::Equal;
        c.rhs = bounds.messages[h].duration;
        prob.addConstraint(std::move(c));

        // A message cannot transmit longer than an interval lasts
        // (minus its own slot's guard), in whole packets on a grid.
        for (std::size_t k : ivs.activeIntervals(h)) {
            prob.addConstraint({{var.at({h, k}), 1.0}},
                               lp::Relation::LessEq,
                               cellCapacity(ivs, k, guard, packet));
        }
    }

    // (4) per-(link, interval) capacity, tightened by Z:
    //     sum_h X_hj - |A_j| * Z <= 0.
    for (LinkId l : sub.links) {
        for (std::size_t k : sub.intervals) {
            lp::Constraint c;
            for (std::size_t h : sub.members) {
                const auto &links = pa.pathFor(h).links;
                if (std::find(links.begin(), links.end(), l) ==
                    links.end())
                    continue;
                auto it = var.find({h, k});
                if (it != var.end())
                    c.terms.emplace_back(it->second, 1.0);
            }
            if (c.terms.empty())
                continue;
            c.terms.emplace_back(
                z, -guardedCapacity(ivs, pa, sub, l, k, guard,
                                    topo));
            c.rel = lp::Relation::LessEq;
            c.rhs = 0.0;
            prob.addConstraint(std::move(c));
        }
    }

    // Warm-start from the last optimal basis of this subset's LP.
    // The key folds in the structure signature, so the cache keeps
    // one basis per structural variant of the subset (admission /
    // removal churn alternates between them).
    lp::SolveOptions sopts = ectx.solveOptions();
    lp::Basis warm;
    std::string cacheKey;
    std::uint64_t sig = 0;
    if (basisCache != nullptr) {
        sig = lp::structureSignature(prob);
        std::ostringstream key;
        key << "a";
        for (std::size_t h : sub.members)
            key << ":" << h;
        key << "#" << sig;
        cacheKey = key.str();
        if (basisCache->lookup(cacheKey, sig, warm))
            sopts.warmStart = &warm;
    }

    const lp::Solution sol = lp::solve(prob, sopts);
    if (basisCache != nullptr && sol.feasible() &&
        !sol.basis.empty())
        basisCache->store(cacheKey, sig, sol.basis);
    if (!sol.feasible()) {
        status = sol.status;
        error = std::string("subset LP ") + lp::statusName(status);
        return false;
    }
    const double zval = sol.values[z];
    peakLoad = std::max(peakLoad, zval);
    if (zval > 1.0 + 1e-6) {
        std::ostringstream oss;
        oss << "peak load Z = " << zval << " exceeds capacity";
        error = oss.str();
        return false;
    }

    for (const auto &[key, v] : var) {
        const auto &[h, k] = key;
        P.at(h, k) = std::max(0.0, sol.values[v]);
    }
    return true;
}

/**
 * Greedy first-fit allocation of one subset (solver ablation):
 * messages in decreasing-duration order fill their active intervals
 * earliest-first, respecting per-(link, interval) residual capacity.
 */
bool
allocateSubsetGreedy(const TimeBounds &bounds, const IntervalSet &ivs,
                     const PathAssignment &pa,
                     const MessageSubset &sub, Time guard,
                     Time packet, const Topology *topo,
                     Matrix<Time> &P, double &peakLoad,
                     std::string &error)
{
    // Residual capacity per (link, interval), guard-reserved.
    std::map<std::pair<LinkId, std::size_t>, Time> residual;
    for (LinkId l : sub.links)
        for (std::size_t k : sub.intervals)
            residual[{l, k}] =
                guardedCapacity(ivs, pa, sub, l, k, guard, topo);

    std::vector<std::size_t> order = sub.members;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return bounds.messages[a].duration >
                         bounds.messages[b].duration;
              });

    for (std::size_t h : order) {
        Time remaining = bounds.messages[h].duration;
        const auto &links = pa.pathFor(h).links;
        for (std::size_t k : ivs.activeIntervals(h)) {
            if (timeLe(remaining, 0.0))
                break;
            Time room = cellCapacity(ivs, k, guard, packet);
            for (LinkId l : links)
                room = std::min(room, residual.at({l, k}));
            const Time take = std::min(room, remaining);
            if (timeLe(take, 0.0))
                continue;
            P.at(h, k) += take;
            for (LinkId l : links)
                residual.at({l, k}) -= take;
            remaining -= take;
        }
        if (timeGt(remaining, 0.0)) {
            std::ostringstream oss;
            oss << "greedy allocation left message " << h
                << " short by " << remaining << " us";
            error = oss.str();
            return false;
        }
    }

    for (LinkId l : sub.links) {
        for (std::size_t k : sub.intervals) {
            const Time len = ivs.interval(k).length();
            if (len > 0.0) {
                peakLoad = std::max(
                    peakLoad, (len - residual.at({l, k})) / len);
            }
        }
    }
    return true;
}

/**
 * Round one message's per-interval allocations to whole packets,
 * preserving the row total (which is a packet multiple whenever
 * the message's transmission time is). Largest-remainder method;
 * extra packets go to the intervals with the most room. @return
 * the packets it could not place (0 whenever every cell was
 * bounded by cellCapacity()).
 */
long
quantizeRow(Matrix<Time> &P, std::size_t h, const IntervalSet &ivs,
            const std::vector<std::size_t> &active, Time packet,
            Time guard)
{
    Time total = 0.0;
    for (std::size_t k : active)
        total += P.at(h, k);
    const long packets_total =
        std::lround(total / packet);

    struct Cell
    {
        std::size_t k;
        long floor_packets;
        double remainder;
        double cap_packets;
    };
    std::vector<Cell> cells;
    long assigned = 0;
    for (std::size_t k : active) {
        const double q = P.at(h, k) / packet;
        Cell c;
        c.k = k;
        c.floor_packets = static_cast<long>(std::floor(q + 1e-9));
        c.remainder = q - static_cast<double>(c.floor_packets);
        c.cap_packets = std::floor(
            std::max(0.0, ivs.interval(k).length() - guard) /
                packet +
            1e-9);
        cells.push_back(c);
        assigned += c.floor_packets;
    }
    long leftover = packets_total - assigned;
    std::sort(cells.begin(), cells.end(),
              [](const Cell &a, const Cell &b) {
                  return a.remainder > b.remainder;
              });
    for (Cell &c : cells) {
        while (leftover > 0 &&
               static_cast<double>(c.floor_packets) <
                   c.cap_packets) {
            ++c.floor_packets;
            --leftover;
            break; // one extra packet per cell per pass
        }
    }
    // Any stubborn leftovers: second pass ignoring the one-per-cell
    // rule (still capped by the interval length).
    for (Cell &c : cells) {
        while (leftover > 0 &&
               static_cast<double>(c.floor_packets) <
                   c.cap_packets) {
            ++c.floor_packets;
            --leftover;
        }
    }
    for (const Cell &c : cells)
        P.at(h, c.k) = static_cast<double>(c.floor_packets) *
                       packet;
    // A leftover the row cannot place would leave the message short
    // of its duration; the caller fails the subset on it.
    return leftover;
}

} // namespace

namespace {

/** Outcome of one subset's (independent) allocation. */
struct SubsetAllocResult
{
    bool ok = false;
    double peakLoad = 0.0;
    lp::Status status = lp::Status::Optimal;
    std::string error;
    /** Cells (message row, interval, value) this subset wrote. */
    std::vector<std::tuple<std::size_t, std::size_t, Time>> cells;
};

} // namespace

IntervalAllocation
allocateMessageIntervals(const TimeBounds &bounds,
                         const IntervalSet &intervals,
                         const PathAssignment &pa,
                         const std::vector<MessageSubset> &subsets,
                         AllocationMethod method, Time guardTime,
                         Time packetTime, const Topology *topo,
                         lp::BasisCache *basisCache,
                         const engine::EngineContext *ctx)
{
    const engine::EngineContext &ectx = engine::resolve(ctx);
    IntervalAllocation out;
    out.allocation =
        Matrix<Time>(bounds.messages.size(), intervals.size(), 0.0);

    // Maximal subsets share no (link, interval) pair and partition
    // the messages, so their allocation problems are independent:
    // solve them concurrently, each into a private matrix, and merge
    // in subset order. The ordered merge stops at the lowest failed
    // subset, reproducing the serial early-exit byte for byte
    // (including a failed greedy subset's partial rows).
    std::vector<SubsetAllocResult> results(subsets.size());
    ectx.pool().parallelFor(
        subsets.size(), [&](std::size_t s) {
            SubsetAllocResult &r = results[s];
            Matrix<Time> local(bounds.messages.size(),
                               intervals.size(), 0.0);
            r.ok =
                method == AllocationMethod::Lp
                    ? allocateSubsetLp(bounds, intervals, pa,
                                       subsets[s], guardTime,
                                       packetTime, topo, basisCache,
                                       ectx, local, r.peakLoad,
                                       r.status, r.error)
                    : allocateSubsetGreedy(bounds, intervals, pa,
                                           subsets[s], guardTime,
                                           packetTime, topo, local,
                                           r.peakLoad, r.error);
            if (r.ok && packetTime > 0.0) {
                for (std::size_t h : subsets[s].members) {
                    const long left = quantizeRow(
                        local, h, intervals,
                        intervals.activeIntervals(h), packetTime,
                        guardTime);
                    if (left > 0 && r.ok) {
                        r.ok = false;
                        r.error = "message " + std::to_string(h) +
                                  " leaves " + std::to_string(left) +
                                  " packet(s) no interval can hold";
                    }
                }
            }
            for (std::size_t h : subsets[s].members)
                for (std::size_t k :
                     intervals.activeIntervals(h))
                    if (local.at(h, k) != 0.0)
                        r.cells.emplace_back(h, k,
                                             local.at(h, k));
        });

    for (std::size_t s = 0; s < subsets.size(); ++s) {
        out.peakLoad = std::max(out.peakLoad, results[s].peakLoad);
        for (const auto &[h, k, v] : results[s].cells)
            out.allocation.at(h, k) = v;
        if (!results[s].ok) {
            out.feasible = false;
            out.failedSubset = static_cast<int>(s);
            out.solveStatus = results[s].status;
            out.error = results[s].error;
            return out;
        }
    }
    out.feasible = true;
    return out;
}

} // namespace srsim
