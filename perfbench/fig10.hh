/**
 * @file
 * The fig10 setup shared by online_churn and daemon_durable — DVB on a
 * 4x4x4 torus, B = 128, round-robin stride 13, period 2.4 tau_c — and
 * the churn stream both feed it.
 */

#ifndef SRSIM_PERFBENCH_FIG10_HH_
#define SRSIM_PERFBENCH_FIG10_HH_

#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/schedule.hh"
#include "mapping/allocation.hh"
#include "online/requests.hh"
#include "online/service.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/topology.hh"

namespace srbench {

/** Topology spec of the fig10 fabric. */
inline constexpr const char *kFig10Topo = "torus:4,4,4";

/** The fig10 workload. */
struct Fig10
{
    srsim::TaskFlowGraph g;
    srsim::TimingModel tm;
    std::unique_ptr<srsim::Topology> topo;
    srsim::TaskAllocation alloc;
    srsim::Time period = 0.0;

    Fig10();
};

/** What a request of the stream does (also its latency class). */
enum class Kind { Admit, Readmit, Remove, Oversized, Period, Invalid };

/** Stable lowercase name of a request kind. */
const char *kindName(Kind k);

struct StreamRequest
{
    Kind kind = Kind::Admit;
    srsim::online::Request req;
    /** The verdict a correct scheduler gives. */
    bool expectAccepted = true;
};

/**
 * The churn stream: a fixed catalogue of short episodes, replayed in
 * cycles. Every episode starts and ends at the base workload, so its
 * work does not depend on what ran before it:
 *
 *  - touch:    admit A, remove A;
 *  - revisit:  admit A and remove A, four times (all but the first
 *              admit revisit earlier states: schedule-cache hits);
 *  - pair:     admit A, admit B, remove A, admit A, remove B, remove A;
 *  - invalid:  admit A, admit A again (rejected as invalid), remove A;
 *  - period:   admit A, stretch the period (a full recompile), remove
 *              A, restore the period (the base workload at either
 *              period is a cache hit);
 *  - oversized: admit a message too large for the greedy route (a
 *              full recompile), remove it.
 *
 * A and B are forward skip edges over the DVB recognition chain of
 * 64..512 bytes, drawn once from a fixed catalogue seed. The workload
 * seed permutes the episode order of every cycle, and every cycle uses
 * fresh message names, so a cycle revisits none of the previous
 * cycle's states. Every cycle therefore does the same work in a
 * seed-dependent order.
 */
class ChurnStream
{
  public:
    /** How many episodes of each kind one cycle holds. */
    struct EpisodeMix
    {
        int touch = 0, revisit = 0, pair = 0, invalid = 0, period = 0;
        /** Add the oversized episodes (a fixed pair of edges). */
        bool oversized = false;
    };

    ChurnStream(std::uint64_t seed, srsim::Time basePeriod,
                const EpisodeMix &mix, std::string namePrefix);

    StreamRequest next();

    /** Requests per cycle. */
    std::size_t cycleLength() const { return cycleLength_; }

  private:
    enum class EpisodeKind
    {
        Touch,
        Revisit,
        Pair,
        Invalid,
        Period,
        Oversized
    };

    /** One catalogue entry: a kind and the (unnamed) messages it admits. */
    struct Episode
    {
        EpisodeKind kind = EpisodeKind::Touch;
        srsim::online::AdmitSpec a, b;
    };

    void startCycle();

    Gen gen_;
    srsim::Time basePeriod_;
    std::string prefix_;
    std::vector<Episode> catalogue_;
    std::size_t cycleLength_ = 0;
    std::size_t cycles_ = 0;
    std::vector<StreamRequest> cycle_;
    std::size_t pos_ = 0;
};

} // namespace srbench

#endif // SRSIM_PERFBENCH_FIG10_HH_
