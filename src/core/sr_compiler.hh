/**
 * @file
 * The scheduled-routing compiler: the full Fig. 3 pipeline.
 *
 *   TFG + topology + allocation + period
 *     -> message time bounds (Sec. 4)
 *     -> interval decomposition + activity matrix (Sec. 5.1)
 *     -> path assignment (AssignPaths or LSD-to-MSD baseline)
 *     -> peak-utilization gate (U <= 1 necessary)
 *     -> maximal related subsets (Sec. 5.2)
 *     -> message-interval allocation (LP)
 *     -> interval scheduling (link-feasible sets, LP)
 *     -> Omega (global + per-node switching schedules)
 *     -> independent verification
 *
 * The result records the failing stage when no feasible Omega
 * exists at the requested input period, which is exactly the
 * information the paper reports per load point (utilization above
 * one, message-interval allocation failure, or unschedulable
 * interval).
 */

#ifndef SRSIM_CORE_SR_COMPILER_HH_
#define SRSIM_CORE_SR_COMPILER_HH_

#include <optional>
#include <string>

#include "core/compile_error.hh"
#include "core/interval_allocation.hh"
#include "core/interval_scheduling.hh"
#include "core/intervals.hh"
#include "core/path_assignment.hh"
#include "core/schedule.hh"
#include "core/subsets.hh"
#include "core/time_bounds.hh"
#include "core/verifier.hh"
#include "mapping/allocation.hh"
#include "solver/lp.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/topology.hh"

namespace srsim {

/** Compiler configuration. */
struct SrCompilerConfig
{
    /** Invocation period tau_in (must be >= tau_c). */
    Time inputPeriod = 0.0;
    /** Use AssignPaths; false = LSD-to-MSD routing-function paths. */
    bool useAssignPaths = true;
    AssignPathsOptions assign;
    AllocationMethod allocMethod = AllocationMethod::Lp;
    IntervalSchedulingOptions scheduling;
    /** Run the independent verifier on success. */
    bool verify = true;
    /**
     * Feedback between the Fig. 3 steps (the paper's suggested
     * extension): when message-interval allocation or interval
     * scheduling fails, retry with a re-randomized path assignment
     * up to this many extra rounds. 0 = the paper's one-way
     * pipeline; negative is invalid input.
     */
    int feedbackRounds = 0;
    /**
     * Engine context the compile runs under: supplies the tracer and
     * metrics registry for the per-stage phases, the thread pool for
     * the parallel stages, and the solver configuration for every
     * LP. Propagated into the allocation and scheduling stages
     * unless those options name their own context. nullptr uses the
     * process default context.
     */
    const engine::EngineContext *ctx = nullptr;
};

/** Everything the compiler produced (partial on failure). */
struct SrCompileResult
{
    bool feasible = false;
    SrFailureStage stage = SrFailureStage::None;
    std::string detail;
    /** Structured failure description (stage == error.stage). */
    CompileError error;

    TimeBounds bounds;
    std::optional<IntervalSet> intervals;
    PathAssignment paths;
    UtilizationReport utilization;
    int assignRestarts = 0;
    int assignReroutes = 0;
    /** Candidate paths AssignPaths scored. */
    std::uint64_t assignEvals = 0;
    /** Link measurements AssignPaths took to score them. */
    std::uint64_t assignLinkMeasures = 0;
    /** Feedback rounds actually consumed (0 = first try). */
    int feedbackRoundsUsed = 0;
    std::size_t numSubsets = 0;
    IntervalAllocation allocation;
    IntervalScheduleResult schedule;
    GlobalSchedule omega;
    VerifyResult verification;
};

/**
 * The Sec. 4.1 packet time (slot quantum) a compile under `cfg`
 * uses: the configured scheduling.packetTime when positive, else the
 * timing model's packet time when TimingModel::packetBytes is set,
 * else 0 (no packet grid).
 */
Time effectivePacketTime(const SrCompilerConfig &cfg,
                         const TimingModel &tm);

/**
 * Compile a scheduled-routing communication schedule.
 *
 * Never aborts on user input: invalid problems (incomplete
 * allocation, period below tau_c, off-grid message times, negative
 * restart or feedback counts) come back
 * as stage InvalidInput, solver breakdowns as stage Numerical, and
 * ordinary infeasibility with the stage that proved it — always
 * with a populated CompileError.
 */
SrCompileResult
compileScheduledRouting(const TaskFlowGraph &g, const Topology &topo,
                        const TaskAllocation &alloc,
                        const TimingModel &tm,
                        const SrCompilerConfig &cfg);

/**
 * Period stretch factors, tried in order on a period at which a
 * workload is infeasible: by fault repair's stretched recompiles and
 * by the online service's rejection probe.
 */
inline constexpr double kStretchFactors[] = {1.25, 1.5, 2.0, 3.0, 4.0};

/** Outcome of compileStretched(). */
struct StretchedCompile
{
    /** The period compiled at: the first feasible, else the last tried. */
    Time period = 0.0;
    SrCompileResult compile;
};

/**
 * Compile with verification at period * f for each f of
 * kStretchFactors in order (after f = 1 when `unstretchedFirst`),
 * stopping at the first feasible period.
 */
StretchedCompile
compileStretched(const TaskFlowGraph &g, const Topology &topo,
                 const TaskAllocation &alloc, const TimingModel &tm,
                 SrCompilerConfig cfg, Time period,
                 bool unstretchedFirst);

} // namespace srsim

#endif // SRSIM_CORE_SR_COMPILER_HH_
