/**
 * @file
 * Differential churn runner: replay a case's admit/remove/fault
 * sequence on the online scheduling service against a from-scratch
 * oracle.
 *
 * The online service promises two things the batch compiler does
 * not: (1) any published schedule is verifier-certified, and (2) a
 * rejection means the workload is infeasible *from scratch* — the
 * incremental path always falls back to a full compile before
 * saying no. Both promises are checkable, so both are fuzzed:
 *
 *  - every accepted request's published schedule is re-verified by
 *    the independent static verifier;
 *  - every admit/remove rejection (other than request validation)
 *    is replayed against a from-scratch compile of the same
 *    workload on an identically degraded fabric at the service's
 *    current period — if the oracle compiles, the service wrongly
 *    turned away a feasible admission;
 *  - a fault op's repair may shed messages (the mirror then resyncs
 *    from the published workload) or fail; either way the published
 *    schedule must still certify on the service's fabric;
 *  - the final published schedule is cross-executed by the CP-level
 *    discrete-event simulator and the analytic executor, which must
 *    agree on every invocation completion time.
 */

#ifndef SRSIM_FUZZ_CHURN_HH_
#define SRSIM_FUZZ_CHURN_HH_

#include "fuzz/differential.hh"
#include "fuzz/fuzz_case.hh"

namespace srsim {
namespace fuzz {

/**
 * Replay `c.churnOps` through an OnlineScheduler and cross-check
 * accept/reject verdicts and published schedules against the
 * from-scratch compiler. Never throws. Cases without churn ops
 * degrade to checking start() against the oracle.
 */
RunResult runChurnCase(const FuzzCase &c, const RunOptions &opts = {});

} // namespace fuzz
} // namespace srsim

#endif // SRSIM_FUZZ_CHURN_HH_
