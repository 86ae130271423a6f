/**
 * @file
 * Request and result types of the online scheduling service.
 *
 * The service owns a compiled schedule and absorbs a stream of
 * workload-churn requests. Each request either publishes a new
 * verifier-certified schedule atomically or is rejected with a
 * structured reason — the caller always learns *why* (no route,
 * utilization ceiling, infeasible subset, period stretch required)
 * rather than just "no".
 */

#ifndef SRSIM_ONLINE_REQUESTS_HH_
#define SRSIM_ONLINE_REQUESTS_HH_

#include <cstddef>
#include <string>
#include <vector>

#include "util/time.hh"

namespace srsim {
namespace online {

/** One new message to admit into the running workload. */
struct AdmitSpec
{
    /** Message name; must be unique in the workload. */
    std::string name;
    /** Source task name (must exist; tasks are fixed online). */
    std::string src;
    /** Destination task name. */
    std::string dst;
    /** Payload size in bytes (> 0). */
    double bytes = 0.0;

    bool operator==(const AdmitSpec &) const = default;
};

/** What a request asks the service to do. */
enum class RequestKind
{
    /** Admit admits[] (one message, or a coalesced batch). */
    AdmitMessage,
    /** Remove the message named `name`. */
    RemoveMessage,
    /** Re-place the workload at input period `period`. */
    UpdatePeriod,
    /** Degrade the fabric per `faultSpec` and repair. */
    InjectFault,
};

/** @return human-readable request kind name. */
const char *requestKindName(RequestKind k);

/** One request of the online stream. */
struct Request
{
    RequestKind kind = RequestKind::AdmitMessage;
    /** AdmitMessage: the message(s); >1 entry = coalesced batch. */
    std::vector<AdmitSpec> admits;
    /** RemoveMessage: the message name. */
    std::string name;
    /** UpdatePeriod: the new input period (us). */
    Time period = 0.0;
    /** InjectFault: static fault spec (src/fault grammar). */
    std::string faultSpec;

    bool operator==(const Request &) const = default;
};

/** Why a request was rejected (None when accepted). */
enum class RejectReason
{
    None,
    /** Malformed request: unknown task, duplicate name, ... */
    InvalidRequest,
    /** No surviving minimal path between the endpoints. */
    NoRoute,
    /** Peak utilization above 1 at the current period. */
    UtilizationCeiling,
    /** A maximal related subset has no feasible allocation or
        interval schedule at the current period. */
    InfeasibleSubset,
    /** Infeasible now, but feasible at a stretched period (see
        RequestResult::requiredPeriod). */
    PeriodStretchRequired,
    /** Re-verification rejected the candidate schedule. */
    VerificationFailed,
};

/** @return human-readable reject reason name. */
const char *rejectReasonName(RejectReason r);

/** Outcome of one request. */
struct RequestResult
{
    bool accepted = false;
    RejectReason reason = RejectReason::None;
    /** Human-readable explanation (rejections and fault repairs). */
    std::string detail;

    /** Subset bookkeeping of the re-solve behind this request. */
    std::size_t subsetsTotal = 0;
    std::size_t subsetsResolved = 0;
    std::size_t subsetsCopied = 0;

    /** How the result was produced. */
    bool usedCache = false;
    bool usedIncremental = false;
    bool usedFullCompile = false;

    /** Wall-clock service latency of this request (ms). */
    double latencyMs = 0.0;

    /** Published input period after the request (us). */
    Time period = 0.0;
    /** Peak utilization of the published schedule. */
    double peakUtilization = 0.0;
    /**
     * For PeriodStretchRequired: the smallest probed period at
     * which the workload is feasible (0 when unknown).
     */
    Time requiredPeriod = 0.0;
};

} // namespace online
} // namespace srsim

#endif // SRSIM_ONLINE_REQUESTS_HH_
