/**
 * @file
 * Shared pieces of the srsim benchmark binary: options, the seeded
 * input generator, wall clocks, percentile helpers, the in-memory
 * span log of the traced run, and the report every workload fills.
 *
 * The benchmark measures srsim from outside: it times calls into the
 * public functions of each layer and reads the counters the program
 * already records through the workload's own child EngineContext
 * registry. Nothing here reaches a process-global registry, tracer or
 * solver counter block.
 */

#ifndef SRSIM_PERFBENCH_BENCH_HH_
#define SRSIM_PERFBENCH_BENCH_HH_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/schedule.hh"
#include "core/time_bounds.hh"
#include "engine/context.hh"
#include "mapping/allocation.hh"
#include "metrics/metrics.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/topology.hh"

namespace srbench {

/** Threads each workload's child context may use (see NOTES.md). */
constexpr std::size_t kThreadBudget = 2;

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Working directory inside the checkout (daemon state, traces). */
    std::string workDir = ".bench_build/run";
};

/** splitmix64: a tiny, portable, seeded input generator. */
class Gen
{
  public:
    explicit Gen(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, n). */
    std::size_t
    below(std::size_t n)
    {
        return static_cast<std::size_t>(next() % n);
    }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t s_;
};

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Linear-interpolated percentile, p in [0, 100]; 0 when empty. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** A child context with the benchmark's fixed private thread budget. */
std::shared_ptr<srsim::engine::EngineContext>
makeWorkloadContext(const std::string &name, std::size_t threads);

/** Current value of a counter in `reg` (0 when never bumped). */
std::uint64_t counter(srsim::metrics::Registry &reg,
                      const std::string &name);

/**
 * In-memory span log of the traced run. Spans carry a name (whose
 * first two dot-separated parts name the layer, e.g. "core.assign_paths"),
 * start and end, a parent and a request id; they are kept in memory and
 * written out once the run ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        /** Index of the enclosing span; -1 for a root. */
        long parent = -1;
        std::uint64_t request = 0;
    };

    /** RAII span; a no-op when the log is disabled. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, std::uint64_t request);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        long index_ = -1;
    };

    bool enabled = false;

    /** Self time (span minus its direct children) per name, in ms. */
    std::map<std::string, double> selfMs() const;
    /** Summed duration of root spans, in ms. */
    double rootMs() const;

    /** Write every span as one JSON document. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<long> stack_;
};

/** Everything one run reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed correctness check. */
    std::vector<std::string> errors;
    /** (name, value, unit) in report order. */
    std::vector<std::tuple<std::string, double, std::string>> metrics;
    /** Counters that must repeat exactly per workload and seed. */
    std::vector<std::pair<std::string, std::uint64_t>> fingerprint;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.emplace_back(name, value, unit);
    }

    /** Record a failed operation with its reason. */
    void
    fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(why);
    }
};

/** writeSchedule bytes of `omega`. */
std::string scheduleBytes(const srsim::GlobalSchedule &omega);

/**
 * Run `omega` in the cycle-precise simulator (30 invocations, 5 warm-up)
 * and check it: zero violations and constant output intervals. Returns
 * an empty string when it runs clean, otherwise what went wrong.
 */
std::string cpsimCheck(const srsim::TaskFlowGraph &g,
                       const srsim::Topology &topo,
                       const srsim::TaskAllocation &alloc,
                       const srsim::TimingModel &tm,
                       const srsim::TimeBounds &bounds,
                       const srsim::GlobalSchedule &omega,
                       const srsim::engine::EngineContext *ctx);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

Report runFigSweep(const Options &opt);
Report runOnlineChurn(const Options &opt);
Report runDaemonDurable(const Options &opt);

} // namespace srbench

#endif // SRSIM_PERFBENCH_BENCH_HH_
