#include "bench.hh"

#include <fstream>
#include <sstream>

#include "core/schedule_io.hh"
#include "cpsim/cp_simulator.hh"

namespace srbench {

namespace {

double
nowUs()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin)
        .count();
}

} // namespace

std::shared_ptr<srsim::engine::EngineContext>
makeWorkloadContext(const std::string &name, std::size_t threads)
{
    // Pin the solver stack and thread budget explicitly so the
    // SRSIM_SOLVER / SRSIM_THREADS environment cannot move a run.
    srsim::engine::ChildOptions co;
    co.name = name;
    co.solverKind = srsim::lp::SolverKind::Sparse;
    co.warmStart = true;
    co.threads = threads;
    return srsim::engine::EngineContext::processDefault().createChild(
        co);
}

std::string
scheduleBytes(const srsim::GlobalSchedule &omega)
{
    std::ostringstream os;
    srsim::writeSchedule(os, omega);
    return os.str();
}

std::string
cpsimCheck(const srsim::TaskFlowGraph &g, const srsim::Topology &topo,
           const srsim::TaskAllocation &alloc, const srsim::TimingModel &tm,
           const srsim::TimeBounds &bounds,
           const srsim::GlobalSchedule &omega,
           const srsim::engine::EngineContext *ctx)
{
    srsim::CpSimConfig cfg;
    cfg.invocations = 30;
    cfg.warmup = 5;
    cfg.ctx = ctx;
    const srsim::CpSimResult r =
        srsim::simulateCps(g, topo, alloc, tm, bounds, omega, cfg);
    if (!r.ok() || r.totalViolations != 0)
        return "cpsim reported " + std::to_string(r.totalViolations) +
               " violations";
    if (!r.outputIntervals(cfg.warmup).constant())
        return "cpsim output intervals are not constant";
    return "";
}

std::uint64_t
counter(srsim::metrics::Registry &reg, const std::string &name)
{
    return reg.counter(name).value();
}

SpanLog::Scope::Scope(SpanLog &log, const char *name,
                      std::uint64_t request)
    : log_(log)
{
    if (!log_.enabled)
        return;
    Span s;
    s.name = name;
    s.request = request;
    s.parent = log_.stack_.empty() ? -1 : log_.stack_.back();
    index_ = static_cast<long>(log_.spans_.size());
    log_.spans_.push_back(std::move(s));
    log_.stack_.push_back(index_);
    log_.spans_[static_cast<std::size_t>(index_)].startUs = nowUs();
}

SpanLog::Scope::~Scope()
{
    if (index_ < 0)
        return;
    log_.spans_[static_cast<std::size_t>(index_)].endUs = nowUs();
    log_.stack_.pop_back();
}

std::map<std::string, double>
SpanLog::selfMs() const
{
    std::vector<double> childUs(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childUs[static_cast<std::size_t>(s.parent)] +=
                s.endUs - s.startUs;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] +=
            (spans_[i].endUs - spans_[i].startUs - childUs[i]) / 1000.0;
    return out;
}

double
SpanLog::rootMs() const
{
    double us = 0.0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            us += s.endUs - s.startUs;
    return us / 1000.0;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
           << s.name << "\", \"parent\": " << s.parent
           << ", \"request\": " << s.request
           << ", \"start_us\": " << s.startUs
           << ", \"end_us\": " << s.endUs << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace srbench
