/**
 * @file
 * The engine context: one explicit bundle of the cross-cutting
 * services every compile/simulate/serve path needs — metrics
 * registry, trace sink, thread pool, solver configuration, and seed
 * policy.
 *
 * Before this existed, each of those was a process-global reached
 * ambiently from ~15 files (`Registry::global()`,
 * `Tracer::instance()`, `setDefaultSolver()`, SRSIM_THREADS read
 * inside the pool), so concurrent daemon sessions could not be
 * observed, configured, or resource-budgeted independently. The
 * context inverts that: callers receive their services through an
 * `EngineContext` threaded down the call stack, and the daemon gives
 * each session a *child* context whose registry writes through to
 * the parent (aggregates stay exact) while exposing only that
 * session's activity.
 *
 * Ownership rules (DESIGN.md §14):
 *
 *  - the *process-default* context (processDefault()) owns nothing:
 *    it resolves to the process-wide registry / tracer / pool, so
 *    code that predates the refactor — and tests that pin those
 *    globals — behaves unchanged;
 *  - a *child* context always owns its registry (parented for
 *    write-through), shares its parent's tracer, and shares the
 *    parent's pool unless given a private thread budget;
 *  - a parent context must outlive its children.
 *
 * Environment policy: SRSIM_SOLVER / SRSIM_THREADS are parsed ONCE —
 * here (first processDefault() touch) or at the CLI entry layer via
 * configureProcess() — never per-solve. A mid-run environment change
 * is invisible by design (pinned by tests/test_engine_context.cc).
 */

#ifndef SRSIM_ENGINE_CONTEXT_HH_
#define SRSIM_ENGINE_CONTEXT_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "solver/lp.hh"

namespace srsim {

class ThreadPool;

namespace metrics {
class Registry;
} // namespace metrics

namespace trace {
class Tracer;
} // namespace trace

namespace engine {

/** Solver policy carried by a context. */
struct SolverConfig
{
    /** Solver stack for every lp::solve issued under this context. */
    lp::SolverKind kind = lp::SolverKind::Sparse;
    /**
     * Whether re-solves may warm-start from cached bases: an
     * OnlineScheduler built under this context keeps a basis cache
     * only when set.
     */
    bool warmStart = true;
};

/** Per-child overrides for EngineContext::createChild(). */
struct ChildOptions
{
    /** Diagnostic name ("session.alpha"); also the metrics scope. */
    std::string name;
    /** Override the solver kind (inherits when unset). */
    std::optional<lp::SolverKind> solverKind;
    /** Override warm-start policy (inherits when unset). */
    std::optional<bool> warmStart;
    /**
     * Private thread budget: > 0 gives the child its own pool of
     * exactly that size; 0 shares the parent's pool.
     */
    std::size_t threads = 0;
    /** Base seed for derived RNG streams; 0 inherits the parent's. */
    std::uint64_t baseSeed = 0;
};

/**
 * The service bundle. Immutable after construction apart from
 * configureProcess(), which may only run at CLI entry before any
 * engine work starts.
 */
class EngineContext
{
  public:
    /** A context resolving to the process-wide services. */
    EngineContext() = default;

    ~EngineContext();
    EngineContext(const EngineContext &) = delete;
    EngineContext &operator=(const EngineContext &) = delete;

    /**
     * The process-default context. Its solver kind is resolved from
     * SRSIM_SOLVER exactly once, on first use; registry / tracer /
     * pool resolve dynamically to the process singletons so tests
     * that swap those (ThreadPool::setGlobalSize) stay coherent.
     */
    static EngineContext &processDefault();

    /**
     * CLI entry configuration: pin the default context's solver kind
     * and/or resize the shared pool (--threads beats SRSIM_THREADS
     * beats hardware concurrency). Call before any engine work.
     */
    static void
    configureProcess(std::optional<std::size_t> threads,
                     std::optional<lp::SolverKind> solverKind);

    metrics::Registry &metricsRegistry() const;
    trace::Tracer &tracer() const;
    ThreadPool &pool() const;

    const SolverConfig &solver() const { return solver_; }
    std::uint64_t baseSeed() const { return baseSeed_; }
    const std::string &name() const { return name_; }

    /**
     * A deterministic per-stream seed: the same (baseSeed, stream)
     * always yields the same value, and distinct streams decorrelate.
     */
    std::uint64_t deriveSeed(std::uint64_t stream) const;

    /**
     * lp::SolveOptions with this context's solver kind and metrics
     * registry pre-filled — the standard way LP call sites start.
     */
    lp::SolveOptions solveOptions() const;

    /**
     * Create a child context per the override rules above. The
     * returned context keeps a raw pointer to this parent; the
     * caller guarantees the parent outlives it.
     */
    std::shared_ptr<EngineContext>
    createChild(const ChildOptions &opts) const;

  private:
    /** Parent for service resolution; null = process singletons. */
    const EngineContext *parent_ = nullptr;

    /** Owned services (children); null slots resolve upward. */
    std::unique_ptr<metrics::Registry> ownedRegistry_;
    std::unique_ptr<trace::Tracer> ownedTracer_;
    std::unique_ptr<ThreadPool> ownedPool_;

    SolverConfig solver_;
    std::uint64_t baseSeed_ = 12345;
    std::string name_;
};

/**
 * The effective context for an optional config pointer: `ctx` when
 * given, the process default otherwise. Every subsystem whose config
 * struct carries `const engine::EngineContext *ctx` resolves it
 * through this helper, so "no context" keeps pre-refactor behavior.
 */
inline const EngineContext &
resolve(const EngineContext *ctx)
{
    return ctx != nullptr ? *ctx : EngineContext::processDefault();
}

} // namespace engine
} // namespace srsim

#endif // SRSIM_ENGINE_CONTEXT_HH_
