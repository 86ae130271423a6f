/**
 * @file
 * Sparse revised simplex + warm-start suite (label: solver).
 *
 * Covers the two roles of src/solver/revised.cc:
 *
 *  - as the independent differential oracle: solveRevised must agree
 *    with the dense tableau on status and objective (alternate
 *    optimal vertices allowed) across random feasible, infeasible,
 *    and unbounded instances;
 *  - as the production warm-start path: a re-solve from a cached
 *    basis finishes in a handful of pivots, survives branch-row
 *    churn via dual-simplex steps, and falls back to the
 *    deterministic cold tableau (bit-identical values) whenever the
 *    basis is stale, foreign, or the instance turned infeasible.
 *
 * The LP bit-identity oracle pins every bit of what the solvers
 * return on a fixed corpus, so a solver speed-up that changes any
 * double, or the pivot count, fails here before the goldens run.
 *
 * Plus the bookkeeping the bench and service summaries rely on:
 * cumulative Solution::pivots across phases and branch-and-bound
 * nodes, the solver.* registry counters' warm-start accounting, and
 * the single-working-instance guarantee of solveMip
 * (solver.mip.problem_copies == 1).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/metrics.hh"
#include "solver/elim.hh"
#include "solver/lp.hh"
#include "solver/revised.hh"
#include "util/rng.hh"

namespace srsim {
namespace {

using lp::Basis;
using lp::Problem;
using lp::Relation;
using lp::Solution;
using lp::SolveOptions;
using lp::Status;

/** Value of counter `name` in `reg` (0 when never bumped). */
std::uint64_t
count(metrics::Registry &reg, const std::string &name)
{
    return reg.counter(name).value();
}

/** A small non-degenerate LP with a unique bounded optimum. */
Problem
sampleLp()
{
    // min -3x - 2y  s.t.  x + y <= 4, x + 3y <= 6.
    Problem p;
    const auto x = p.addVariable(-3.0, "x");
    const auto y = p.addVariable(-2.0, "y");
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 4.0);
    p.addConstraint({{x, 1.0}, {y, 3.0}}, Relation::LessEq, 6.0);
    return p;
}

/** Random bounded-feasible LP (mirrors the test_solver generator). */
Problem
randomFeasibleLp(Rng &rng)
{
    const int nvar = rng.uniformInt(3, 10);
    const int ncon = rng.uniformInt(2, 12);
    Problem p;
    std::vector<double> feas;
    for (int i = 0; i < nvar; ++i) {
        p.addVariable(rng.uniformReal(-2.0, 2.0));
        feas.push_back(rng.uniformReal(0.0, 5.0));
    }
    for (int c = 0; c < ncon; ++c) {
        lp::Constraint con;
        double lhs = 0.0;
        for (int i = 0; i < nvar; ++i) {
            if (rng.chance(0.6)) {
                const double a = rng.uniformReal(-3.0, 3.0);
                con.terms.emplace_back(static_cast<std::size_t>(i),
                                       a);
                lhs += a * feas[static_cast<std::size_t>(i)];
            }
        }
        if (con.terms.empty())
            continue;
        if (rng.chance(0.5)) {
            con.rel = Relation::LessEq;
            con.rhs = lhs + rng.uniformReal(0.0, 4.0);
        } else {
            con.rel = Relation::GreaterEq;
            con.rhs = lhs - rng.uniformReal(0.0, 4.0);
        }
        p.addConstraint(con);
    }
    for (int i = 0; i < nvar; ++i)
        p.addConstraint({{static_cast<std::size_t>(i), 1.0}},
                        Relation::LessEq, 50.0);
    return p;
}

/** Status + objective agreement (the --solver-diff contract). */
void
expectAgrees(const Solution &dense, const Solution &sparse,
             const char *what)
{
    ASSERT_EQ(dense.status, sparse.status) << what;
    if (dense.status == Status::Optimal) {
        const double scale =
            std::max({1.0, std::abs(dense.objective),
                      std::abs(sparse.objective)});
        EXPECT_NEAR(dense.objective, sparse.objective,
                    1e-6 * scale)
            << what;
    }
}

class RevisedRandomParity : public ::testing::TestWithParam<int>
{};

TEST_P(RevisedRandomParity, ColdAgreesWithDense)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const Problem p = randomFeasibleLp(rng);
    const Solution dense = lp::solveDense(p);
    const Solution sparse = lp::solveRevised(p);
    expectAgrees(dense, sparse, "random feasible");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedRandomParity,
                         ::testing::Range(1, 41));

TEST(RevisedCold, InfeasibleAgreement)
{
    Problem p;
    const auto x = p.addVariable(1.0, "x");
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 1.0);
    p.addConstraint({{x, 1.0}}, Relation::GreaterEq, 2.0);
    const Solution dense = lp::solveDense(p);
    const Solution sparse = lp::solveRevised(p);
    ASSERT_EQ(dense.status, Status::Infeasible);
    EXPECT_EQ(sparse.status, Status::Infeasible);
}

TEST(RevisedCold, UnboundedAgreement)
{
    Problem p;
    const auto x = p.addVariable(-1.0, "x");
    const auto y = p.addVariable(0.0, "y");
    p.addConstraint({{y, 1.0}}, Relation::LessEq, 1.0);
    (void)x;
    const Solution dense = lp::solveDense(p);
    const Solution sparse = lp::solveRevised(p);
    ASSERT_EQ(dense.status, Status::Unbounded);
    EXPECT_EQ(sparse.status, Status::Unbounded);
}

TEST(RevisedCold, ExportsBasisOnOptimal)
{
    const Problem p = sampleLp();
    const Solution dense = lp::solveDense(p);
    ASSERT_EQ(dense.status, Status::Optimal);
    EXPECT_EQ(dense.basis.rows.size(), p.numConstraints());
    EXPECT_EQ(dense.basis.structurals, p.numVariables());
    const Solution sparse = lp::solveRevised(p);
    ASSERT_EQ(sparse.status, Status::Optimal);
    EXPECT_EQ(sparse.basis.rows.size(), p.numConstraints());
}

/** Re-solving the identical problem from its own basis: 0 pivots. */
TEST(RevisedWarm, IdenticalResolveTakesNoPivots)
{
    const Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);
    ASSERT_GT(cold.pivots, 0u);

    SolveOptions opts;
    opts.warmStart = &cold.basis;
    Solution warm;
    ASSERT_TRUE(lp::solveRevisedWarm(p, opts, warm));
    EXPECT_EQ(warm.status, Status::Optimal);
    EXPECT_EQ(warm.pivots, 0u);
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}

/** RHS drift keeps the basis optimal: still 0 pivots, new values. */
TEST(RevisedWarm, RhsDriftReusesBasis)
{
    Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);

    // Same structure, slightly relaxed capacities.
    Problem p2;
    const auto x = p2.addVariable(-3.0, "x");
    const auto y = p2.addVariable(-2.0, "y");
    p2.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 4.5);
    p2.addConstraint({{x, 1.0}, {y, 3.0}}, Relation::LessEq, 6.5);
    ASSERT_EQ(lp::structureSignature(p),
              lp::structureSignature(p2));

    SolveOptions opts;
    opts.warmStart = &cold.basis;
    Solution warm;
    ASSERT_TRUE(lp::solveRevisedWarm(p2, opts, warm));
    ASSERT_EQ(warm.status, Status::Optimal);
    expectAgrees(lp::solveDense(p2), warm, "rhs drift");
    EXPECT_LT(warm.pivots, lp::solveDense(p2).pivots);
}

/**
 * The branch-and-bound child case: one appended bound row cuts off
 * the cached optimum. Dual-simplex steps must restore feasibility
 * without a cold restart.
 */
TEST(RevisedWarm, StaleBasisAfterConstraintAddUsesDualSteps)
{
    Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);
    // Optimum is x=4, y=0; force x <= 2.
    p.addConstraint({{0, 1.0}}, Relation::LessEq, 2.0);

    SolveOptions opts;
    opts.warmStart = &cold.basis;
    Solution warm;
    ASSERT_TRUE(lp::solveRevisedWarm(p, opts, warm));
    ASSERT_EQ(warm.status, Status::Optimal);
    const Solution fresh = lp::solveDense(p);
    expectAgrees(fresh, warm, "appended branch row");
    EXPECT_LE(warm.values[0], 2.0 + 1e-6);
    // On this tiny LP the dual repair cannot beat a 2-pivot cold
    // solve outright; the bound that matters is "no worse".
    EXPECT_LE(warm.pivots, fresh.pivots);
}

/**
 * A basis from a problem with more rows than the target does not
 * fit: the warm attempt must fail and the dispatcher's fallback must
 * return the cold tableau result bit-for-bit.
 */
TEST(RevisedWarm, RemovedConstraintFallsBackCold)
{
    Problem big = sampleLp();
    big.addConstraint({{0, 1.0}}, Relation::LessEq, 3.0);
    const Solution cold = lp::solveDense(big);
    ASSERT_EQ(cold.status, Status::Optimal);
    ASSERT_EQ(cold.basis.rows.size(), 3u);

    const Problem small = sampleLp(); // 2 rows: dimension mismatch
    SolveOptions opts;
    opts.warmStart = &cold.basis;
    Solution warm;
    EXPECT_FALSE(lp::solveRevisedWarm(small, opts, warm));

    // Through the dispatcher: identical to a cold dense solve.
    const Solution viaDispatch = lp::solve(small, opts);
    const Solution dense = lp::solveDense(small);
    ASSERT_EQ(viaDispatch.status, dense.status);
    EXPECT_EQ(viaDispatch.objective, dense.objective);
    ASSERT_EQ(viaDispatch.values.size(), dense.values.size());
    for (std::size_t i = 0; i < dense.values.size(); ++i)
        EXPECT_EQ(viaDispatch.values[i], dense.values[i])
            << "value " << i << " not bit-identical to cold";
}

/** A warm basis on a now-infeasible instance: verdict Infeasible. */
TEST(RevisedWarm, InfeasibleAfterTighteningIsDetected)
{
    Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);
    // x + y <= 4 together with x + y >= 9: empty.
    p.addConstraint({{0, 1.0}, {1, 1.0}}, Relation::GreaterEq, 9.0);

    SolveOptions opts;
    opts.warmStart = &cold.basis;
    const Solution s = lp::solve(p, opts);
    EXPECT_EQ(s.status, Status::Infeasible);
    EXPECT_EQ(s.status, lp::solveDense(p).status);
}

/** Garbage bases (duplicates, bad dims) never poison the solve. */
TEST(RevisedWarm, GarbageBasisFallsBackCold)
{
    const Problem p = sampleLp();
    Basis junk;
    junk.structurals = p.numVariables();
    junk.rows.assign(p.numConstraints(),
                     {Basis::Kind::Structural, 0}); // duplicate var
    SolveOptions opts;
    opts.warmStart = &junk;
    Solution warm;
    EXPECT_FALSE(lp::solveRevisedWarm(p, opts, warm));
    const Solution s = lp::solve(p, opts);
    const Solution dense = lp::solveDense(p);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_EQ(s.objective, dense.objective);
}

/** Degenerate/hostile data under a warm basis stays a verdict. */
TEST(RevisedWarm, DegenerateResolveStaysSane)
{
    // Degenerate: several constraints active at the optimum.
    Problem p;
    const auto x = p.addVariable(-1.0, "x");
    const auto y = p.addVariable(-1.0, "y");
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 1.0);
    p.addConstraint({{y, 1.0}}, Relation::LessEq, 1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 2.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq, 2.0);
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);

    SolveOptions opts;
    opts.warmStart = &cold.basis;
    const Solution s = lp::solve(p, opts);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_NEAR(s.objective, cold.objective, 1e-9);
}

/** Warm chains across RHS churn agree with dense on every step. */
TEST(RevisedWarm, ChurnChainAgreesWithDense)
{
    Rng rng(7);
    for (int seed = 1; seed <= 10; ++seed) {
        Rng gen(static_cast<std::uint64_t>(seed) * 977u);
        Problem p = randomFeasibleLp(gen);
        Solution prev = lp::solveDense(p);
        if (prev.status != Status::Optimal)
            continue;
        for (int step = 0; step < 4; ++step) {
            // Drift every RHS a little; structure unchanged.
            Problem q;
            for (std::size_t i = 0; i < p.numVariables(); ++i)
                q.addVariable(p.costs()[i]);
            for (const lp::Constraint &c : p.constraints()) {
                lp::Constraint c2 = c;
                c2.rhs += rng.uniformReal(0.0, 0.5);
                q.addConstraint(c2);
            }
            SolveOptions opts;
            opts.warmStart = &prev.basis;
            const Solution warm = lp::solve(q, opts);
            const Solution dense = lp::solveDense(q);
            expectAgrees(dense, warm, "churn step");
            p = q;
            if (warm.status == Status::Optimal &&
                !warm.basis.empty())
                prev = warm;
        }
    }
}

/** solveMip: cumulative pivots, one working copy, counted nodes. */
TEST(RevisedMip, CumulativePivotsSingleWorkingCopy)
{
    // max x + y over a fractional-vertex polytope (relaxation
    // optimum x = y = 11/6); integrality forces branching.
    Problem p;
    const auto x = p.addVariable(-1.0, "x");
    const auto y = p.addVariable(-1.0, "y");
    p.addConstraint({{x, 4.0}, {y, 2.0}}, Relation::LessEq, 11.0);
    p.addConstraint({{x, 2.0}, {y, 4.0}}, Relation::LessEq, 11.0);
    p.markInteger(x);
    p.markInteger(y);

    const Solution root = lp::solveDense(p);
    ASSERT_EQ(root.status, Status::Optimal);
    const std::size_t rootPivots = root.pivots;

    metrics::Registry reg;
    lp::MipOptions mo;
    mo.lp.registry = &reg;
    const Solution mip = lp::solveMip(p, mo);
    ASSERT_EQ(mip.status, Status::Optimal);
    EXPECT_NEAR(mip.values[x] - std::round(mip.values[x]), 0.0,
                1e-6);
    EXPECT_NEAR(mip.values[y] - std::round(mip.values[y]), 0.0,
                1e-6);

    EXPECT_GT(count(reg, "solver.mip.nodes"), 1u)
        << "expected actual branching";
    EXPECT_EQ(count(reg, "solver.mip.problem_copies"), 1u)
        << "B&B must reuse one working instance";
    // Pivots accumulate across every explored node.
    EXPECT_GE(mip.pivots, rootPivots);
    EXPECT_EQ(count(reg, "solver.pivots"), mip.pivots);
}

TEST(RevisedSignature, CoversStructureNotData)
{
    const Problem a = sampleLp();
    Problem b = sampleLp();
    // Numeric drift only: same signature.
    {
        Problem c;
        const auto x = c.addVariable(-5.0, "x");
        const auto y = c.addVariable(-1.0, "y");
        c.addConstraint({{x, 2.0}, {y, 1.5}}, Relation::LessEq,
                        9.0);
        c.addConstraint({{x, 1.0}, {y, 4.0}}, Relation::LessEq,
                        7.0);
        EXPECT_EQ(lp::structureSignature(a),
                  lp::structureSignature(c));
    }
    // Extra row: different signature.
    b.addConstraint({{0, 1.0}}, Relation::LessEq, 2.0);
    EXPECT_NE(lp::structureSignature(a),
              lp::structureSignature(b));
    // Different relation: different signature.
    {
        Problem d;
        const auto x = d.addVariable(-3.0, "x");
        const auto y = d.addVariable(-2.0, "y");
        d.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq,
                        4.0);
        d.addConstraint({{x, 1.0}, {y, 3.0}}, Relation::LessEq,
                        6.0);
        EXPECT_NE(lp::structureSignature(a),
                  lp::structureSignature(d));
    }
    // Different sparsity pattern: different signature.
    {
        Problem e;
        const auto x = e.addVariable(-3.0, "x");
        const auto y = e.addVariable(-2.0, "y");
        e.addConstraint({{x, 1.0}}, Relation::LessEq, 4.0);
        e.addConstraint({{x, 1.0}, {y, 3.0}}, Relation::LessEq,
                        6.0);
        EXPECT_NE(lp::structureSignature(a),
                  lp::structureSignature(e));
    }
}

TEST(RevisedCache, StoreLookupAndSignatureGate)
{
    const Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);
    const std::uint64_t sig = lp::structureSignature(p);

    lp::BasisCache cache;
    EXPECT_EQ(cache.size(), 0u);
    Basis out;
    EXPECT_FALSE(cache.lookup("k", sig, out));
    cache.store("k", sig, cold.basis);
    EXPECT_EQ(cache.size(), 1u);
    ASSERT_TRUE(cache.lookup("k", sig, out));
    EXPECT_EQ(out.rows.size(), cold.basis.rows.size());
    // A structural change gates the entry off.
    EXPECT_FALSE(cache.lookup("k", sig + 1, out));
    // Overwrite keeps one entry per key.
    cache.store("k", sig + 1, cold.basis);
    EXPECT_EQ(cache.size(), 1u);
    ASSERT_TRUE(cache.lookup("k", sig + 1, out));
}

TEST(RevisedStats, WarmAccounting)
{
    const Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);

    metrics::Registry reg;
    SolveOptions opts;
    opts.registry = &reg;
    opts.warmStart = &cold.basis;
    const Solution hit = lp::solve(p, opts);
    ASSERT_EQ(hit.status, Status::Optimal);

    Basis junk;
    junk.structurals = p.numVariables();
    junk.rows.assign(p.numConstraints(),
                     {Basis::Kind::Structural, 0});
    SolveOptions bad;
    bad.registry = &reg;
    bad.warmStart = &junk;
    const Solution miss = lp::solve(p, bad);
    ASSERT_EQ(miss.status, Status::Optimal);

    EXPECT_EQ(count(reg, "solver.solves"), 2u);
    EXPECT_EQ(count(reg, "solver.warmstart.attempts"), 2u);
    EXPECT_EQ(count(reg, "solver.warmstart.hits"), 1u);
    EXPECT_EQ(count(reg, "solver.warmstart.misses"), 1u);
    EXPECT_GT(count(reg, "solver.pivots"), 0u);
}

TEST(RevisedDiff, OracleSeesNoDisagreements)
{
    lp::resetSolverDiffStats();
    lp::setSolverDiff(true);
    Rng rng(42);
    for (int seed = 0; seed < 20; ++seed) {
        Rng gen(static_cast<std::uint64_t>(seed) * 131u + 7u);
        const Problem p = randomFeasibleLp(gen);
        const Solution cold = lp::solve(p);
        if (cold.status == Status::Optimal) {
            SolveOptions opts;
            opts.warmStart = &cold.basis;
            (void)lp::solve(p, opts); // warm leg cross-checked too
        }
    }
    lp::setSolverDiff(false);
    const lp::SolverDiffStats ds = lp::solverDiffStats();
    EXPECT_GT(ds.solves, 0u);
    EXPECT_EQ(ds.disagreements, 0u) << ds.firstReport;
}

/** SRSIM_SOLVER=dense ignores warm bases entirely. */
TEST(RevisedKind, DenseKindIgnoresWarmStart)
{
    const Problem p = sampleLp();
    const Solution cold = lp::solveDense(p);
    ASSERT_EQ(cold.status, Status::Optimal);

    metrics::Registry reg;
    SolveOptions opts;
    opts.registry = &reg;
    opts.kind = lp::SolverKind::Dense;
    opts.warmStart = &cold.basis;
    const Solution s = lp::solve(p, opts);

    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_EQ(s.objective, cold.objective);
    EXPECT_EQ(count(reg, "solver.warmstart.attempts"), 0u);
    EXPECT_EQ(s.pivots, cold.pivots);
}

/**
 * A double for the elimination kernel tests: +-0, subnormals, +-inf,
 * NaNs with random payloads (quiet and signalling), and normal
 * values with magnitudes up to 2^+-1023.
 */
double
kernelValue(Rng &rng)
{
    const double sign = rng.chance(0.5) ? -1.0 : 1.0;
    switch (rng.uniformInt(0, 9)) {
      case 0:
        return sign * 0.0;
      case 1:
        return sign * std::ldexp(rng.uniformReal(0.0, 1.0), -1022);
      case 2:
        return sign * HUGE_VAL;
      case 3: {
        const std::uint64_t payload = rng.engine()() & ((1ull << 51) - 1);
        const std::uint64_t bits = 0x7ff0000000000000ull |
                                   (rng.chance(0.5) ? 1ull << 51 : 0) |
                                   (payload | 1) |
                                   (sign < 0 ? 1ull << 63 : 0);
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
      }
      default:
        return sign * std::ldexp(rng.uniformReal(1.0, 2.0),
                                 rng.uniformInt(-1023, 1023));
    }
}

/**
 * Every elimination kernel variant this CPU runs computes
 * t[r] -= f[r] * p with the same bits as the scalar loop, tails and
 * unaligned columns included. p is never NaN: the tableau calls the
 * kernel with a finite p only, and a NaN times a NaN may keep either
 * payload depending on operand order.
 */
TEST(ElimKernel, VariantsMatchScalarLoopBitForBit)
{
    const auto variants = lp::elimVariants();
    ASSERT_FALSE(variants.empty());
    EXPECT_STREQ(variants.back().name, "scalar");
    EXPECT_TRUE(variants.back().supported);
    EXPECT_TRUE(lp::elimKernel().supported);
    Rng rng(20);
    std::size_t checked = 0;
    for (const lp::ElimVariant &v : variants) {
        if (!v.supported)
            continue;
        SCOPED_TRACE(v.name);
        for (std::size_t n : {0, 1, 7, 8, 9, 1599}) {
            for (int trial = 0; trial < 20; ++trial) {
                // One spare cell in front, so odd trials start the
                // columns off their allocation's alignment.
                std::vector<double> t0(n + 1), f(n + 1);
                for (std::size_t r = 0; r <= n; ++r) {
                    t0[r] = kernelValue(rng);
                    f[r] = kernelValue(rng);
                }
                double p = kernelValue(rng);
                if (std::isnan(p))
                    p = rng.uniformReal(-2.0, 2.0);
                const std::size_t at = trial % 2;
                std::vector<double> want = t0, got = t0;
                for (std::size_t r = 0; r < n; ++r)
                    want[at + r] -= f[at + r] * p;
                v.fn(got.data() + at, f.data() + at, p, n);
                ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                      want.size() * sizeof(double)),
                          0)
                    << "n " << n << " trial " << trial;
            }
        }
        ++checked;
    }
    EXPECT_GE(checked, 1u);
}

/**
 * FNV-1a over the raw bytes of solves: status, pivot count,
 * objective and values, bit for bit (a -0.0 hashes apart from 0.0).
 */
class SolutionHash
{
  public:
    void
    add(const Solution &s)
    {
        const int status = static_cast<int>(s.status);
        const std::uint64_t pivots = s.pivots;
        bytes(&status, sizeof status);
        bytes(&pivots, sizeof pivots);
        bytes(&s.objective, sizeof s.objective);
        for (double v : s.values)
            bytes(&v, sizeof v);
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
    }

    std::uint64_t h_ = 14695981039346656037ull;
};

/** The LPs of tests/corpus/lp/<file>, in file order. */
std::vector<Problem>
readLpCorpus(const std::string &file)
{
    const std::string path = std::string(SRSIM_LP_CORPUS_DIR) + "/" + file;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::vector<Problem> out;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream is(line);
        std::string tag, tok;
        is >> tag;
        if (tag == "lp") {
            out.emplace_back();
        } else if (tag == "costs") {
            while (is >> tok)
                out.back().addVariable(std::strtod(tok.c_str(), nullptr));
        } else if (tag == "row") {
            lp::Constraint c;
            is >> tok;
            c.rel = tok == "L"   ? Relation::LessEq
                    : tok == "G" ? Relation::GreaterEq
                                 : Relation::Equal;
            is >> tok;
            c.rhs = std::strtod(tok.c_str(), nullptr);
            std::size_t idx;
            while (is >> idx >> tok)
                c.terms.emplace_back(idx,
                                     std::strtod(tok.c_str(), nullptr));
            out.back().addConstraint(std::move(c));
        }
    }
    return out;
}

// The constants pin the solvers' output bits on the corpus; a change
// that moves them changes what a solve returns.
TEST(LpBitIdentity, CompileCorpus)
{
    const std::vector<Problem> corpus = readLpCorpus("compile_lps.txt");
    ASSERT_EQ(corpus.size(), 190u);
    SolutionHash dense, revised;
    for (const Problem &p : corpus) {
        dense.add(lp::solveDense(p));
        revised.add(lp::solveRevised(p));
    }
    EXPECT_EQ(dense.value(), 11532723526357877122ull);
    EXPECT_EQ(revised.value(), 10168058483653470766ull);
}

/**
 * A zero optimum reports +0.0 from both solvers, so the sign of a
 * zero the tableau elimination leaves behind never reaches a caller.
 */
TEST(LpBitIdentity, ZeroObjectiveIsPositiveZero)
{
    // Zero costs: the objective cell is never touched.
    Problem free;
    const auto a = free.addVariable(0.0, "a");
    free.addConstraint({{a, 1.0}}, Relation::GreaterEq, 2.0);
    // Positive costs with the optimum at the origin.
    Problem origin;
    const auto x = origin.addVariable(1.0, "x");
    const auto y = origin.addVariable(2.0, "y");
    origin.addConstraint({{x, 1.0}, {y, -1.0}}, Relation::LessEq, 3.0);
    // An optimum of zero reached through pivots: min x - y with
    // x - y >= 0 and x + y == 4.
    Problem pivoted;
    const auto u = pivoted.addVariable(1.0, "u");
    const auto v = pivoted.addVariable(-1.0, "v");
    pivoted.addConstraint({{u, 1.0}, {v, -1.0}}, Relation::GreaterEq,
                          0.0);
    pivoted.addConstraint({{u, 1.0}, {v, 1.0}}, Relation::Equal, 4.0);
    for (const Problem *p : {&free, &origin, &pivoted}) {
        for (const Solution &s :
             {lp::solveDense(*p), lp::solveRevised(*p)}) {
            ASSERT_EQ(s.status, Status::Optimal);
            EXPECT_EQ(s.objective, 0.0);
            EXPECT_FALSE(std::signbit(s.objective));
        }
    }
}

TEST(LpBitIdentity, RandomLps)
{
    SolutionHash dense, revised;
    for (int seed = 1; seed <= 40; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed));
        const Problem p = randomFeasibleLp(rng);
        dense.add(lp::solveDense(p));
        revised.add(lp::solveRevised(p));
    }
    EXPECT_EQ(dense.value(), 13690814745492123713ull);
    EXPECT_EQ(revised.value(), 5724829782722757178ull);
}

/**
 * The allocation LPs of 1024 or more rows that one fig_sweep sweep
 * solves (tests/corpus/lp/large_lps.txt): the sizes where most of the
 * cold tableau's time goes, and the only corpus LPs whose tableau
 * spans many pages.
 */
TEST(LpBitIdentity, LargeAllocationLps)
{
    const std::vector<Problem> corpus = readLpCorpus("large_lps.txt");
    ASSERT_EQ(corpus.size(), 3u);
    SolutionHash dense, revised;
    for (const Problem &p : corpus) {
        EXPECT_GE(p.numConstraints(), 1024u);
        dense.add(lp::solveDense(p));
        revised.add(lp::solveRevised(p));
    }
    EXPECT_EQ(dense.value(), 15195967532470013799ull);
    EXPECT_EQ(revised.value(), 5091094182946019904ull);
}

/**
 * A small LP whose coefficients, right-hand sides and costs span up
 * to 2^+-1023 (about 1e+-308): a per-LP exponent span from 0 (unit
 * scale) to the whole double range, random relations, zero
 * right-hand sides and duplicate terms that can sum to infinity.
 * With `nonFinite`, one value in 20 is +-inf or NaN instead.
 */
Problem
illScaledLp(Rng &rng, bool nonFinite = false)
{
    const int span = rng.uniformInt(0, 1023);
    const auto value = [&] {
        if (nonFinite && rng.chance(0.05)) {
            const int k = rng.uniformInt(0, 2);
            return k == 2 ? std::nan("")
                          : (k == 0 ? 1.0 : -1.0) * HUGE_VAL;
        }
        const double m = rng.uniformReal(1.0, 2.0);
        const double v = std::ldexp(m, rng.uniformInt(-span, span));
        return rng.chance(0.5) ? v : -v;
    };
    const int nvar = rng.uniformInt(3, 6);
    const int ncon = rng.uniformInt(2, 5);
    Problem p;
    for (int i = 0; i < nvar; ++i)
        p.addVariable(rng.chance(0.3) ? 0.0 : value());
    for (int c = 0; c < ncon; ++c) {
        lp::Constraint con;
        for (int k = rng.uniformInt(1, nvar); k > 0; --k)
            con.terms.emplace_back(rng.index(std::size_t(nvar)), value());
        const int rel = rng.uniformInt(0, 2);
        con.rel = rel == 0   ? Relation::LessEq
                  : rel == 1 ? Relation::GreaterEq
                             : Relation::Equal;
        con.rhs = rng.chance(0.2) ? 0.0 : value();
        p.addConstraint(std::move(con));
    }
    return p;
}

/**
 * Ill-scaled LPs reach what the well-scaled corpora never do: the
 * Unbounded verdict, non-finite tableau cells and the finite() check
 * that turns them into NumericalFailure. The hash pins every output
 * bit and the counts pin the verdict mix.
 */
TEST(LpBitIdentity, IllScaledLps)
{
    SolutionHash dense, revised;
    std::size_t verdicts[5] = {};
    for (int seed = 1; seed <= 2000; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed));
        const Problem p = illScaledLp(rng);
        const Solution s = lp::solveDense(p);
        ++verdicts[static_cast<int>(s.status)];
        dense.add(s);
        revised.add(lp::solveRevised(p));
    }
    EXPECT_EQ(verdicts[static_cast<int>(Status::Optimal)], 515u);
    EXPECT_EQ(verdicts[static_cast<int>(Status::Infeasible)], 1155u);
    EXPECT_EQ(verdicts[static_cast<int>(Status::Unbounded)], 325u);
    EXPECT_EQ(verdicts[static_cast<int>(Status::IterationLimit)], 0u);
    EXPECT_EQ(verdicts[static_cast<int>(Status::NumericalFailure)], 5u);
    EXPECT_EQ(dense.value(), 11562990070081142415ull);
    EXPECT_EQ(revised.value(), 3491383788543020635ull);
}

/**
 * Infinite and NaN input values put non-finite cells into the
 * tableau: pivot-column cells that force the dense elimination
 * sweep, a non-finite objective factor, and reduced-cost set-up
 * over non-finite basic cells. The dense solver must still return
 * the same bits. The revised solver is not run: the oracle compares
 * verdicts on finite inputs only.
 */
TEST(LpBitIdentity, NonFiniteInputLps)
{
    SolutionHash dense;
    std::size_t verdicts[5] = {};
    for (int seed = 1; seed <= 2000; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed));
        const Solution s = lp::solveDense(illScaledLp(rng, true));
        ++verdicts[static_cast<int>(s.status)];
        dense.add(s);
    }
    EXPECT_EQ(verdicts[static_cast<int>(Status::Optimal)], 484u);
    EXPECT_EQ(verdicts[static_cast<int>(Status::Infeasible)], 1074u);
    EXPECT_EQ(verdicts[static_cast<int>(Status::Unbounded)], 208u);
    EXPECT_EQ(verdicts[static_cast<int>(Status::IterationLimit)], 0u);
    EXPECT_EQ(verdicts[static_cast<int>(Status::NumericalFailure)], 234u);
    EXPECT_EQ(dense.value(), 16299918959533170330ull);
}

/**
 * A RHS cell that overflows on an eliminated row of a later pivot,
 * while the pivot row and every objective cell stay finite, is a
 * numerical failure: a finiteness check after a pivot that looked
 * only at the pivot row or the objective would miss it. min -x - 2y
 * with y <= 1, x <= 1e301 and -1e8 x <= 1e300: y enters first, then
 * x at 1e301 sends the third row's RHS to 1e300 + 1e309 = inf.
 */
TEST(LpBitIdentity, RhsOverflowOnLaterPivotIsNumericalFailure)
{
    Problem p;
    const auto x = p.addVariable(-1.0, "x");
    const auto y = p.addVariable(-2.0, "y");
    p.addConstraint({{y, 1.0}}, Relation::LessEq, 1.0);
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 1e301);
    p.addConstraint({{x, -1e8}}, Relation::LessEq, 1e300);
    const Solution s = lp::solveDense(p);
    EXPECT_EQ(s.status, Status::NumericalFailure);
    EXPECT_EQ(s.pivots, 1u);
}

} // namespace
} // namespace srsim
