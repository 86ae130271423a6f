#include "solver/lp.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <sstream>

#include "metrics/metrics.hh"
#include "solver/elim.hh"
#include "solver/revised.hh"
#include "util/logging.hh"

namespace srsim {
namespace lp {

const char *
statusName(Status s)
{
    switch (s) {
      case Status::Optimal: return "optimal";
      case Status::Infeasible: return "infeasible";
      case Status::Unbounded: return "unbounded";
      case Status::IterationLimit: return "iteration-limit";
      case Status::NumericalFailure: return "numerical-failure";
    }
    return "unknown";
}

std::size_t
Problem::addVariable(double cost, std::string name)
{
    costs_.push_back(cost);
    if (name.empty())
        name = "x" + std::to_string(costs_.size() - 1);
    names_.push_back(std::move(name));
    integer_.push_back(false);
    return costs_.size() - 1;
}

void
Problem::markInteger(std::size_t i)
{
    SRSIM_ASSERT(i < integer_.size(), "markInteger out of range");
    integer_[i] = true;
}

bool
Problem::hasIntegers() const
{
    for (bool b : integer_)
        if (b)
            return true;
    return false;
}

void
Problem::addConstraint(Constraint c)
{
    for (const auto &[idx, coeff] : c.terms) {
        SRSIM_ASSERT(idx < costs_.size(),
                     "constraint references unknown variable ", idx);
        (void)coeff;
    }
    constraints_.push_back(std::move(c));
}

void
Problem::truncateConstraints(std::size_t n)
{
    SRSIM_ASSERT(n <= constraints_.size(),
                 "truncateConstraints beyond current size");
    constraints_.resize(n);
}

namespace {

/**
 * Dense simplex tableau in standard equality form, stored by column.
 *
 * Columns 0..n-1 are variables (structural, then slack/surplus, then
 * artificial), column n is the RHS. Each column's m constraint cells
 * are contiguous; the phase-objective row is its own array of n+1
 * cells. Structural columns and the RHS are stored from the start. A
 * slack, surplus or artificial column starts as the implicit unit
 * vector v * e_r of the row r that owns it and gets storage the first
 * time row r is normalised as a pivot row: a pivot only writes the
 * columns whose pivot-row cell is nonzero, so until then the column
 * stays v at row r and zero elsewhere.
 */
class Tableau
{
  public:
    Tableau(std::size_t m, std::size_t n, std::size_t nStruct)
        : m_(m), n_(n), nStruct_(nStruct), off_(n + 1, kImplicit),
          unitRow_(n - nStruct, 0), unitVal_(n - nStruct, 0.0),
          owned_(2 * m, kImplicit), obj_(n + 1, 0.0), basis_(m, 0),
          fpos_(m, kImplicit), from_(n + 1, 0)
    {
        cells_.reserve((nStruct + 1) * m);
        for (std::size_t c = 0; c < nStruct; ++c)
            store(c);
        store(n);
    }

    std::size_t m() const { return m_; }
    std::size_t n() const { return n_; }

    /** Declare column `col` the unit column v * e_row. */
    void
    setUnit(std::size_t row, std::size_t col, double v)
    {
        unitRow_[col - nStruct_] = row;
        unitVal_[col - nStruct_] = v;
        owned_[2 * row + (owned_[2 * row] != kImplicit)] = col;
    }

    /** @return the row owning slack/surplus/artificial column c. */
    std::size_t owner(std::size_t c) const { return unitRow_[c - nStruct_]; }

    double
    at(std::size_t r, std::size_t c) const
    {
        if (off_[c] != kImplicit)
            return cells_[off_[c] + r];
        return r == unitRow_[c - nStruct_] ? unitVal_[c - nStruct_] : 0.0;
    }

    /** Contiguous cells of a stored column (see materialise()). */
    double *column(std::size_t c) { return cells_.data() + off_[c]; }
    const double *
    column(std::size_t c) const
    {
        return cells_.data() + off_[c];
    }

    double &rhs(std::size_t r) { return column(n_)[r]; }
    double rhs(std::size_t r) const { return column(n_)[r]; }

    double &obj(std::size_t c) { return obj_[c]; }
    double obj(std::size_t c) const { return obj_[c]; }

    double &objValue() { return obj_[n_]; }
    double objValue() const { return obj_[n_]; }

    std::size_t basis(std::size_t r) const { return basis_[r]; }
    void setBasis(std::size_t r, std::size_t col) { basis_[r] = col; }

    /** Give column c storage if it is still an implicit unit column. */
    void
    materialise(std::size_t c)
    {
        if (c != kImplicit && off_[c] == kImplicit) {
            store(c);
            column(c)[unitRow_[c - nStruct_]] = unitVal_[c - nStruct_];
        }
    }

    /** Largest magnitude in constraint rows of column c. */
    double
    columnScale(std::size_t c) const
    {
        if (off_[c] == kImplicit)
            return std::abs(unitVal_[c - nStruct_]);
        const double *t = column(c);
        double s = 0.0;
        for (std::size_t r = 0; r < m_; ++r)
            s = std::max(s, std::abs(t[r]));
        return s;
    }

    /**
     * Gauss-Jordan pivot on (row, col).
     *
     * The pivot element must exceed `tol` in magnitude — a tolerance
     * the caller scales to the tableau's magnitude — or the pivot is
     * refused and the tableau left untouched. A refused pivot is a
     * recoverable numerical verdict, never a process abort: the
     * solver's inputs are user data, not internal invariants.
     *
     * Elimination reads the pivot-column cell f of every other row
     * first, then updates only the columns whose normalised pivot-row
     * cell p is nonzero: a skipped cell would compute t - f * 0.0,
     * which for finite f is t again up to the sign of a zero. Each
     * such column is one contiguous pass, `t - f * p` on the rows with
     * f != 0 or, when those are at least a quarter of the rows and p
     * is finite, on every row with f = 0.0 for the others (t - 0.0 * p
     * is again t up to the sign of a zero), the latter through the
     * SIMD kernel of solver/elim.hh, which rounds the product and the
     * difference apart as the scalar loop does. A constraint row with a
     * non-finite f gets the dense sweep over every column instead,
     * where f * 0.0 is NaN.
     *
     * @return true if the pivot was applied
     */
    bool
    pivot(std::size_t row, std::size_t col, double tol)
    {
        const double pv = at(row, col);
        if (!std::isfinite(pv) || !(std::abs(pv) > tol))
            return false;
        const double inv = 1.0 / pv;
        materialise(col);
        materialise(owned_[2 * row]);
        materialise(owned_[2 * row + 1]);
        nz_.clear();
        for (std::size_t c : live_) {
            double &p = column(c)[row];
            p *= inv;
            if (p != 0.0)
                nz_.push_back(c);
        }
        column(col)[row] = 1.0;

        rowF_.clear();
        denseRows_.clear();
        const double *pc = column(col);
        for (std::size_t r = 0; r < m_; ++r) {
            const double f = pc[r];
            if (r == row || f == 0.0)
                continue;
            if (std::isfinite(f))
                rowF_.push_back({r, f});
            else
                denseRows_.push_back({r, f});
        }
        if (!denseRows_.empty())
            for (std::size_t c = nStruct_; c < n_; ++c)
                materialise(c);

        const bool sweep = 4 * rowF_.size() >= m_;
        if (sweep) {
            fcol_.assign(m_, 0.0);
            for (const RowF &e : rowF_)
                fcol_[e.row] = e.f;
        }
        for (std::size_t c : nz_) {
            if (c == col)
                continue;
            double *t = column(c);
            const double p = t[row];
            if (sweep && std::isfinite(p)) {
                eliminate(t, fcol_.data(), p, m_);
            } else {
                for (const RowF &e : rowF_)
                    t[e.row] -= e.f * p;
            }
        }
        for (const RowF &e : denseRows_)
            for (std::size_t c = 0; c <= n_; ++c)
                if (c != col)
                    column(c)[e.row] -= e.f * column(c)[row];
        // The objective row takes the sparse update only. Its factor
        // is finite in iterate(), where the entering column's reduced
        // cost is below a finite -price_tol; after the phase-1
        // drive-out pivots phase 2 overwrites the whole row.
        const double fobj = obj_[col];
        if (fobj != 0.0) {
            for (std::size_t c : nz_)
                obj_[c] -= fobj * column(c)[row];
            obj_[col] = 0.0;
        }
        double *t = column(col);
        for (const RowF &e : rowF_)
            t[e.row] = 0.0;
        for (const RowF &e : denseRows_)
            t[e.row] = 0.0;
        basis_[row] = col;
        return true;
    }

    /**
     * Turn the objective row into reduced costs of the basis: for
     * each row r in ascending order whose basic column's objective
     * cell f is nonzero, subtract f times row r from the objective
     * row. Done column by column: every cell gets the same
     * subtractions in the same row order, and row r's f is read once
     * rows 0..r-1 have been applied to its basic column's cell. A
     * subtraction of f * 0.0 with finite f is skipped; it could only
     * change the sign of a zero.
     */
    void
    priceOut()
    {
        rowF_.clear();
        anyNonFinite_ = false;
        std::fill(fpos_.begin(), fpos_.end(), kImplicit);
        std::fill(from_.begin(), from_.end(), 0);
        for (std::size_t r = 0; r < m_; ++r) {
            const std::size_t b = basis_[r];
            subtractRows(b, 0);
            from_[b] = rowF_.size();
            const double f = obj_[b];
            if (f != 0.0) {
                fpos_[r] = rowF_.size();
                rowF_.push_back({r, f});
                anyNonFinite_ = anyNonFinite_ || !std::isfinite(f);
            }
        }
        for (std::size_t c = 0; c <= n_; ++c)
            subtractRows(c, from_[c]);
    }

    /** @return true if every RHS and objective cell is finite. */
    bool
    finite() const
    {
        const double *rhs = column(n_);
        for (std::size_t r = 0; r < m_; ++r)
            if (!std::isfinite(rhs[r]))
                return false;
        for (std::size_t c = 0; c <= n_; ++c)
            if (!std::isfinite(obj_[c]))
                return false;
        return true;
    }

  private:
    /** No index: the off_ of a column without storage, an unused
     *  owned_ slot, the fpos_ of a row priceOut() skips. */
    static constexpr std::size_t kImplicit = SIZE_MAX;

    /** A row of the current elimination and its factor. */
    struct RowF
    {
        std::size_t row;
        double f;
    };

    /** Append zeroed storage for column c. */
    void
    store(std::size_t c)
    {
        off_[c] = cells_.size();
        cells_.resize(cells_.size() + m_, 0.0);
        live_.push_back(c);
    }

    /** Apply rowF_[from..] of priceOut() to objective cell c. */
    void
    subtractRows(std::size_t c, std::size_t from)
    {
        double &o = obj_[c];
        if (off_[c] == kImplicit && !anyNonFinite_) {
            // Only the owning row's cell is nonzero.
            const std::size_t i = fpos_[unitRow_[c - nStruct_]];
            if (i != kImplicit && i >= from)
                o -= rowF_[i].f * unitVal_[c - nStruct_];
            return;
        }
        for (std::size_t i = from; i < rowF_.size(); ++i) {
            const double x = at(rowF_[i].row, c);
            if (x != 0.0 || !std::isfinite(rowF_[i].f))
                o -= rowF_[i].f * x;
        }
    }

    std::size_t m_;
    std::size_t n_;
    std::size_t nStruct_;
    /** Start of each column in cells_, or kImplicit. */
    std::vector<std::size_t> off_;
    std::vector<double> cells_;
    /** Columns with storage, in the order they got it. */
    std::vector<std::size_t> live_;
    /** Owning row and unit value of each non-structural column. */
    std::vector<std::size_t> unitRow_;
    std::vector<double> unitVal_;
    /** The (at most two) unit columns each row owns, or kImplicit. */
    std::vector<std::size_t> owned_;
    std::vector<double> obj_;
    std::vector<std::size_t> basis_;
    /** Nonzero columns of the last normalised pivot row. */
    std::vector<std::size_t> nz_;
    /** (row, f) pairs of the current pivot or priceOut(); a pivot
     *  keeps the rows with non-finite f (dense sweep) apart. */
    std::vector<RowF> rowF_;
    std::vector<RowF> denseRows_;
    /** The f of rowF_ by row, 0.0 elsewhere: full-column passes. */
    std::vector<double> fcol_;
    /** priceOut() scratch: rowF_ index of each row, first rowF_
     *  entry still to apply to each column. */
    std::vector<std::size_t> fpos_;
    std::vector<std::size_t> from_;
    bool anyNonFinite_ = false;
};

/**
 * Run primal simplex iterations on a tableau whose objective row holds
 * reduced costs for a minimization problem.
 *
 * All thresholds are scaled to the magnitude of the row/column they
 * test, so the iteration behaves identically on an instance and on a
 * copy of it multiplied through by 1e8.
 *
 * @param allowed the columns [0, allowed) are eligible to enter
 * @param bland sticky anti-cycling state, owned by the caller so the
 *        switch to Bland's rule survives across phases; once set it
 *        is never cleared (reverting to Dantzig could re-enter the
 *        degenerate cycle that forced the switch)
 * @return resulting status (Optimal means reduced costs >= 0)
 */
Status
iterate(Tableau &tab, std::size_t allowed, const SolveOptions &opts,
        std::size_t &iterationBudget, bool &bland, std::size_t &pivots)
{
    const double eps = opts.eps;
    double last_obj = tab.objValue();
    std::size_t stall = 0;
    // Consecutive stalled pivots tolerated before switching to
    // Bland's rule. Degenerate cycles repeat without improving the
    // objective, so a run of m+4 zero-progress pivots is already
    // strong evidence; waiting longer (the old 2*(m+n)) just burns
    // iteration budget inside the cycle.
    const std::size_t stall_limit = tab.m() + 4;

    while (true) {
        if (iterationBudget == 0)
            return Status::IterationLimit;

        // Pricing: pick entering column with negative reduced cost.
        // The threshold is relative to the objective row's magnitude,
        // found in the same pass as Dantzig's column: the first one
        // of least reduced cost, entering if that is below it.
        double obj_scale = 1.0;
        double min_cost = std::numeric_limits<double>::infinity();
        std::size_t argmin = tab.n();
        for (std::size_t c = 0; c < allowed; ++c) {
            const double o = tab.obj(c);
            obj_scale = std::max(obj_scale, std::abs(o));
            if (o < min_cost) {
                min_cost = o;
                argmin = c;
            }
        }
        const double price_tol = eps * obj_scale;
        std::size_t enter = tab.n();
        if (bland) {
            for (std::size_t c = 0; c < allowed; ++c) {
                if (tab.obj(c) < -price_tol) {
                    enter = c;
                    break;
                }
            }
        } else if (min_cost < -price_tol) {
            enter = argmin;
        }
        if (enter == tab.n())
            return Status::Optimal;

        // Ratio test: pick leaving row. Entries below the column's
        // scaled tolerance are elimination noise, not pivots.
        tab.materialise(enter);
        const double col_tol =
            eps * std::max(1.0, tab.columnScale(enter));
        const double *col = tab.column(enter);
        const double *rhs = tab.column(tab.n());
        std::size_t leave = tab.m();
        double best_ratio = std::numeric_limits<double>::infinity();
        for (std::size_t r = 0; r < tab.m(); ++r) {
            const double a = col[r];
            if (a > col_tol) {
                const double ratio = rhs[r] / a;
                if (ratio < best_ratio - eps ||
                    (ratio < best_ratio + eps &&
                     (leave == tab.m() ||
                      tab.basis(r) < tab.basis(leave)))) {
                    best_ratio = ratio;
                    leave = r;
                }
            }
        }
        if (leave == tab.m())
            return Status::Unbounded;

        if (!tab.pivot(leave, enter, col_tol * 1e-3) ||
            !tab.finite())
            return Status::NumericalFailure;
        --iterationBudget;
        ++pivots;

        // Switch to Bland's rule if the objective stops improving, to
        // guarantee termination under degeneracy. The switch is
        // sticky: `bland` is never reset, even when a later pivot
        // does improve the objective or a new phase begins.
        if (std::abs(tab.objValue() - last_obj) <
            eps * std::max(1.0, std::abs(last_obj))) {
            if (++stall > stall_limit)
                bland = true;
        } else {
            stall = 0;
            last_obj = tab.objValue();
        }
    }
}

} // namespace

Solution
solveDense(const Problem &p, const SolveOptions &opts)
{
    const std::size_t n_struct = p.numVariables();
    const std::size_t m = p.numConstraints();
    const double eps = opts.eps;

    // Count slack and artificial columns. Rows are normalized to have
    // non-negative RHS first; then:
    //   <=  : +slack (basic if rhs normalization kept the sense)
    //   >=  : -surplus +artificial
    //   ==  : +artificial
    struct RowPlan
    {
        Relation rel;
        double sign;    // +1 if row kept, -1 if multiplied through
    };
    std::vector<RowPlan> plan(m);
    std::size_t n_slack = 0;
    std::size_t n_art = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const Constraint &c = p.constraints()[i];
        Relation rel = c.rel;
        double sign = 1.0;
        if (c.rhs < 0.0) {
            sign = -1.0;
            if (rel == Relation::LessEq)
                rel = Relation::GreaterEq;
            else if (rel == Relation::GreaterEq)
                rel = Relation::LessEq;
        }
        plan[i] = {rel, sign};
        if (rel != Relation::Equal)
            ++n_slack;
        if (rel != Relation::LessEq)
            ++n_art;
    }

    const std::size_t n_total = n_struct + n_slack + n_art;
    Tableau tab(m, n_total, n_struct);

    // Fill constraint rows.
    std::size_t slack_col = n_struct;
    std::size_t art_col = n_struct + n_slack;
    std::vector<double> art_scales; // owning row's |rhs|
    art_scales.reserve(n_art);
    for (std::size_t i = 0; i < m; ++i) {
        const Constraint &c = p.constraints()[i];
        const RowPlan &pl = plan[i];
        for (const auto &[idx, coeff] : c.terms)
            tab.column(idx)[i] += pl.sign * coeff;
        tab.rhs(i) = pl.sign * c.rhs;

        if (pl.rel != Relation::Equal) {
            tab.setUnit(i, slack_col,
                        pl.rel == Relation::LessEq ? 1.0 : -1.0);
            if (pl.rel == Relation::LessEq)
                tab.setBasis(i, slack_col);
            ++slack_col;
        }
        if (pl.rel != Relation::LessEq) {
            tab.setUnit(i, art_col, 1.0);
            tab.setBasis(i, art_col);
            art_scales.push_back(std::abs(c.rhs));
            ++art_col;
        }
    }

    std::size_t budget = opts.maxIterations;

    Solution sol;
    // Anti-cycling state is per-solve, not per-phase: once phase 1
    // had to fall back to Bland's rule the same degeneracy is still
    // present in phase 2.
    bool bland = false;

    // Phase 1: minimize sum of artificials (skip if none).
    const std::size_t first_art = n_struct + n_slack;
    if (n_art > 0) {
        for (std::size_t c = first_art; c < n_total; ++c)
            tab.obj(c) = 1.0;
        // Make reduced costs consistent with the artificial basis.
        tab.priceOut();

        Status st = iterate(tab, n_total, opts, budget, bland,
                            sol.pivots);
        if (st == Status::IterationLimit ||
            st == Status::NumericalFailure) {
            sol.status = st;
            return sol;
        }
        // Feasibility test, per row: a residual artificial is
        // rounding noise only relative to ITS OWN constraint's
        // |rhs| (floored by feasFloor). A single
        // aggregate threshold scaled to the largest RHS would let a
        // ~1e6-scale row mask a genuine violation of an x >= 5 row
        // in the same system. Nonbasic artificials sit at zero, so
        // checking basic ones covers the phase-1 objective.
        for (std::size_t r = 0; r < m; ++r) {
            const std::size_t b = tab.basis(r);
            if (b < first_art)
                continue;
            const double value = tab.rhs(r);
            const double scale = art_scales[b - first_art];
            if (value > opts.feasTol *
                            std::max(scale, opts.feasFloor)) {
                sol.status = Status::Infeasible;
                return sol;
            }
        }

        // Drive any artificial still in the basis out (degenerate).
        for (std::size_t r = 0; r < m; ++r) {
            if (tab.basis(r) < first_art)
                continue;
            std::size_t piv = n_total;
            double piv_tol = eps;
            for (std::size_t c = 0; c < first_art; ++c) {
                const double tol =
                    eps * std::max(1.0, tab.columnScale(c));
                if (std::abs(tab.at(r, c)) > tol) {
                    piv = c;
                    piv_tol = tol;
                    break;
                }
            }
            if (piv != n_total &&
                !tab.pivot(r, piv, piv_tol * 1e-3)) {
                sol.status = Status::NumericalFailure;
                return sol;
            }
            // If no pivot exists the row is all-zero (redundant);
            // the artificial stays basic at value zero, harmless.
        }
    }

    // Phase 2: install the true objective as reduced costs.
    for (std::size_t c = 0; c <= n_total; ++c)
        tab.obj(c) = 0.0;
    for (std::size_t c = 0; c < n_struct; ++c)
        tab.obj(c) = p.costs()[c];
    tab.priceOut();

    // Artificials never re-enter: phase 2 prices [0, first_art).
    Status st = iterate(tab, first_art, opts, budget, bland,
                        sol.pivots);
    if (st != Status::Optimal) {
        sol.status = st;
        return sol;
    }

    sol.status = Status::Optimal;
    // 0.0 - x, not -x: a zero optimum is +0.0 whichever sign of zero
    // the elimination left in the objective cell.
    sol.objective = 0.0 - tab.objValue();
    sol.values.assign(n_struct, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
        const std::size_t b = tab.basis(r);
        if (b < n_struct)
            sol.values[b] = std::max(0.0, tab.rhs(r));
    }
    if (!std::isfinite(sol.objective))
        sol.status = Status::NumericalFailure;
    for (double v : sol.values)
        if (!std::isfinite(v))
            sol.status = Status::NumericalFailure;
    if (sol.status != Status::Optimal)
        return sol;

    // Export the optimal basis symbolically so a re-solve can warm
    // start from it: slack and artificial columns map back to the row
    // that owns them.
    sol.basis.rows.resize(m);
    sol.basis.structurals = n_struct;
    for (std::size_t r = 0; r < m; ++r) {
        const std::size_t b = tab.basis(r);
        Basis::Entry &e = sol.basis.rows[r];
        if (b < n_struct) {
            e.kind = Basis::Kind::Structural;
            e.index = static_cast<std::uint32_t>(b);
        } else {
            e.kind = b < first_art ? Basis::Kind::Slack
                                   : Basis::Kind::Artificial;
            e.index = static_cast<std::uint32_t>(tab.owner(b));
        }
    }
    return sol;
}

namespace {

std::atomic<bool> g_diff_enabled{false};

struct DiffState
{
    std::atomic<std::uint64_t> solves{0};
    std::atomic<std::uint64_t> disagreements{0};
    std::mutex mu;
    std::string firstReport;
};

DiffState &
diffState()
{
    static DiffState st;
    return st;
}

/**
 * Compare one oracle pair. Verdictless outcomes (IterationLimit,
 * NumericalFailure) are skipped: the solvers may legitimately give
 * up at different points on a numerically hard instance.
 */
void
diffCompare(const Problem &p, const Solution &dense,
            const Solution &other, const char *label)
{
    const auto verdict = [](Status s) {
        return s == Status::Optimal || s == Status::Infeasible ||
               s == Status::Unbounded;
    };
    if (!verdict(dense.status) || !verdict(other.status))
        return;
    bool bad = dense.status != other.status;
    if (!bad && dense.status == Status::Optimal) {
        const double scale = std::max(
            {1.0, std::abs(dense.objective),
             std::abs(other.objective)});
        bad = std::abs(dense.objective - other.objective) >
              1e-6 * scale;
    }
    if (!bad)
        return;
    DiffState &st = diffState();
    st.disagreements.fetch_add(1);
    std::lock_guard<std::mutex> lock(st.mu);
    if (!st.firstReport.empty())
        return;
    std::ostringstream os;
    os << label << ": dense " << statusName(dense.status) << " obj "
       << dense.objective << " vs " << statusName(other.status)
       << " obj " << other.objective << " ("
       << p.numConstraints() << " rows, " << p.numVariables()
       << " vars)";
    st.firstReport = os.str();
}

/**
 * Production solve under SolverKind::Sparse: resume from the warm
 * basis when one is usable, otherwise (or on any fallback) run the
 * deterministic tableau path. Failed warm attempts still count
 * their pivots into the returned total.
 */
Solution
warmOrDense(const Problem &p, const SolveOptions &opts)
{
    if (opts.warmStart != nullptr && !opts.warmStart->empty()) {
        Solution sol;
        if (solveRevisedWarm(p, opts, sol))
            return sol;
        const std::size_t warm_pivots = sol.pivots;
        SolveOptions cold = opts;
        cold.warmStart = nullptr;
        sol = solveDense(p, cold);
        sol.pivots += warm_pivots;
        return sol;
    }
    return solveDense(p, opts);
}

/** Run every oracle, record disagreements, return the production
 *  result (opts.kind semantics, warm start honored). */
Solution
diffSolve(const Problem &p, const SolveOptions &opts)
{
    diffState().solves.fetch_add(1);
    SolveOptions cold = opts;
    cold.warmStart = nullptr;
    const Solution dense = solveDense(p, cold);
    const Solution sparse = solveRevised(p, cold);
    diffCompare(p, dense, sparse, "sparse-cold");
    if (opts.warmStart != nullptr && !opts.warmStart->empty()) {
        const Solution warm = solveRevised(p, opts);
        diffCompare(p, dense, warm, "sparse-warm");
        if (opts.kind == SolverKind::Sparse)
            return warmOrDense(p, opts);
    }
    return dense;
}

} // namespace

void
setSolverDiff(bool enabled)
{
    g_diff_enabled.store(enabled, std::memory_order_relaxed);
}

SolverDiffStats
solverDiffStats()
{
    DiffState &st = diffState();
    SolverDiffStats out;
    out.solves = st.solves.load();
    out.disagreements = st.disagreements.load();
    std::lock_guard<std::mutex> lock(st.mu);
    out.firstReport = st.firstReport;
    return out;
}

void
resetSolverDiffStats()
{
    DiffState &st = diffState();
    st.solves.store(0);
    st.disagreements.store(0);
    std::lock_guard<std::mutex> lock(st.mu);
    st.firstReport.clear();
}

Solution
solve(const Problem &p, const SolveOptions &opts)
{
    Solution sol;
    if (g_diff_enabled.load(std::memory_order_relaxed)) {
        sol = diffSolve(p, opts);
    } else if (opts.kind == SolverKind::Sparse) {
        sol = warmOrDense(p, opts);
    } else {
        sol = solveDense(p, opts);
    }
    if (opts.registry != nullptr) {
        opts.registry->counter("solver.solves").add(1);
        opts.registry->counter("solver.pivots").add(sol.pivots);
    }
    return sol;
}

namespace {

/** One branch-and-bound bound: var <= value or var >= value. */
struct Branch
{
    std::size_t var;
    bool upper;   // true: var <= value, false: var >= value
    double value;
};

} // namespace

Solution
solveMip(const Problem &p, const MipOptions &opts)
{
    if (!p.hasIntegers())
        return solve(p, opts.lp);

    Solution best;
    best.status = Status::Infeasible;
    double best_obj = std::numeric_limits<double>::infinity();
    bool capped = false;
    bool numerical = false;
    std::size_t total_pivots = 0;

    // One B&B tree node: the branch bounds that define its
    // subproblem, plus the parent relaxation's optimal basis for a
    // dual-simplex warm start (empty at the root / in dense mode).
    struct Node
    {
        std::vector<Branch> branches;
        Basis parentBasis;
    };

    // A single working instance carries the branch bound rows:
    // truncate back to the base constraints and append this node's
    // bounds, instead of copying the whole Problem per node.
    Problem work = p;
    const std::size_t base_rows = work.numConstraints();
    metrics::Registry *reg = opts.lp.registry;
    if (reg != nullptr)
        reg->counter("solver.mip.problem_copies").add(1);

    // Depth-first stack of nodes.
    std::vector<Node> stack;
    stack.push_back(Node{});
    std::size_t nodes = 0;

    while (!stack.empty()) {
        if (nodes++ >= opts.maxNodes) {
            capped = true;
            break;
        }
        if (reg != nullptr)
            reg->counter("solver.mip.nodes").add(1);
        const Node node = std::move(stack.back());
        stack.pop_back();

        work.truncateConstraints(base_rows);
        for (const Branch &b : node.branches) {
            work.addConstraint({{b.var, 1.0}},
                               b.upper ? Relation::LessEq
                                       : Relation::GreaterEq,
                               b.value);
        }
        SolveOptions lpo = opts.lp;
        lpo.warmStart =
            node.parentBasis.empty() ? nullptr : &node.parentBasis;
        Solution rel = solve(work, lpo);
        total_pivots += rel.pivots;

        if (rel.status == Status::Unbounded) {
            // An unbounded relaxation at the root means the MIP is
            // unbounded too (branching only tightens).
            if (node.branches.empty()) {
                rel.pivots = total_pivots;
                return rel;
            }
            continue;
        }
        if (rel.status == Status::NumericalFailure)
            numerical = true; // pruned, but remember why
        if (rel.status != Status::Optimal)
            continue; // infeasible subtree (or iteration trouble)
        if (rel.objective >= best_obj - opts.lp.eps)
            continue; // pruned by the incumbent

        // Most-fractional integral variable.
        std::size_t frac_var = SIZE_MAX;
        double frac_dist = opts.integralityTol;
        for (std::size_t i = 0; i < p.numVariables(); ++i) {
            if (!p.isInteger(i))
                continue;
            const double v = rel.values[i];
            const double d = std::abs(v - std::round(v));
            if (d > frac_dist) {
                frac_dist = d;
                frac_var = i;
            }
        }
        if (frac_var == SIZE_MAX) {
            // Integral solution: new incumbent.
            best = rel;
            best_obj = rel.objective;
            continue;
        }

        const double v = rel.values[frac_var];
        Node down{node.branches, rel.basis};
        down.branches.push_back(Branch{frac_var, true,
                                       std::floor(v)});
        Node up{node.branches, rel.basis};
        up.branches.push_back(Branch{frac_var, false,
                                     std::ceil(v)});
        // Explore the nearer bound first (stack order: push last).
        if (v - std::floor(v) <= 0.5) {
            stack.push_back(std::move(up));
            stack.push_back(std::move(down));
        } else {
            stack.push_back(std::move(down));
            stack.push_back(std::move(up));
        }
    }

    if (capped && best.status != Status::Optimal) {
        Solution s;
        s.status = Status::IterationLimit;
        s.pivots = total_pivots;
        return s;
    }
    if (capped)
        best.status = Status::IterationLimit;
    // A subtree lost to numerical trouble means "no integral
    // solution exists" was never certified: report the failure
    // unless an incumbent was found anyway.
    if (numerical && best.status == Status::Infeasible)
        best.status = Status::NumericalFailure;
    best.pivots = total_pivots;
    return best;
}

} // namespace lp
} // namespace srsim
