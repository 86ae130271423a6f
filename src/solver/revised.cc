/**
 * @file
 * Sparse revised simplex implementation. See revised.hh for the
 * contract; the organizing constraint throughout is that the *cold*
 * path replicates the dense tableau solver's pivot rules (standard
 * form layout, pricing, ratio test, tolerances, stall handling)
 * decision for decision, so the two trace the same vertex sequence
 * on the golden corpus. The warm path is new behavior and is gated
 * by the fallback ladder instead.
 */

#include "solver/revised.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "metrics/metrics.hh"
#include "util/logging.hh"

namespace srsim {
namespace lp {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/**
 * The problem in standard equality form, stored column-wise.
 *
 * Column order matches the dense tableau exactly: structural
 * variables, then one slack/surplus per non-equality row (in row
 * order), then one artificial per non-LessEq row (in row order).
 * Rows are sign-normalized to non-negative RHS, flipping the
 * relation sense, exactly like the dense RowPlan.
 */
struct StdForm
{
    std::size_t m = 0;
    std::size_t n_struct = 0;
    std::size_t n_slack = 0;
    std::size_t n_art = 0;
    std::size_t n_total = 0;

    /** Sparse columns: (row, coefficient), rows ascending. */
    std::vector<std::vector<std::pair<std::size_t, double>>> cols;
    /** Normalized RHS per row. */
    std::vector<double> b;
    /** Normalized relation per row. */
    std::vector<Relation> rel;
    /** Owning row's |rhs| per artificial ordinal (dense
     *  art_scales). */
    std::vector<double> art_scales;
    /** Column of row r's slack/surplus (kNone for Equal rows). */
    std::vector<std::size_t> slack_col_of_row;
    /** Column of row r's artificial (kNone for LessEq rows). */
    std::vector<std::size_t> art_col_of_row;
    /** Row owning each slack / artificial ordinal. */
    std::vector<std::size_t> row_of_slack;
    std::vector<std::size_t> row_of_art;
    /** Phase-2 costs per column (structural costs, else 0). */
    std::vector<double> c2;
    /** Phase-1 costs per column (1 on artificials, else 0). */
    std::vector<double> c1;

    bool isArt(std::size_t col) const
    {
        return col >= n_struct + n_slack;
    }
};

StdForm
buildStdForm(const Problem &p)
{
    StdForm sf;
    sf.m = p.numConstraints();
    sf.n_struct = p.numVariables();
    sf.b.resize(sf.m);
    sf.rel.resize(sf.m);
    sf.slack_col_of_row.assign(sf.m, kNone);
    sf.art_col_of_row.assign(sf.m, kNone);

    // Pass 1: normalize senses, count slack/artificial columns.
    for (std::size_t i = 0; i < sf.m; ++i) {
        const Constraint &c = p.constraints()[i];
        Relation rel = c.rel;
        if (c.rhs < 0.0) {
            if (rel == Relation::LessEq)
                rel = Relation::GreaterEq;
            else if (rel == Relation::GreaterEq)
                rel = Relation::LessEq;
        }
        sf.rel[i] = rel;
        if (rel != Relation::Equal)
            ++sf.n_slack;
        if (rel != Relation::LessEq)
            ++sf.n_art;
    }
    sf.n_total = sf.n_struct + sf.n_slack + sf.n_art;
    sf.cols.resize(sf.n_total);
    sf.row_of_slack.reserve(sf.n_slack);
    sf.row_of_art.reserve(sf.n_art);
    sf.art_scales.reserve(sf.n_art);

    // Pass 2: fill columns. Duplicate variable references within a
    // row accumulate in term order, matching the dense `+=` into a
    // tableau cell.
    std::size_t slack_col = sf.n_struct;
    std::size_t art_col = sf.n_struct + sf.n_slack;
    std::vector<double> row_acc(sf.n_struct, 0.0);
    std::vector<std::size_t> touched;
    for (std::size_t i = 0; i < sf.m; ++i) {
        const Constraint &c = p.constraints()[i];
        const double sign = c.rhs < 0.0 ? -1.0 : 1.0;
        touched.clear();
        for (const auto &[idx, coeff] : c.terms) {
            if (row_acc[idx] == 0.0)
                touched.push_back(idx);
            row_acc[idx] += sign * coeff;
        }
        std::sort(touched.begin(), touched.end());
        for (std::size_t idx : touched) {
            if (row_acc[idx] != 0.0)
                sf.cols[idx].emplace_back(i, row_acc[idx]);
            row_acc[idx] = 0.0;
        }
        sf.b[i] = sign * c.rhs;

        switch (sf.rel[i]) {
          case Relation::LessEq:
            sf.cols[slack_col].emplace_back(i, 1.0);
            sf.slack_col_of_row[i] = slack_col;
            sf.row_of_slack.push_back(i);
            ++slack_col;
            break;
          case Relation::GreaterEq:
            sf.cols[slack_col].emplace_back(i, -1.0);
            sf.slack_col_of_row[i] = slack_col;
            sf.row_of_slack.push_back(i);
            ++slack_col;
            sf.cols[art_col].emplace_back(i, 1.0);
            sf.art_col_of_row[i] = art_col;
            sf.row_of_art.push_back(i);
            sf.art_scales.push_back(std::abs(c.rhs));
            ++art_col;
            break;
          case Relation::Equal:
            sf.cols[art_col].emplace_back(i, 1.0);
            sf.art_col_of_row[i] = art_col;
            sf.row_of_art.push_back(i);
            sf.art_scales.push_back(std::abs(c.rhs));
            ++art_col;
            break;
        }
    }

    sf.c2.assign(sf.n_total, 0.0);
    for (std::size_t i = 0; i < sf.n_struct; ++i)
        sf.c2[i] = p.costs()[i];
    sf.c1.assign(sf.n_total, 0.0);
    for (std::size_t c = sf.n_struct + sf.n_slack; c < sf.n_total;
         ++c)
        sf.c1[c] = 1.0;
    return sf;
}

/**
 * Revised simplex working state: an explicit dense basis inverse
 * (column-major: binv_[k*m + i] = B^-1(i,k)), the basic column per
 * row, basic values x_B, and the phase objective value maintained
 * with the same incremental updates the dense tableau applies to its
 * objective cell.
 */
class Rev
{
  public:
    Rev(const StdForm &sf, const SolveOptions &opts)
        : sf_(sf), opts_(opts), m_(sf.m)
    {}

    /** Install the all-slack/artificial starting basis, B^-1 = I. */
    void
    initCold()
    {
        basis_.resize(m_);
        isBasic_.assign(sf_.n_total, false);
        for (std::size_t r = 0; r < m_; ++r) {
            const std::size_t c = sf_.rel[r] == Relation::LessEq
                                      ? sf_.slack_col_of_row[r]
                                      : sf_.art_col_of_row[r];
            basis_[r] = c;
            isBasic_[c] = true;
        }
        binv_.assign(m_ * m_, 0.0);
        for (std::size_t i = 0; i < m_; ++i)
            binv_[i * m_ + i] = 1.0;
        xB_ = sf_.b;
        objv_ = 0.0;
        budget_ = opts_.maxIterations;
        bland_ = false;
        pivots_ = 0;
    }

    /**
     * Resolve a symbolic warm-start basis against this problem.
     * Rows beyond the snapshot (a child appended constraints) get
     * their natural slack/artificial basic. @return false when an
     * entry does not exist in this problem's standard form.
     */
    bool
    resolveWarm(const Basis &wb)
    {
        if (wb.structurals != sf_.n_struct ||
            wb.rows.size() > m_)
            return false;
        basis_.assign(m_, kNone);
        isBasic_.assign(sf_.n_total, false);
        for (std::size_t r = 0; r < m_; ++r) {
            std::size_t col = kNone;
            if (r < wb.rows.size()) {
                const Basis::Entry &e = wb.rows[r];
                switch (e.kind) {
                  case Basis::Kind::Structural:
                    if (e.index < sf_.n_struct)
                        col = e.index;
                    break;
                  case Basis::Kind::Slack:
                    if (e.index < m_)
                        col = sf_.slack_col_of_row[e.index];
                    break;
                  case Basis::Kind::Artificial:
                    if (e.index < m_)
                        col = sf_.art_col_of_row[e.index];
                    break;
                }
            } else {
                col = sf_.rel[r] == Relation::Equal
                          ? sf_.art_col_of_row[r]
                          : sf_.slack_col_of_row[r];
            }
            if (col == kNone || isBasic_[col])
                return false;
            basis_[r] = col;
            isBasic_[col] = true;
        }
        budget_ = opts_.maxIterations;
        bland_ = false;
        pivots_ = 0;
        return true;
    }

    /**
     * Factorize the current basis: B^-1 by Gauss-Jordan with partial
     * pivoting, then x_B = B^-1 b. @return false on a (numerically)
     * singular basis.
     */
    bool
    factorize()
    {
        // aug = [B | I] stored row-major, eliminated in place.
        const std::size_t w = 2 * m_;
        std::vector<double> aug(m_ * w, 0.0);
        for (std::size_t r = 0; r < m_; ++r)
            aug[r * w + m_ + r] = 1.0;
        for (std::size_t k = 0; k < m_; ++k)
            for (const auto &[r, v] : sf_.cols[basis_[k]])
                aug[r * w + k] = v;

        double scale = 0.0;
        for (std::size_t i = 0; i < m_ * m_; ++i)
            scale = std::max(scale,
                             std::abs(aug[(i / m_) * w + i % m_]));
        const double tiny = 1e-12 * std::max(1.0, scale);

        for (std::size_t k = 0; k < m_; ++k) {
            std::size_t piv = k;
            for (std::size_t r = k + 1; r < m_; ++r)
                if (std::abs(aug[r * w + k]) >
                    std::abs(aug[piv * w + k]))
                    piv = r;
            const double pv = aug[piv * w + k];
            if (!std::isfinite(pv) || std::abs(pv) <= tiny)
                return false;
            if (piv != k)
                for (std::size_t c = 0; c < w; ++c)
                    std::swap(aug[k * w + c], aug[piv * w + c]);
            const double inv = 1.0 / pv;
            for (std::size_t c = 0; c < w; ++c)
                aug[k * w + c] *= inv;
            for (std::size_t r = 0; r < m_; ++r) {
                if (r == k)
                    continue;
                const double f = aug[r * w + k];
                if (f == 0.0)
                    continue;
                for (std::size_t c = 0; c < w; ++c)
                    aug[r * w + c] -= f * aug[k * w + c];
            }
        }
        binv_.assign(m_ * m_, 0.0);
        for (std::size_t i = 0; i < m_; ++i)
            for (std::size_t k = 0; k < m_; ++k)
                binv_[k * m_ + i] = aug[i * w + m_ + k];

        xB_.assign(m_, 0.0);
        for (std::size_t i = 0; i < m_; ++i) {
            double s = 0.0;
            for (std::size_t k = 0; k < m_; ++k)
                s += binv_[k * m_ + i] * sf_.b[k];
            xB_[i] = s;
            if (!std::isfinite(s))
                return false;
        }
        return true;
    }

    /** w = B^-1 a_col for a standard-form column. */
    void
    ftran(std::size_t col, std::vector<double> &w) const
    {
        w.assign(m_, 0.0);
        for (const auto &[r, v] : sf_.cols[col])
            for (std::size_t i = 0; i < m_; ++i)
                w[i] += v * binv_[r * m_ + i];
    }

    /** y = c_B^T B^-1 for the given phase cost vector. */
    void
    btran(const std::vector<double> &cost,
          std::vector<double> &y) const
    {
        y.assign(m_, 0.0);
        for (std::size_t k = 0; k < m_; ++k) {
            double s = 0.0;
            for (std::size_t i = 0; i < m_; ++i) {
                const double cb = cost[basis_[i]];
                if (cb != 0.0)
                    s += cb * binv_[k * m_ + i];
            }
            y[k] = s;
        }
    }

    /**
     * Reduced costs for every column. Basic and disallowed columns
     * are forced to exactly 0 (the dense tableau's objective row
     * holds exact zeros there by construction). @return false when
     * a non-finite value appeared.
     */
    bool
    price(const std::vector<double> &cost,
          const std::vector<bool> &allowed,
          std::vector<double> &y, std::vector<double> &d) const
    {
        btran(cost, y);
        d.assign(sf_.n_total, 0.0);
        bool ok = true;
        for (std::size_t j = 0; j < sf_.n_total; ++j) {
            if (!allowed[j] || isBasic_[j])
                continue;
            double s = cost[j];
            for (const auto &[r, v] : sf_.cols[j])
                s -= y[r] * v;
            d[j] = s;
            if (!std::isfinite(s))
                ok = false;
        }
        return ok;
    }

    /**
     * Apply one basis exchange: row `leave` leaves, column `enter`
     * (with ftran image `w`) enters. Arithmetic mirrors the dense
     * Tableau::pivot — scale the pivot row, then eliminate with the
     * same `f == 0` skip — plus the objective-cell update the dense
     * elimination applies via the objective row.
     *
     * @param d_enter the entering column's reduced cost (the dense
     *        objective-row entry) before the pivot
     * @return false when the pivot element fails the tolerance
     */
    bool
    pivot(std::size_t leave, std::size_t enter,
          const std::vector<double> &w, double tol, double d_enter)
    {
        const double pv = w[leave];
        if (!std::isfinite(pv) || !(std::abs(pv) > tol))
            return false;
        const double inv = 1.0 / pv;
        for (std::size_t k = 0; k < m_; ++k)
            binv_[k * m_ + leave] *= inv;
        xB_[leave] *= inv;
        // Column by column over the rows with f != 0: each cell gets
        // one update, and B^-1 is walked in storage order.
        elimRows_.clear();
        for (std::size_t r = 0; r < m_; ++r)
            if (r != leave && w[r] != 0.0)
                elimRows_.push_back(r);
        for (std::size_t k = 0; k < m_; ++k) {
            double *col = binv_.data() + k * m_;
            const double lv = col[leave];
            for (std::size_t r : elimRows_)
                col[r] -= w[r] * lv;
        }
        for (std::size_t r : elimRows_)
            xB_[r] -= w[r] * xB_[leave];
        if (d_enter != 0.0)
            objv_ -= d_enter * xB_[leave];
        isBasic_[basis_[leave]] = false;
        isBasic_[enter] = true;
        basis_[leave] = enter;
        return true;
    }

    /** Dense Tableau::finite() analogue: x_B and objective. */
    bool
    finiteState() const
    {
        if (!std::isfinite(objv_))
            return false;
        for (double v : xB_)
            if (!std::isfinite(v))
                return false;
        return true;
    }

    /**
     * Primal simplex to optimality; decision-for-decision replica of
     * the dense iterate() (Dantzig with sticky Bland, scaled
     * tolerances, same ratio tie-break on basis column index).
     */
    Status
    primalIterate(const std::vector<double> &cost,
                  const std::vector<bool> &allowed)
    {
        const double eps = opts_.eps;
        double last_obj = objv_;
        std::size_t stall = 0;
        const std::size_t stall_limit = m_ + 4;
        std::vector<double> y, d, w;

        while (true) {
            if (budget_ == 0)
                return Status::IterationLimit;

            if (!price(cost, allowed, y, d))
                return Status::NumericalFailure;
            double obj_scale = 1.0;
            for (std::size_t c = 0; c < sf_.n_total; ++c)
                if (allowed[c])
                    obj_scale = std::max(obj_scale,
                                         std::abs(d[c]));
            const double price_tol = eps * obj_scale;
            std::size_t enter = sf_.n_total;
            if (bland_) {
                for (std::size_t c = 0; c < sf_.n_total; ++c) {
                    if (allowed[c] && d[c] < -price_tol) {
                        enter = c;
                        break;
                    }
                }
            } else {
                double best = -price_tol;
                for (std::size_t c = 0; c < sf_.n_total; ++c) {
                    if (allowed[c] && d[c] < best) {
                        best = d[c];
                        enter = c;
                    }
                }
            }
            if (enter == sf_.n_total)
                return Status::Optimal;

            ftran(enter, w);
            double col_scale = 0.0;
            for (std::size_t r = 0; r < m_; ++r)
                col_scale = std::max(col_scale, std::abs(w[r]));
            const double col_tol = eps * std::max(1.0, col_scale);
            std::size_t leave = m_;
            double best_ratio =
                std::numeric_limits<double>::infinity();
            for (std::size_t r = 0; r < m_; ++r) {
                const double a = w[r];
                if (a > col_tol) {
                    const double ratio = xB_[r] / a;
                    if (ratio < best_ratio - eps ||
                        (ratio < best_ratio + eps &&
                         (leave == m_ ||
                          basis_[r] < basis_[leave]))) {
                        best_ratio = ratio;
                        leave = r;
                    }
                }
            }
            if (leave == m_)
                return Status::Unbounded;

            if (!pivot(leave, enter, w, col_tol * 1e-3,
                       d[enter]) ||
                !finiteState())
                return Status::NumericalFailure;
            --budget_;
            ++pivots_;

            if (std::abs(objv_ - last_obj) <
                eps * std::max(1.0, std::abs(last_obj))) {
                if (++stall > stall_limit)
                    bland_ = true;
            } else {
                stall = 0;
                last_obj = objv_;
            }
        }
    }

    /**
     * Dual simplex: restore primal feasibility from a dual-feasible
     * basis (the warm-start branch-and-bound case). Capped — a warm
     * start that needs more than ~4m exchanges is not worth
     * trusting over a cold solve.
     *
     * @return Optimal when primal feasibility was restored,
     *         Infeasible when a row certified infeasibility (the
     *         caller treats this as "fall back to cold" rather than
     *         a verdict), NumericalFailure / IterationLimit
     *         otherwise.
     */
    Status
    dualSimplex(const std::vector<double> &cost,
                const std::vector<bool> &allowed)
    {
        const double eps = opts_.eps;
        const std::size_t cap = m_ * 4 + 64;
        std::vector<double> y, d, w, alpha(sf_.n_total, 0.0);

        for (std::size_t it = 0; it < cap; ++it) {
            if (budget_ == 0)
                return Status::IterationLimit;

            // Leaving row: most negative basic value, tolerance
            // scaled to the row's RHS.
            std::size_t leave = m_;
            double most_neg = 0.0;
            for (std::size_t r = 0; r < m_; ++r) {
                const double tol =
                    opts_.feasTol *
                    std::max(std::abs(sf_.b[r]), opts_.feasFloor);
                if (xB_[r] < -tol && xB_[r] < most_neg) {
                    most_neg = xB_[r];
                    leave = r;
                }
            }
            if (leave == m_)
                return Status::Optimal; // primal feasible again

            if (!price(cost, allowed, y, d))
                return Status::NumericalFailure;

            // Pivot row alpha_j = (B^-1 A)_{leave,j}: row `leave`
            // of B^-1 dotted with each candidate column.
            double row_scale = 0.0;
            for (std::size_t j = 0; j < sf_.n_total; ++j) {
                alpha[j] = 0.0;
                if (!allowed[j] || isBasic_[j])
                    continue;
                double s = 0.0;
                for (const auto &[r, v] : sf_.cols[j])
                    s += binv_[r * m_ + leave] * v;
                alpha[j] = s;
                if (!std::isfinite(s))
                    return Status::NumericalFailure;
                row_scale = std::max(row_scale, std::abs(s));
            }
            const double alpha_tol =
                eps * std::max(1.0, row_scale);

            // Dual ratio test: min d_j / -alpha_j over alpha_j < 0,
            // ties to the lowest column index.
            std::size_t enter = sf_.n_total;
            double best_ratio =
                std::numeric_limits<double>::infinity();
            for (std::size_t j = 0; j < sf_.n_total; ++j) {
                if (!allowed[j] || isBasic_[j])
                    continue;
                if (alpha[j] < -alpha_tol) {
                    const double ratio = d[j] / -alpha[j];
                    if (ratio < best_ratio - eps) {
                        best_ratio = ratio;
                        enter = j;
                    }
                }
            }
            if (enter == sf_.n_total)
                return Status::Infeasible;

            ftran(enter, w);
            double col_scale = 0.0;
            for (std::size_t r = 0; r < m_; ++r)
                col_scale = std::max(col_scale, std::abs(w[r]));
            const double col_tol =
                eps * std::max(1.0, col_scale);
            if (!pivot(leave, enter, w, col_tol * 1e-3,
                       d[enter]) ||
                !finiteState())
                return Status::NumericalFailure;
            --budget_;
            ++pivots_;
        }
        return Status::IterationLimit;
    }

    /**
     * Cold two-phase solve, dense-identical. Fills `sol` with the
     * final verdict; pivots_ holds the count consumed here.
     */
    void
    cold(Solution &sol)
    {
        initCold();
        const double eps = opts_.eps;
        std::vector<bool> allowed(sf_.n_total, true);

        if (sf_.n_art > 0) {
            // Phase-1 objective value as the dense init computes
            // it: subtract each artificial-basic row's RHS in row
            // order.
            objv_ = 0.0;
            for (std::size_t r = 0; r < m_; ++r)
                if (sf_.isArt(basis_[r]))
                    objv_ -= xB_[r];

            Status st = primalIterate(sf_.c1, allowed);
            if (st == Status::IterationLimit ||
                st == Status::NumericalFailure) {
                sol.status = st;
                return;
            }
            // Per-row feasibility against the artificial's owning
            // constraint scale (dense art_scales semantics).
            for (std::size_t r = 0; r < m_; ++r) {
                const std::size_t bcol = basis_[r];
                if (!sf_.isArt(bcol))
                    continue;
                const double value = xB_[r];
                const double scale =
                    sf_.art_scales[bcol - sf_.n_struct -
                                   sf_.n_slack];
                if (value > opts_.feasTol *
                                std::max(scale,
                                         opts_.feasFloor)) {
                    sol.status = Status::Infeasible;
                    return;
                }
            }

            // Drive degenerate basic artificials out: first
            // structural/slack column with a usable entry in the
            // row, like the dense drive-out (uncounted pivots).
            std::vector<double> y1, d1, w;
            for (std::size_t r = 0; r < m_; ++r) {
                if (!sf_.isArt(basis_[r]))
                    continue;
                std::size_t piv = sf_.n_total;
                double piv_tol = eps;
                double piv_d = 0.0;
                std::vector<double> piv_w;
                for (std::size_t c = 0;
                     c < sf_.n_struct + sf_.n_slack; ++c) {
                    ftran(c, w);
                    double cs = 0.0;
                    for (std::size_t i = 0; i < m_; ++i)
                        cs = std::max(cs, std::abs(w[i]));
                    const double tol = eps * std::max(1.0, cs);
                    if (std::abs(w[r]) > tol) {
                        piv = c;
                        piv_tol = tol;
                        piv_w = w;
                        break;
                    }
                }
                if (piv != sf_.n_total) {
                    if (d1.empty() &&
                        !price(sf_.c1, allowed, y1, d1)) {
                        sol.status = Status::NumericalFailure;
                        return;
                    }
                    piv_d = isBasic_[piv] ? 0.0 : d1[piv];
                    if (!pivot(r, piv, piv_w, piv_tol * 1e-3,
                               piv_d)) {
                        sol.status = Status::NumericalFailure;
                        return;
                    }
                    d1.clear(); // basis changed; reprice if needed
                }
                // No pivot: redundant all-zero row, artificial
                // stays basic at zero, harmless.
            }

            for (std::size_t c = sf_.n_struct + sf_.n_slack;
                 c < sf_.n_total; ++c)
                allowed[c] = false;
        }

        // Phase 2: objective value as the dense reduced-cost
        // installation computes it.
        objv_ = 0.0;
        for (std::size_t r = 0; r < m_; ++r) {
            const double f = sf_.c2[basis_[r]];
            if (f != 0.0)
                objv_ -= f * xB_[r];
        }

        const Status st = primalIterate(sf_.c2, allowed);
        if (st != Status::Optimal) {
            sol.status = st;
            return;
        }
        extract(sol);
    }

    /**
     * Warm continuation from a resolved, factorized basis.
     * @return true when the warm path produced a verdict in `sol`;
     *         false means fall back to a cold solve.
     */
    bool
    warm(Solution &sol)
    {
        // An artificial stuck basic at a meaningful value cannot be
        // trusted (the snapshot came from a different RHS).
        for (std::size_t r = 0; r < m_; ++r) {
            const std::size_t bcol = basis_[r];
            if (!sf_.isArt(bcol))
                continue;
            const double scale =
                sf_.art_scales[bcol - sf_.n_struct - sf_.n_slack];
            if (std::abs(xB_[r]) >
                opts_.feasTol *
                    std::max(scale, opts_.feasFloor))
                return false;
        }

        std::vector<bool> allowed(sf_.n_total, true);
        for (std::size_t c = sf_.n_struct + sf_.n_slack;
             c < sf_.n_total; ++c)
            allowed[c] = false;

        objv_ = 0.0;
        for (std::size_t r = 0; r < m_; ++r) {
            const double f = sf_.c2[basis_[r]];
            if (f != 0.0)
                objv_ -= f * xB_[r];
        }

        bool primal_ok = true;
        for (std::size_t r = 0; r < m_; ++r) {
            const double tol =
                opts_.feasTol *
                std::max(std::abs(sf_.b[r]), opts_.feasFloor);
            if (xB_[r] < -tol) {
                primal_ok = false;
                break;
            }
        }
        if (!primal_ok) {
            // Dual-simplex continuation is sound only from a
            // dual-feasible basis.
            std::vector<double> y, d;
            if (!price(sf_.c2, allowed, y, d))
                return false;
            double obj_scale = 1.0;
            for (std::size_t c = 0; c < sf_.n_total; ++c)
                if (allowed[c])
                    obj_scale = std::max(obj_scale,
                                         std::abs(d[c]));
            const double price_tol = opts_.eps * obj_scale;
            for (std::size_t c = 0; c < sf_.n_total; ++c) {
                if (allowed[c] && !isBasic_[c] &&
                    d[c] < -price_tol)
                    return false;
            }
            // A dual-simplex Infeasible verdict is *not* trusted as
            // a final answer: fall back to cold so the published
            // verdict always comes from the replicated two-phase
            // path.
            if (dualSimplex(sf_.c2, allowed) != Status::Optimal)
                return false;
        }

        const Status st = primalIterate(sf_.c2, allowed);
        if (st == Status::Optimal) {
            extract(sol);
            return sol.status == Status::Optimal;
        }
        if (st == Status::Unbounded) {
            // Legitimate verdict from any starting basis.
            sol.status = Status::Unbounded;
            return true;
        }
        return false; // IterationLimit / NumericalFailure -> cold
    }

    std::size_t pivots() const { return pivots_; }

  private:
    /** Read out an Optimal solution + exportable basis. */
    void
    extract(Solution &sol)
    {
        sol.status = Status::Optimal;
        sol.objective = 0.0 - objv_; // a zero optimum is +0.0
        sol.values.assign(sf_.n_struct, 0.0);
        for (std::size_t r = 0; r < m_; ++r) {
            const std::size_t bcol = basis_[r];
            if (bcol < sf_.n_struct)
                sol.values[bcol] = std::max(0.0, xB_[r]);
        }
        if (!std::isfinite(sol.objective))
            sol.status = Status::NumericalFailure;
        for (double v : sol.values)
            if (!std::isfinite(v))
                sol.status = Status::NumericalFailure;
        if (sol.status != Status::Optimal)
            return;

        sol.basis.rows.resize(m_);
        sol.basis.structurals = sf_.n_struct;
        for (std::size_t r = 0; r < m_; ++r) {
            const std::size_t bcol = basis_[r];
            Basis::Entry &e = sol.basis.rows[r];
            if (bcol < sf_.n_struct) {
                e.kind = Basis::Kind::Structural;
                e.index = static_cast<std::uint32_t>(bcol);
            } else if (bcol < sf_.n_struct + sf_.n_slack) {
                e.kind = Basis::Kind::Slack;
                e.index = static_cast<std::uint32_t>(
                    sf_.row_of_slack[bcol - sf_.n_struct]);
            } else {
                e.kind = Basis::Kind::Artificial;
                e.index = static_cast<std::uint32_t>(
                    sf_.row_of_art[bcol - sf_.n_struct -
                                   sf_.n_slack]);
            }
        }
    }

    const StdForm &sf_;
    const SolveOptions &opts_;
    std::size_t m_;
    std::vector<double> binv_;       // column-major B^-1
    std::vector<std::size_t> elimRows_; // rows pivot() eliminates
    std::vector<std::size_t> basis_; // basic column per row
    std::vector<bool> isBasic_;
    std::vector<double> xB_;
    double objv_ = 0.0;
    std::size_t budget_ = 0;
    bool bland_ = false;
    std::size_t pivots_ = 0;
};

std::uint64_t
fnv1a64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Shared warm attempt over a prebuilt standard form. @return true
 * on a verdict in `sol`; sol.pivots always holds the pivots
 * consumed, hit or miss.
 */
bool
warmAttempt(const StdForm &sf, const SolveOptions &opts,
            Solution &sol)
{
    Rev rev(sf, opts);
    bool done = false;
    if (rev.resolveWarm(*opts.warmStart) && rev.factorize())
        done = rev.warm(sol);
    sol.pivots = rev.pivots();
    if (opts.registry != nullptr) {
        opts.registry->counter("solver.warmstart.attempts").add(1);
        opts.registry
            ->counter(done ? "solver.warmstart.hits"
                           : "solver.warmstart.misses")
            .add(1);
    }
    return done;
}

} // namespace

bool
solveRevisedWarm(const Problem &p, const SolveOptions &opts,
                 Solution &sol)
{
    sol = Solution{};
    if (opts.warmStart == nullptr || opts.warmStart->empty())
        return false;
    const StdForm sf = buildStdForm(p);
    return warmAttempt(sf, opts, sol);
}

Solution
solveRevised(const Problem &p, const SolveOptions &opts)
{
    const StdForm sf = buildStdForm(p);
    Solution sol;
    std::size_t warm_pivots = 0;

    if (opts.warmStart != nullptr && !opts.warmStart->empty()) {
        if (warmAttempt(sf, opts, sol))
            return sol;
        warm_pivots = sol.pivots;
        sol = Solution{};
    }

    Rev rev(sf, opts);
    rev.cold(sol);
    sol.pivots = rev.pivots() + warm_pivots;
    return sol;
}

std::uint64_t
structureSignature(const Problem &p)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a64(h, p.numVariables());
    h = fnv1a64(h, p.numConstraints());
    for (const Constraint &c : p.constraints()) {
        h = fnv1a64(h, static_cast<std::uint64_t>(c.rel));
        h = fnv1a64(h, c.terms.size());
        for (const auto &[idx, coeff] : c.terms) {
            (void)coeff; // pattern only, not numeric data
            h = fnv1a64(h, idx);
        }
    }
    return h;
}

bool
BasisCache::lookup(const std::string &key, std::uint64_t structSig,
                   Basis &out) const
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end() && it->second.sig == structSig) {
            out = it->second.basis;
            return true;
        }
    }
    if (registry_ != nullptr)
        registry_->counter("solver.warmstart.misses").add(1);
    return false;
}

void
BasisCache::store(const std::string &key, std::uint64_t structSig,
                  const Basis &basis)
{
    std::lock_guard<std::mutex> lock(mu_);
    Entry &e = map_[key];
    e.sig = structSig;
    e.basis = basis;
}

std::size_t
BasisCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

} // namespace lp
} // namespace srsim
