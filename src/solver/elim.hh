/**
 * @file
 * The dense tableau's elimination kernel: t[r] -= f[r] * p over one
 * contiguous column.
 *
 * Every variant computes each cell as one IEEE multiply followed by
 * one IEEE subtract, never fused into a multiply-add: an FMA rounds
 * once where the scalar code rounds twice, which would change the
 * solver's output bits. The variants differ only in how many cells
 * one instruction handles, so they agree bit for bit, NaN payloads
 * included, whenever p is not NaN (a NaN times a NaN may keep either
 * payload, depending on operand order).
 */

#ifndef SRSIM_SOLVER_ELIM_HH_
#define SRSIM_SOLVER_ELIM_HH_

#include <cstddef>
#include <span>

namespace srsim {
namespace lp {

/** t[r] -= f[r] * p for r in [0, n); t and f must not overlap. */
using ElimKernel = void (*)(double *t, const double *f, double p,
                            std::size_t n);

/** One built-in variant of the kernel. */
struct ElimVariant
{
    const char *name;
    ElimKernel fn;
    /** Whether this CPU can run it. */
    bool supported;
};

/**
 * Every variant built into this binary, widest first; the last one
 * is the portable scalar loop and is always supported.
 */
std::span<const ElimVariant> elimVariants();

/** The widest supported variant, chosen once per process. */
const ElimVariant &elimKernel();

/** t[r] -= f[r] * p through elimKernel(). */
inline void
eliminate(double *t, const double *f, double p, std::size_t n)
{
    elimKernel().fn(t, f, p, n);
}

} // namespace lp
} // namespace srsim

#endif // SRSIM_SOLVER_ELIM_HH_
