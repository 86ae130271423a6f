#include "solver/elim.hh"

#include <algorithm>
#include <vector>

// No multiply-add contraction anywhere in this file, whatever the
// build flags: the benchmark and other embedders compile src/ with
// their own, and on a target with FMA (-march=x86-64-v3 and up) GCC
// fuses even the intrinsics below into vfnmadd.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SRSIM_ELIM_X86 1
#include <immintrin.h>
#endif

namespace srsim {
namespace lp {

namespace {

void
elimScalar(double *t, const double *f, double p, std::size_t n)
{
    for (std::size_t r = 0; r < n; ++r)
        t[r] -= f[r] * p;
}

#ifdef SRSIM_ELIM_X86

__attribute__((target("avx2"))) void
elimAvx2(double *t, const double *f, double p, std::size_t n)
{
    const __m256d pv = _mm256_set1_pd(p);
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const __m256d fp = _mm256_mul_pd(_mm256_loadu_pd(f + r), pv);
        _mm256_storeu_pd(t + r,
                         _mm256_sub_pd(_mm256_loadu_pd(t + r), fp));
    }
    for (; r < n; ++r)
        t[r] -= f[r] * p;
}

#endif

std::vector<ElimVariant>
buildVariants()
{
    std::vector<ElimVariant> v;
#ifdef SRSIM_ELIM_X86
    __builtin_cpu_init();
    v.push_back({"avx2", elimAvx2, __builtin_cpu_supports("avx2") != 0});
#endif
    v.push_back({"scalar", elimScalar, true});
    return v;
}

} // namespace

std::span<const ElimVariant>
elimVariants()
{
    static const std::vector<ElimVariant> v = buildVariants();
    return v;
}

const ElimVariant &
elimKernel()
{
    static const ElimVariant &k = *std::find_if(
        elimVariants().begin(), elimVariants().end(),
        [](const ElimVariant &v) { return v.supported; });
    return k;
}

} // namespace lp
} // namespace srsim
