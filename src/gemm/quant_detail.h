#ifndef CPULLM_GEMM_QUANT_DETAIL_H
#define CPULLM_GEMM_QUANT_DETAIL_H

/**
 * @file
 * Internal: the task bodies behind the grouped-quant kernels
 * (gemmAvx512I8gPacked, gemmAvx512I4gPacked, gemvI4gFused). A task
 * computes output columns [j0, j1) of all m rows of c = a * b. Each
 * kernel runs one body for the whole process (AVX-512F where the CPU
 * has it, else the portable one); tests run each through runI8g /
 * runI4g, so both stay checked on a host whose dispatch picks only
 * one. Not part of the kernels' API.
 */

#include <cstdint>

#include "gemm/packed_weights.h"

// The AVX-512F bodies use intrinsics inside target("avx512f")
// functions, which GCC/Clang permit without any -march flag.
#if defined(__x86_64__) && defined(__GNUC__)
#define CPULLM_QUANT_AVX512 1
#endif

namespace cpullm {
namespace gemm {
namespace detail {

/**
 * Register tile of the AVX-512F bodies. Full kTileRows-row slices of
 * an m > 1 call walk kTileRows x kTileCols tiles; a lone row (m = 1,
 * or the rows left over) walks 1 x kGemvCols tiles.
 */
inline constexpr int kTileRows = 6;
inline constexpr int kTileCols = 2;
inline constexpr int kGemvCols = 4;

/** One task over grouped-INT8 weights: columns [j0, j1) of the m
 *  rows of @p a (row stride b.k()) into @p c (row stride b.n()). */
using I8gTaskFn = void (*)(const float* a, std::int64_t m,
                           const PackedWeightsI8G& b, std::int64_t j0,
                           std::int64_t j1, float* c);

/** The INT4 counterpart; @p asums holds b.groups() activation group
 *  sums per row (groupActSums), which fold the bias and offset. */
using I4gTaskFn = void (*)(const float* a, std::int64_t m,
                           const PackedWeightsI4G& b,
                           const float* asums, std::int64_t j0,
                           std::int64_t j1, float* c);

/** Per-column dot loops, cloned per x86-64 ISA level. Run anywhere. */
void i8gTaskPortable(const float* a, std::int64_t m,
                     const PackedWeightsI8G& b, std::int64_t j0,
                     std::int64_t j1, float* c);
void i4gTaskPortable(const float* a, std::int64_t m,
                     const PackedWeightsI4G& b, const float* asums,
                     std::int64_t j0, std::int64_t j1, float* c);

#if CPULLM_QUANT_AVX512
/** Register-tiled AVX-512F bodies. Call them only where the CPU has
 *  AVX-512F. */
void i8gTaskAvx512(const float* a, std::int64_t m,
                   const PackedWeightsI8G& b, std::int64_t j0,
                   std::int64_t j1, float* c);
void i4gTaskAvx512(const float* a, std::int64_t m,
                   const PackedWeightsI4G& b, const float* asums,
                   std::int64_t j0, std::int64_t j1, float* c);
#endif

/**
 * The whole kernel with a chosen body: c[m, b.n()] = a * b over fixed
 * 16-column tasks on the thread pool. Counts no QuantStats; the
 * public entry points do that.
 */
void runI8g(I8gTaskFn task, const float* a, const PackedWeightsI8G& b,
            float* c, std::int64_t m);
void runI4g(I4gTaskFn task, const float* a, const PackedWeightsI4G& b,
            float* c, std::int64_t m);

} // namespace detail
} // namespace gemm
} // namespace cpullm

#endif // CPULLM_GEMM_QUANT_DETAIL_H
