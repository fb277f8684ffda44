#ifndef CPULLM_GEMM_ATTENTION_DETAIL_H
#define CPULLM_GEMM_ATTENTION_DETAIL_H

/**
 * @file
 * Internal: the task bodies behind attnFusedRagged, one (sequence x
 * kv-head) task per call. attnFusedRagged runs one of them for the
 * whole process (AVX-512F where the CPU has it, else the portable
 * one); tests call each directly, so both stay checked on a host
 * whose dispatch picks only one. Not part of the kernel's API.
 */

#include <cstdint>

#include "gemm/attention.h"

// The AVX-512F body uses intrinsics inside target("avx512f")
// functions, which GCC/Clang permit without any -march flag.
#if defined(__x86_64__) && defined(__GNUC__)
#define CPULLM_ATTN_AVX512 1
#endif

namespace cpullm {
namespace gemm {
namespace detail {

/** One task: kv-head @p kvh of slot @p seq, written into its out. */
using AttnTaskFn = void (*)(const AttnShape& shape,
                            const AttnRaggedSeq& seq, std::int64_t kvh);

/** Lane-parallel body, cloned per x86-64 ISA level. Runs anywhere. */
void attnTaskPortable(const AttnShape& shape, const AttnRaggedSeq& seq,
                      std::int64_t kvh);

#if CPULLM_ATTN_AVX512
/** AVX-512F intrinsic body. Call it only where the CPU has
 *  AVX-512F. */
void attnTaskAvx512(const AttnShape& shape, const AttnRaggedSeq& seq,
                    std::int64_t kvh);
#endif

} // namespace detail
} // namespace gemm
} // namespace cpullm

#endif // CPULLM_GEMM_ATTENTION_DETAIL_H
