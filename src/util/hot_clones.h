#ifndef CPULLM_UTIL_HOT_CLONES_H
#define CPULLM_UTIL_HOT_CLONES_H

/**
 * @file
 * CPULLM_HOT_CLONES compiles a lane-parallel hot loop once per x86-64
 * ISA level (x86-64-v4 = AVX-512, x86-64-v3 = AVX2 + FMA, and the
 * baseline), with an ifunc that picks the clone once per process, so
 * one binary runs each loop on whatever vector unit the host has.
 * Every call on a machine therefore runs one arithmetic sequence.
 * Where the toolchain has no target_clones (Clang, other
 * architectures) the macro is empty and the loop is compiled for the
 * build's target only. It is empty under ThreadSanitizer too: GCC
 * instruments the ifunc resolver, which runs during relocation,
 * before the TSan runtime is up, and the binary dies with SIGSEGV
 * before main.
 */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define CPULLM_HOT_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                                 "default")))
#else
#define CPULLM_HOT_CLONES
#endif

#endif // CPULLM_UTIL_HOT_CLONES_H
