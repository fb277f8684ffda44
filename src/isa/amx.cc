#include "isa/amx.h"

#include <cstring>

#include "numerics/bf16.h"
#include "util/hot_clones.h"
#include "util/string_util.h"

namespace cpullm {
namespace isa {

namespace {

/**
 * TMUL compute cores, extracted so the hot loops can be cloned per
 * ISA level with runtime ifunc dispatch (CPULLM_HOT_CLONES). The B
 * tile is widened and pair-deinterleaved ONCE per
 * TMUL issue into lane-parallel planes, then every dst row streams
 * those planes with independent 16-lane accumulation chains — the
 * per-element expression and k-order match the naive emulation
 * exactly, so results are unchanged; only the per-row re-conversion
 * of B (which real TMUL hardware never pays) is gone. This is what
 * gives the emulated unit a hardware-like compute/load cost ratio:
 * one B-tile conversion amortizes over all dst rows, so decode
 * batches scale the way Figs 8-11 measure.
 */
#if defined(__x86_64__) && defined(__GNUC__)
#define CPULLM_AMX_X86_DISPATCH 1
#include <immintrin.h>
#endif

CPULLM_HOT_CLONES void
tdpCoreBf16(std::uint8_t* dtile, const std::uint8_t* atile,
            const std::uint8_t* btile, int m, int n, int a_pairs)
{
    // Widen + deinterleave B once: lane ni of pair-row k contributes
    // (even[k][ni], odd[k][ni]).
    alignas(64) float even[kMaxRows][kMaxColsb / 4];
    alignas(64) float odd[kMaxRows][kMaxColsb / 4];
    for (int k = 0; k < a_pairs; ++k) {
        const auto* brow = reinterpret_cast<const BFloat16*>(
            btile + k * kMaxColsb);
        for (int ni = 0; ni < n; ++ni) {
            even[k][ni] = brow[2 * ni].toFloat();
            odd[k][ni] = brow[2 * ni + 1].toFloat();
        }
    }
    for (int mi = 0; mi < m; ++mi) {
        auto* drow = reinterpret_cast<float*>(dtile + mi * kMaxColsb);
        const auto* arow = reinterpret_cast<const BFloat16*>(
            atile + mi * kMaxColsb);
        for (int k = 0; k < a_pairs; ++k) {
            const float a0 = arow[2 * k].toFloat();
            const float a1 = arow[2 * k + 1].toFloat();
            const float* e = even[k];
            const float* o = odd[k];
            for (int ni = 0; ni < n; ++ni)
                drow[ni] += a0 * e[ni] + a1 * o[ni];
        }
    }
}

CPULLM_HOT_CLONES void
tdpCoreI8(std::uint8_t* dtile, const std::uint8_t* atile,
          const std::uint8_t* btile, int m, int n, int a_quads)
{
    // Sign-extend + deinterleave the INT8 quads once per issue; the
    // integer accumulation is exact, so plane order is free.
    alignas(64) std::int32_t plane[4][kMaxRows][kMaxColsb / 4];
    for (int k = 0; k < a_quads; ++k) {
        const auto* brow = reinterpret_cast<const std::int8_t*>(
            btile + k * kMaxColsb);
        for (int ni = 0; ni < n; ++ni)
            for (int i = 0; i < 4; ++i)
                plane[i][k][ni] =
                    static_cast<std::int32_t>(brow[4 * ni + i]);
    }
    for (int mi = 0; mi < m; ++mi) {
        auto* drow = reinterpret_cast<std::int32_t*>(
            dtile + mi * kMaxColsb);
        const auto* arow = reinterpret_cast<const std::int8_t*>(
            atile + mi * kMaxColsb);
        for (int k = 0; k < a_quads; ++k) {
            const std::int32_t a0 = arow[4 * k];
            const std::int32_t a1 = arow[4 * k + 1];
            const std::int32_t a2 = arow[4 * k + 2];
            const std::int32_t a3 = arow[4 * k + 3];
            const std::int32_t* p0 = plane[0][k];
            const std::int32_t* p1 = plane[1][k];
            const std::int32_t* p2 = plane[2][k];
            const std::int32_t* p3 = plane[3][k];
            for (int ni = 0; ni < n; ++ni)
                drow[ni] += a0 * p0[ni] + a1 * p1[ni] + a2 * p2[ni] +
                            a3 * p3[ni];
        }
    }
}

#if CPULLM_AMX_X86_DISPATCH

/**
 * Explicit AVX-512F cores for the TMUL emulation. A raw 32-bit lane
 * of a VNNI B row holds (even bf16, odd bf16), and BF16 -> F32
 * widening is bits<<16, so one shift and one mask produce the two
 * column planes per row; the FMA phase is then one 16-lane chain per
 * dst row. Tile pad regions are architecturally zero (tileloadd /
 * tilezero / ldtilecfg all clear them), so full-width lanes past the
 * configured colsb only ever add 0*0 and the stores are safe.
 * Dispatch between this and the cloned portable core is decided once
 * per process, so every GEMM in a run uses identical arithmetic and
 * the thread/backend bitwise-invariance contracts hold.
 */
// GCC's avx512fintrin.h trips -Wmaybe-uninitialized through the
// maskless intrinsic wrappers (GCC PR105593); suppressed around the
// intrinsic bodies exactly as packed_weights.cc does.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f"))) void
tdpCoreBf16Avx512(std::uint8_t* dtile, const std::uint8_t* atile,
                  const std::uint8_t* btile, int m, int a_pairs)
{
    alignas(64) float even[kMaxRows][kMaxColsb / 4];
    alignas(64) float odd[kMaxRows][kMaxColsb / 4];
    const __m512i himask =
        _mm512_set1_epi32(static_cast<int>(0xFFFF0000u));
    for (int kk = 0; kk < a_pairs; ++kk) {
        const __m512i raw = _mm512_loadu_si512(btile + kk * kMaxColsb);
        _mm512_store_ps(even[kk], _mm512_castsi512_ps(
                                      _mm512_slli_epi32(raw, 16)));
        _mm512_store_ps(odd[kk], _mm512_castsi512_ps(
                                     _mm512_and_si512(raw, himask)));
    }
    // Two independent accumulator chains per dst row (even pairs, odd
    // pairs) so the FMA latency chain halves; each A pair is one
    // 32-bit broadcast split with the same shift/mask as the B widen.
    // The deterministic per-process dispatch keeps this reassociation
    // internally consistent everywhere it matters.
    for (int mi = 0; mi < m; ++mi) {
        auto* drow = reinterpret_cast<float*>(dtile + mi * kMaxColsb);
        const auto* arow = reinterpret_cast<const std::uint32_t*>(
            atile + mi * kMaxColsb);
        __m512 acc_e = _mm512_loadu_ps(drow);
        __m512 acc_o = _mm512_setzero_ps();
        for (int kk = 0; kk < a_pairs; ++kk) {
            const __m512i apair =
                _mm512_set1_epi32(static_cast<int>(arow[kk]));
            const __m512 a0 =
                _mm512_castsi512_ps(_mm512_slli_epi32(apair, 16));
            const __m512 a1 =
                _mm512_castsi512_ps(_mm512_and_si512(apair, himask));
            acc_e =
                _mm512_fmadd_ps(a0, _mm512_load_ps(even[kk]), acc_e);
            acc_o =
                _mm512_fmadd_ps(a1, _mm512_load_ps(odd[kk]), acc_o);
        }
        _mm512_storeu_ps(drow, _mm512_add_ps(acc_e, acc_o));
    }
}

__attribute__((target("avx512f"))) void
tdpCoreI8Avx512(std::uint8_t* dtile, const std::uint8_t* atile,
                const std::uint8_t* btile, int m, int a_quads)
{
    alignas(64) std::int32_t plane[4][kMaxRows][kMaxColsb / 4];
    for (int kk = 0; kk < a_quads; ++kk) {
        const __m512i raw = _mm512_loadu_si512(btile + kk * kMaxColsb);
        _mm512_store_si512(
            plane[0][kk],
            _mm512_srai_epi32(_mm512_slli_epi32(raw, 24), 24));
        _mm512_store_si512(
            plane[1][kk],
            _mm512_srai_epi32(_mm512_slli_epi32(raw, 16), 24));
        _mm512_store_si512(
            plane[2][kk],
            _mm512_srai_epi32(_mm512_slli_epi32(raw, 8), 24));
        _mm512_store_si512(plane[3][kk], _mm512_srai_epi32(raw, 24));
    }
    // Integer accumulation is exact, so the four byte planes run as
    // independent chains (summed at the end) and each A quad is one
    // 32-bit broadcast split with the same shift pair as the planes.
    for (int mi = 0; mi < m; ++mi) {
        auto* drow = reinterpret_cast<std::int32_t*>(
            dtile + mi * kMaxColsb);
        const auto* arow = reinterpret_cast<const std::uint32_t*>(
            atile + mi * kMaxColsb);
        __m512i acc0 = _mm512_loadu_si512(drow);
        __m512i acc1 = _mm512_setzero_si512();
        __m512i acc2 = _mm512_setzero_si512();
        __m512i acc3 = _mm512_setzero_si512();
        for (int kk = 0; kk < a_quads; ++kk) {
            const __m512i aq =
                _mm512_set1_epi32(static_cast<int>(arow[kk]));
            const __m512i a0 =
                _mm512_srai_epi32(_mm512_slli_epi32(aq, 24), 24);
            const __m512i a1 =
                _mm512_srai_epi32(_mm512_slli_epi32(aq, 16), 24);
            const __m512i a2 =
                _mm512_srai_epi32(_mm512_slli_epi32(aq, 8), 24);
            const __m512i a3 = _mm512_srai_epi32(aq, 24);
            acc0 = _mm512_add_epi32(
                acc0, _mm512_mullo_epi32(
                          a0, _mm512_load_si512(plane[0][kk])));
            acc1 = _mm512_add_epi32(
                acc1, _mm512_mullo_epi32(
                          a1, _mm512_load_si512(plane[1][kk])));
            acc2 = _mm512_add_epi32(
                acc2, _mm512_mullo_epi32(
                          a2, _mm512_load_si512(plane[2][kk])));
            acc3 = _mm512_add_epi32(
                acc3, _mm512_mullo_epi32(
                          a3, _mm512_load_si512(plane[3][kk])));
        }
        acc0 = _mm512_add_epi32(acc0, acc1);
        acc2 = _mm512_add_epi32(acc2, acc3);
        _mm512_storeu_si512(drow, _mm512_add_epi32(acc0, acc2));
    }
}

#pragma GCC diagnostic pop

#endif // CPULLM_AMX_X86_DISPATCH

void
tdpBf16Dispatch(std::uint8_t* dtile, const std::uint8_t* atile,
                const std::uint8_t* btile, int m, int n, int a_pairs)
{
#if CPULLM_AMX_X86_DISPATCH
    static const bool use_avx512 =
        __builtin_cpu_supports("avx512f") != 0;
    if (use_avx512) {
        tdpCoreBf16Avx512(dtile, atile, btile, m, a_pairs);
        return;
    }
#endif
    tdpCoreBf16(dtile, atile, btile, m, n, a_pairs);
}

void
tdpI8Dispatch(std::uint8_t* dtile, const std::uint8_t* atile,
              const std::uint8_t* btile, int m, int n, int a_quads)
{
#if CPULLM_AMX_X86_DISPATCH
    static const bool use_avx512 =
        __builtin_cpu_supports("avx512f") != 0;
    if (use_avx512) {
        tdpCoreI8Avx512(dtile, atile, btile, m, a_quads);
        return;
    }
#endif
    tdpCoreI8(dtile, atile, btile, m, n, a_quads);
}

} // namespace

void
AmxUnit::ldtilecfg(const TileConfig& cfg)
{
    if (cfg.palette == 0) {
        tilerelease();
        return;
    }
    if (cfg.palette != 1) {
        throw AmxFault(strformat("ldtilecfg: unsupported palette %u",
                                 cfg.palette));
    }
    for (int t = 0; t < kNumTiles; ++t) {
        const int r = cfg.rows[static_cast<size_t>(t)];
        const int cb = cfg.colsb[static_cast<size_t>(t)];
        // A tile may be unused (0x0) but a partially-zero shape is a
        // configuration error on hardware.
        if ((r == 0) != (cb == 0)) {
            throw AmxFault(strformat(
                "ldtilecfg: tile %d has rows=%d colsb=%d (must be both "
                "zero or both non-zero)", t, r, cb));
        }
        if (r > kMaxRows || cb > kMaxColsb) {
            throw AmxFault(strformat(
                "ldtilecfg: tile %d shape %dx%d exceeds palette-1 "
                "limits %dx%d", t, r, cb, kMaxRows, kMaxColsb));
        }
    }
    cfg_ = cfg;
    configured_ = true;
    for (auto& tile : tiles_)
        tile.fill(0);
}

void
AmxUnit::tilerelease()
{
    configured_ = false;
    cfg_ = TileConfig{};
    cfg_.palette = 0;
    for (auto& tile : tiles_)
        tile.fill(0);
}

void
AmxUnit::checkTileIndex(int t) const
{
    if (t < 0 || t >= kNumTiles)
        throw AmxFault(strformat("tile index %d out of range", t));
}

void
AmxUnit::checkTileConfigured(int t) const
{
    checkTileIndex(t);
    if (!configured_)
        throw AmxFault("tile access with no tile configuration loaded");
    if (cfg_.rows[static_cast<size_t>(t)] == 0)
        throw AmxFault(strformat("tile %d is not configured", t));
}

int
AmxUnit::rows(int t) const
{
    checkTileIndex(t);
    return cfg_.rows[static_cast<size_t>(t)];
}

int
AmxUnit::colsb(int t) const
{
    checkTileIndex(t);
    return cfg_.colsb[static_cast<size_t>(t)];
}

const std::uint8_t*
AmxUnit::tileData(int t) const
{
    checkTileIndex(t);
    return tiles_[static_cast<size_t>(t)].data();
}

void
AmxUnit::tileloadd(int t, const void* base, std::size_t stride_bytes)
{
    checkTileConfigured(t);
    const int r = rows(t);
    const int cb = colsb(t);
    const auto* src = static_cast<const std::uint8_t*>(base);
    auto& tile = tiles_[static_cast<size_t>(t)];
    // Rows beyond the configured count and row bytes beyond colsb are
    // architecturally zeroed; zero exactly those regions instead of
    // pre-filling the whole 1 KiB tile, so a full 16x64 load (the
    // packed-B streaming path) is a pure copy.
    for (int row = 0; row < r; ++row) {
        std::memcpy(tile.data() + row * kMaxColsb,
                    src + static_cast<std::size_t>(row) * stride_bytes,
                    static_cast<std::size_t>(cb));
        if (cb < kMaxColsb)
            std::memset(tile.data() + row * kMaxColsb + cb, 0,
                        static_cast<std::size_t>(kMaxColsb - cb));
    }
    if (r < kMaxRows)
        std::memset(tile.data() + r * kMaxColsb, 0,
                    static_cast<std::size_t>((kMaxRows - r) *
                                             kMaxColsb));
    ++loads_;
}

void
AmxUnit::tilestored(int t, void* base, std::size_t stride_bytes) const
{
    checkTileConfigured(t);
    const int r = rows(t);
    const int cb = colsb(t);
    auto* dst = static_cast<std::uint8_t*>(base);
    const auto& tile = tiles_[static_cast<size_t>(t)];
    for (int row = 0; row < r; ++row) {
        std::memcpy(dst + static_cast<std::size_t>(row) * stride_bytes,
                    tile.data() + row * kMaxColsb,
                    static_cast<std::size_t>(cb));
    }
    ++const_cast<AmxUnit*>(this)->stores_;
}

void
AmxUnit::tilezero(int t)
{
    checkTileConfigured(t);
    tiles_[static_cast<size_t>(t)].fill(0);
}

void
AmxUnit::tdpbf16ps(int dst, int a, int b)
{
    checkTileConfigured(dst);
    checkTileConfigured(a);
    checkTileConfigured(b);

    const int m = rows(dst);
    const int n = colsb(dst) / 4; // FP32 elements per dst row
    const int a_pairs = colsb(a) / 4; // BF16 pairs per a row
    if (colsb(dst) % 4 || colsb(a) % 4 || colsb(b) % 4) {
        throw AmxFault("tdpbf16ps: colsb must be multiples of 4");
    }
    if (rows(a) != m) {
        throw AmxFault(strformat(
            "tdpbf16ps: rows(a)=%d != rows(dst)=%d", rows(a), m));
    }
    if (rows(b) != a_pairs) {
        throw AmxFault(strformat(
            "tdpbf16ps: rows(b)=%d != colsb(a)/4=%d", rows(b), a_pairs));
    }
    if (colsb(b) != colsb(dst)) {
        throw AmxFault(strformat(
            "tdpbf16ps: colsb(b)=%d != colsb(dst)=%d", colsb(b),
            colsb(dst)));
    }

    tdpBf16Dispatch(tiles_[static_cast<size_t>(dst)].data(),
                    tiles_[static_cast<size_t>(a)].data(),
                    tiles_[static_cast<size_t>(b)].data(), m, n,
                    a_pairs);
    ++tmuls_;
}

void
AmxUnit::tdpbssd(int dst, int a, int b)
{
    checkTileConfigured(dst);
    checkTileConfigured(a);
    checkTileConfigured(b);

    const int m = rows(dst);
    const int n = colsb(dst) / 4; // INT32 elements per dst row
    const int a_quads = colsb(a) / 4; // INT8 quads per a row
    if (colsb(dst) % 4 || colsb(a) % 4 || colsb(b) % 4) {
        throw AmxFault("tdpbssd: colsb must be multiples of 4");
    }
    if (rows(a) != m) {
        throw AmxFault(strformat(
            "tdpbssd: rows(a)=%d != rows(dst)=%d", rows(a), m));
    }
    if (rows(b) != a_quads) {
        throw AmxFault(strformat(
            "tdpbssd: rows(b)=%d != colsb(a)/4=%d", rows(b), a_quads));
    }
    if (colsb(b) != colsb(dst)) {
        throw AmxFault("tdpbssd: colsb(b) != colsb(dst)");
    }

    tdpI8Dispatch(tiles_[static_cast<size_t>(dst)].data(),
                  tiles_[static_cast<size_t>(a)].data(),
                  tiles_[static_cast<size_t>(b)].data(), m, n,
                  a_quads);
    ++tmuls_;
}

} // namespace isa
} // namespace cpullm
