#ifndef CPULLM_GEMM_PACKED_WEIGHTS_H
#define CPULLM_GEMM_PACKED_WEIGHTS_H

/**
 * @file
 * Pre-packed weight cache for the functional GEMM path. The unpacked
 * kernels re-run packBTileVnni on the static B operand for every
 * M-block of every call — a decode run re-packs the full weight
 * matrix once per token per layer. These classes pack B exactly once
 * (at model construction) into the tile images the AMX TMUL consumes,
 * and the *Packed kernels stream them straight into TILELOADD.
 *
 * Packing only reorders bytes; the packed kernels execute the same
 * FP32/INT32 accumulation sequence as the unpacked ones, so results
 * are bitwise identical (tests/gemm/test_packed_weights.cc holds the
 * kernels to that).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "gemm/gemm.h"
#include "numerics/bf16.h"
#include "numerics/dtype.h"
#include "tensor/tensor.h"

namespace cpullm {
namespace gemm {

/**
 * Storage dtype of a prepared weight matrix. Native keeps the
 * engine's own format (BF16 tiles / pair rows, per-tensor INT8 for
 * AmxI8). The grouped formats are weight-only quantization: the
 * weight bytes shrink (the decode bandwidth lever the paper's
 * Section IV points at) while activations stay full precision, and
 * dequantization is fused into the packed kernels' inner loops.
 */
enum class WeightDtype : std::uint8_t {
    Native,    ///< engine-native storage (bf16 on the BF16 engines)
    I8Grouped, ///< per-group absmax INT8, FMA-fused dequant
    I4Grouped, ///< nibble-packed INT4, per-group scales
};

/** CLI name of @p d ("bf16", "int8", "int4"). */
const char* weightDtypeName(WeightDtype d);

/**
 * Parse a --wquant value ("bf16"/"native", "int8"/"i8g",
 * "int4"/"i4g"). Returns false on unknown names so CLIs can exit 2.
 */
bool weightDtypeFromName(const std::string& name, WeightDtype* out);

/** Default quantization group length along K (multiple of 16). */
inline constexpr std::int64_t kQuantGroup = 64;

/** AMX palette-1 native block sizes shared by every tiled kernel. */
inline constexpr int kTileM = 16;      ///< rows of A / C per tile
inline constexpr int kTileN = 16;      ///< FP32/INT32 C columns per tile
inline constexpr int kTileKBf16 = 32;  ///< BF16 K elements per tile step
inline constexpr int kTileKI8 = 64;    ///< INT8 K elements per tile step

/**
 * B[K,N] packed once into VNNI pair-interleaved 16x64-byte tile
 * images, laid out [n_block][k_step] with k-steps contiguous so a
 * full accumulation sweep streams linearly.
 */
class PackedWeightsBf16
{
  public:
    /** BF16 elements per tile image (16 pair-rows x 2*16 columns). */
    static constexpr std::int64_t kTileElems =
        (kTileKBf16 / 2) * (2 * kTileN);

    PackedWeightsBf16() = default;
    PackedWeightsBf16(const BFloat16* b, std::int64_t k, std::int64_t n);

    bool empty() const { return data_.empty(); }
    std::int64_t k() const { return k_; }
    std::int64_t n() const { return n_; }
    std::int64_t kSteps() const { return k_steps_; }
    std::int64_t nBlocks() const { return n_blocks_; }

    /** Tile image for n-block @p bn, k-step @p ks (row stride 64 B). */
    const BFloat16* tile(std::int64_t bn, std::int64_t ks) const
    {
        return data_.data() + (bn * k_steps_ + ks) * kTileElems;
    }

  private:
    std::int64_t k_ = 0;
    std::int64_t n_ = 0;
    std::int64_t k_steps_ = 0;
    std::int64_t n_blocks_ = 0;
    std::vector<BFloat16> data_;
};

/**
 * FP32 B[K,N] quantized once (per-tensor symmetric absmax, the same
 * scheme matmul applies per call) and packed into VNNI quad-
 * interleaved INT8 tile images; remembers the quantization scale.
 */
class PackedWeightsI8
{
  public:
    /** INT8 elements per tile image (16 quad-rows x 4*16 columns). */
    static constexpr std::int64_t kTileElems =
        (kTileKI8 / 4) * (4 * kTileN);

    PackedWeightsI8() = default;
    PackedWeightsI8(const float* b, std::int64_t k, std::int64_t n);

    bool empty() const { return data_.empty(); }
    std::int64_t k() const { return k_; }
    std::int64_t n() const { return n_; }
    std::int64_t kSteps() const { return k_steps_; }
    std::int64_t nBlocks() const { return n_blocks_; }
    float scale() const { return scale_; }

    const std::int8_t* tile(std::int64_t bn, std::int64_t ks) const
    {
        return data_.data() + (bn * k_steps_ + ks) * kTileElems;
    }

  private:
    std::int64_t k_ = 0;
    std::int64_t n_ = 0;
    std::int64_t k_steps_ = 0;
    std::int64_t n_blocks_ = 0;
    float scale_ = 0.0f;
    std::vector<std::int8_t> data_;
};

/**
 * B[K,N] pair-interleaved for the AVX-512 VDPBF16PS kernel: row p
 * holds (b[2p][j], b[2p+1][j]) for every column j, zero-padded on odd
 * K, so the kernel loads pair registers with one contiguous copy
 * instead of gathering two B rows lane by lane.
 */
class PackedWeightsVnni
{
  public:
    PackedWeightsVnni() = default;
    PackedWeightsVnni(const BFloat16* b, std::int64_t k, std::int64_t n);

    bool empty() const { return data_.empty(); }
    std::int64_t k() const { return k_; }
    std::int64_t n() const { return n_; }
    std::int64_t kPairs() const { return k_pairs_; }

    /** Interleaved row for K-pair @p p: 2*n() BF16 elements. */
    const BFloat16* pairRow(std::int64_t p) const
    {
        return data_.data() + p * 2 * n_;
    }

  private:
    std::int64_t k_ = 0;
    std::int64_t n_ = 0;
    std::int64_t k_pairs_ = 0;
    std::vector<BFloat16> data_;
};

/**
 * FP32 B[K,N] quantized once per (column, K-group) with symmetric
 * absmax INT8 and stored column-major (each output column's K codes
 * contiguous) so the decode GEMV streams one row of codes plus its
 * group scales per output — no tile transpose. All-zero groups get
 * scale 1 with zero codes, never a zero divisor.
 */
class PackedWeightsI8G
{
  public:
    PackedWeightsI8G() = default;
    PackedWeightsI8G(const float* b, std::int64_t k, std::int64_t n,
                     std::int64_t group = kQuantGroup);

    bool empty() const { return data_.empty(); }
    std::int64_t k() const { return k_; }
    std::int64_t n() const { return n_; }
    std::int64_t group() const { return group_; }
    std::int64_t groups() const { return groups_; }
    std::int64_t kPad() const { return groups_ * group_; }

    /** Contiguous K codes of output column @p j (kPad() entries). */
    const std::int8_t* row(std::int64_t j) const
    {
        return data_.data() + j * kPad();
    }
    /** Group scales of column @p j (groups() entries). */
    const float* scaleRow(std::int64_t j) const
    {
        return scales_.data() + j * groups_;
    }
    /** Dequantized element (kk, j) — test/validation accessor. */
    float dequant(std::int64_t kk, std::int64_t j) const
    {
        return scaleRow(j)[kk / group_] * row(j)[kk];
    }

    /** Packed footprint: codes plus scales, the bytes a decode step
     *  streams per matmul against this weight. */
    std::uint64_t bytes() const
    {
        return data_.size() + scales_.size() * sizeof(float);
    }

    /** @name Dequantization error vs the FP32 source */
    /// @{
    double maxAbsErr() const { return max_abs_err_; }
    double errSumSq() const { return err_sum_sq_; }
    std::int64_t errElems() const { return k_ * n_; }
    /// @}

  private:
    std::int64_t k_ = 0;
    std::int64_t n_ = 0;
    std::int64_t group_ = 0;
    std::int64_t groups_ = 0;
    double max_abs_err_ = 0.0;
    double err_sum_sq_ = 0.0;
    std::vector<std::int8_t> data_;
    std::vector<float> scales_;
};

/**
 * FP32 B[K,N] quantized to 4 bits per weight: per-(column, K-group)
 * scales, two codes nibble-packed per byte, column-major like
 * PackedWeightsI8G. Within a column the codes are laid out in planar
 * 16-element micro-blocks — byte i of a block holds element i in the
 * low nibble and element i+8 in the high one — so the fused kernels
 * split a whole block into INT8 codes with two mask/shift ops on a
 * single 64-bit load. Symmetric by default (codes -7..7 biased to
 * 1..15); with_offset adds an NF4-style per-group affine offset
 * (codes 0..15, real = scale * code + offset) for asymmetric
 * distributions. Degenerate (constant / all-zero) groups get scale 1
 * with the code that reproduces the constant.
 */
class PackedWeightsI4G
{
  public:
    /** Bias added to symmetric codes so they pack as unsigned
     *  nibbles: stored = code + 8, code in [-7, 7]. */
    static constexpr int kSymBias = 8;

    PackedWeightsI4G() = default;
    PackedWeightsI4G(const float* b, std::int64_t k, std::int64_t n,
                     std::int64_t group = kQuantGroup,
                     bool with_offset = false);

    bool empty() const { return data_.empty(); }
    std::int64_t k() const { return k_; }
    std::int64_t n() const { return n_; }
    std::int64_t group() const { return group_; }
    std::int64_t groups() const { return groups_; }
    std::int64_t kPad() const { return groups_ * group_; }
    bool withOffset() const { return !offsets_.empty(); }

    /** Nibble-packed K codes of column @p j (kPad()/2 bytes, planar
     *  16-element micro-blocks — see the class comment). */
    const std::uint8_t* row(std::int64_t j) const
    {
        return data_.data() + j * (kPad() / 2);
    }
    const float* scaleRow(std::int64_t j) const
    {
        return scales_.data() + j * groups_;
    }
    const float* offsetRow(std::int64_t j) const
    {
        return offsets_.data() + j * groups_;
    }

    /** Unsigned nibble code of element (kk, j). */
    int code(std::int64_t kk, std::int64_t j) const
    {
        const std::int64_t r = kk & 15;
        const std::uint8_t byte = row(j)[static_cast<std::size_t>(
            (kk >> 4) * 8 + (r & 7))];
        return r < 8 ? (byte & 0xf) : (byte >> 4);
    }
    /** Dequantized element (kk, j) — test/validation accessor. */
    float dequant(std::int64_t kk, std::int64_t j) const
    {
        const std::int64_t g = kk / group_;
        const int u = code(kk, j);
        return withOffset()
                   ? scaleRow(j)[g] * static_cast<float>(u) +
                         offsetRow(j)[g]
                   : scaleRow(j)[g] *
                         static_cast<float>(u - kSymBias);
    }

    std::uint64_t bytes() const
    {
        return data_.size() +
               (scales_.size() + offsets_.size()) * sizeof(float);
    }

    /** @name Dequantization error vs the FP32 source */
    /// @{
    double maxAbsErr() const { return max_abs_err_; }
    double errSumSq() const { return err_sum_sq_; }
    std::int64_t errElems() const { return k_ * n_; }
    /// @}

  private:
    std::int64_t k_ = 0;
    std::int64_t n_ = 0;
    std::int64_t group_ = 0;
    std::int64_t groups_ = 0;
    double max_abs_err_ = 0.0;
    double err_sum_sq_ = 0.0;
    std::vector<std::uint8_t> data_;
    std::vector<float> scales_;
    std::vector<float> offsets_; ///< empty in symmetric mode
};

/** Packed bytes the BF16 tile format would occupy for a [K, N]
 *  weight — the denominator of every bytes-moved-reduction metric. */
std::uint64_t packedBf16Bytes(std::int64_t k, std::int64_t n);

/** BF16 GEMM over pre-packed B on the functional AMX unit. */
void gemmAmxBf16Packed(const BFloat16* a, const PackedWeightsBf16& b,
                       float* c, std::int64_t m);

/** INT8 GEMM over pre-quantized+packed B; output scale_a*b.scale(). */
void gemmAmxI8Packed(const std::int8_t* a, const PackedWeightsI8& b,
                     float* c, std::int64_t m, float scale_a);

/** BF16 GEMM over pair-interleaved B on the AVX-512 BF16 kernel. */
void gemmAvx512Bf16Packed(const BFloat16* a, const PackedWeightsVnni& b,
                          float* c, std::int64_t m);

/**
 * FP32-activation GEMM over group-quantized INT8 weights with
 * dequantization fused into the AVX-512 FMA inner loop (one scale
 * broadcast per group, 16 codes widened per step). Partitioned over
 * N in fixed 16-column tasks. On AVX-512F each task walks its rows
 * in R-row slices of R x C register tiles (R = 6, C = 2; the
 * constants are in gemm/quant_detail.h): a column's 16-code block is
 * decoded into a register once and FMAed into all R rows, and the
 * slice's activations stay in L1 across the task's columns. A lone
 * row (m = 1, or rows left over) walks 1 x 4 tiles: one activation
 * load feeds 4 columns' FMA chains. Every (row, column) keeps its own
 * accumulators
 * and one fixed op sequence, so the row contract holds: any row of
 * any m equals, bitwise, the m = 1 call on that row, for any thread
 * count or backend (what ContinuousBatcher and preemption rely on).
 */
void gemmAvx512I8gPacked(const float* a, const PackedWeightsI8G& b,
                         float* c, std::int64_t m);

/** Same tiles and row contract as gemmAvx512I8gPacked over
 *  nibble-packed INT4 (an 8-byte load and two mask/shift ops decode a
 *  16-weight block). */
void gemmAvx512I4gPacked(const float* a, const PackedWeightsI4G& b,
                         float* c, std::int64_t m);

/**
 * m=1 decode entry over INT4 weights: the 1 x 4 column tile over
 * each task's columns, four tasks (64 columns) per pool chunk. It
 * counts as a GEMV in QuantStats; its output is bitwise
 * gemmAvx512I4gPacked at m == 1 and, by the row contract, each row of
 * any m-row call.
 */
void gemvI4gFused(const float* a, const PackedWeightsI4G& b, float* c);

/**
 * Process-wide counters for the quantized weight path, mirroring
 * AttnStats: prepared-tensor footprints and dequantization error at
 * construction, fused-kernel call/byte counts at matmul time.
 * Exported as host.quant.* registry stats and cpullm_host_quant_*
 * gauges.
 */
struct QuantStats
{
    std::uint64_t tensors = 0;       ///< quantized weights prepared
    std::uint64_t tensorsI4 = 0;     ///< of which nibble-packed INT4
    std::uint64_t packedBytes = 0;   ///< quantized bytes (codes+scales)
    std::uint64_t nativeBytes = 0;   ///< BF16 tile bytes they replace
    /** Fused-dequant GEMM calls: every INT8 call (m = 1 included),
     *  and INT4 calls with m > 1. */
    std::uint64_t gemmCalls = 0;
    std::uint64_t gemvCalls = 0;     ///< INT4 decode GEMV calls, m = 1
    std::uint64_t bytesStreamed = 0; ///< packed bytes those calls read
    double maxAbsErr = 0.0;          ///< worst per-weight dequant error
    double rmsErr = 0.0;             ///< RMS dequant error, all weights
};

/** Snapshot of the process-wide counters (atomic reads). */
QuantStats quantStats();

/** Reset the counters (tests). */
void resetQuantStats();

/**
 * A weight matrix prepared once for a specific engine: the engine's
 * native dtype conversion, quantization, and tile packing all happen
 * here instead of per matmul call. Reference keeps a plain FP32 copy.
 */
class PreparedB
{
  public:
    PreparedB() = default;

    /** Prepare rank-2 @p b ([K, N], any dtype) for @p engine. */
    PreparedB(Engine engine, const Tensor& b);

    /**
     * Prepare with an explicit weight dtype. The grouped quantized
     * formats replace the engine-native packing on every engine
     * (weight-only quantization: the fused AVX-512 dequant kernels
     * run regardless of which BF16 engine the model selected);
     * matmul still requires the engine to match.
     */
    PreparedB(Engine engine, const Tensor& b, WeightDtype wdtype,
              std::int64_t group = kQuantGroup);

    Engine engine() const { return engine_; }
    WeightDtype weightDtype() const { return wdtype_; }
    std::int64_t k() const { return k_; }
    std::int64_t n() const { return n_; }
    bool empty() const { return k_ == 0; }

    /** @name Engine-specific views (panic on engine mismatch) */
    /// @{
    const Tensor& refB() const;
    const PackedWeightsBf16& amxBf16() const;
    const PackedWeightsI8& amxI8() const;
    const PackedWeightsVnni& avx512() const;
    /// @}

    /** @name Quantized views (panic unless weightDtype() matches) */
    /// @{
    const PackedWeightsI8G& i8g() const;
    const PackedWeightsI4G& i4g() const;
    /// @}

    /** @name Dequantization error (0 for Native) */
    /// @{
    double quantMaxAbsErr() const;
    double quantErrSumSq() const;
    /** Elements behind quantErrSumSq (k*n; 0 for Native). */
    std::int64_t quantErrElems() const
    {
        return wdtype_ == WeightDtype::Native ? 0 : k_ * n_;
    }
    /// @}

  private:
    Engine engine_ = Engine::Reference;
    WeightDtype wdtype_ = WeightDtype::Native;
    std::int64_t k_ = 0;
    std::int64_t n_ = 0;
    Tensor ref_b_;
    PackedWeightsBf16 amx_bf16_;
    PackedWeightsI8 amx_i8_;
    PackedWeightsVnni avx512_;
    PackedWeightsI8G i8g_;
    PackedWeightsI4G i4g_;
};

/**
 * matmul against a prepared B. Numerically identical to
 * matmul(engine, a, b_tensor) for the tensor @p b was prepared from;
 * @p engine must match b.engine().
 */
Tensor matmul(Engine engine, const Tensor& a, const PreparedB& b);

} // namespace gemm
} // namespace cpullm

#endif // CPULLM_GEMM_PACKED_WEIGHTS_H
