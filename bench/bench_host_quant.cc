/**
 * @file
 * Host quantized-weight micro-benchmark: wall-clock of the fused
 * group-wise INT8/INT4 dequant kernels against the packed BF16
 * functional path on the paper's decode (m=1) GEMV shapes, plus the
 * quantized formats' byte footprints and dequantization accuracy.
 * The same kernels also run at m=64 (prefill and batched decode,
 * where a register tile reuses each decoded weight block across
 * rows); those series are GFLOP/s only, with no BF16 ratio.
 *
 * This measures *host* execution speed of the emulator — decode is
 * bandwidth-bound, so fewer weight bytes per token must show up as
 * real m=1 wall-clock wins, and this bench pins that. Two baseline
 * files come out of a run:
 *
 *  - --out DIR:          BENCH_host_quant.json with every metric,
 *                        including machine-dependent GFLOP/s.
 *  - --baseline-out DIR: only the machine-relative metrics (the
 *                        "speedup/..." ratios, "bytes_ratio/..." and
 *                        "bytes_reduction/..." footprints, "acc/..."
 *                        dequant errors and "exact/..." invariance
 *                        diffs), which is what bench/baselines/host
 *                        commits and bench_diff gates.
 *
 * Exit codes: 0 ok, 1 when --check-speedup or
 * --check-bytes-reduction is not met, 2 on usage errors (unknown
 * flags, malformed values) like the cpullm CLI.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/bench_suite.h"
#include "gemm/gemm.h"
#include "gemm/packed_weights.h"
#include "numerics/bf16.h"
#include "numerics/dtype.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace cpullm;

constexpr int kUsageExit = 2;

void
usage(std::ostream& os)
{
    os << "usage: bench_host_quant [--quick] [--out DIR]\n"
          "                        [--baseline-out DIR] [--threads N]\n"
          "                        [--check-speedup X]\n"
          "                        [--check-bytes-reduction X]\n"
          "\n"
          "Wall-clock benchmark of the fused group-wise INT8/INT4\n"
          "dequant kernels vs the packed BF16 functional path.\n"
          "\n"
          "  --quick           small shapes (the CI smoke settings)\n"
          "  --out DIR         write BENCH_host_quant.json (all\n"
          "                    metrics, incl. machine-bound GFLOP/s)\n"
          "  --baseline-out DIR  write only machine-relative metrics\n"
          "                    (speedup/*, bytes_*/*, acc/*, exact/*)\n"
          "  --threads N       cap host threads (also CPULLM_THREADS)\n"
          "  --check-speedup X fail (exit 1) unless the INT4 decode\n"
          "                    GEMV geomean speedup vs packed BF16\n"
          "                    is >= X\n"
          "  --check-bytes-reduction X  fail (exit 1) unless INT4\n"
          "                    moves >= Xx fewer weight bytes than\n"
          "                    packed BF16\n";
}

[[noreturn]] void
usageError(const std::string& msg)
{
    std::cerr << "bench_host_quant: " << msg << "\n\n";
    usage(std::cerr);
    std::exit(kUsageExit);
}

/** Mean seconds per call: one warmup, then repeat until min_s. */
template <typename Fn>
double
timeLoop(double min_s, const Fn& fn)
{
    fn(); // warmup
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    int reps = 0;
    double elapsed = 0.0;
    do {
        fn();
        ++reps;
        elapsed = std::chrono::duration<double>(clock::now() - t0)
                      .count();
    } while (elapsed < min_s);
    return elapsed / reps;
}

double
geomean(const std::vector<double>& v)
{
    double acc = 0.0;
    for (const double x : v)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(v.size()));
}

double
gflops(std::int64_t m, std::int64_t n, std::int64_t k, double secs)
{
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k) / secs / 1e9;
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3g", v);
    return buf;
}

/** Plain FP32 reference GEMM (row-major, [m,k] x [k,n]). */
std::vector<float>
refGemm(const float* a, const float* b, std::int64_t m,
        std::int64_t k, std::int64_t n)
{
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    for (std::int64_t mi = 0; mi < m; ++mi)
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float av = a[mi * k + kk];
            for (std::int64_t j = 0; j < n; ++j)
                c[static_cast<std::size_t>(mi * n + j)] +=
                    av * b[kk * n + j];
        }
    return c;
}

double
maxAbsDiff(const std::vector<float>& x, const std::vector<float>& y)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        worst = std::max(worst, static_cast<double>(std::fabs(
                                    x[i] - y[i])));
    return worst;
}

struct Row
{
    std::string kernel;
    std::string label;
    std::int64_t k, n;
    double bf16S = 0.0;
    double quantS = 0.0;
    double bytesRatio = 0.0;
};

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_dir;
    std::string baseline_dir;
    double check_speedup = 0.0;
    double check_bytes_reduction = 0.0;

    {
        std::string err;
        if (!applyThreadsEnv(&err))
            usageError("CPULLM_THREADS expects a non-negative "
                       "integer, got '" + err + "'");
    }

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> std::string {
            if (i + 1 >= argc)
                usageError(std::string(flag) + " needs a value");
            return argv[++i];
        };
        auto positive = [&](const char* flag,
                            const std::string& v) -> double {
            char* end = nullptr;
            const double x = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(x > 0.0))
                usageError(std::string(flag) +
                           " expects a positive number, got '" + v +
                           "'");
            return x;
        };
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--out") {
            out_dir = value("--out");
        } else if (arg == "--baseline-out") {
            baseline_dir = value("--baseline-out");
        } else if (arg == "--threads") {
            const std::string v = value("--threads");
            char* end = nullptr;
            const long n = std::strtol(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0' || n < 0)
                usageError("--threads expects a non-negative "
                           "integer, got '" + v + "'");
            setMaxThreads(static_cast<std::size_t>(n));
        } else if (arg == "--check-speedup") {
            check_speedup =
                positive("--check-speedup", value("--check-speedup"));
        } else if (arg == "--check-bytes-reduction") {
            check_bytes_reduction =
                positive("--check-bytes-reduction",
                         value("--check-bytes-reduction"));
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            usageError("unknown flag: " + arg);
        }
    }

    // Decode-shape weight matrices: square d x d, the up projection
    // d x 4d and the down projection 4d x d — the three GEMV shapes a
    // decode step streams per layer. Quick mode shrinks d so the
    // ASan/Debug ctest smoke stays fast.
    const std::int64_t d = quick ? 256 : 1024;
    const double min_s = quick ? 0.01 : 0.2;
    struct ShapeDef
    {
        const char* label;
        std::int64_t k, n;
    };
    const ShapeDef shapes[] = {
        {"square", d, d}, {"up", d, 4 * d}, {"down", 4 * d, d}};

    const auto run_started = std::chrono::steady_clock::now();
    core::BenchBaseline full;
    full.id = "host_quant";
    full.title = "Host quantized decode: fused group-wise INT8/INT4 "
                 "dequant kernels vs the packed BF16 path";

    std::vector<Row> rows;
    std::vector<double> i4_speedups, i8_speedups;
    std::vector<double> i4_reductions;

    Rng rng(42);
    // The m=64 activations draw from their own stream, so the m=1
    // series see the same inputs as before those series existed.
    Rng rng_m64(64);
    for (const ShapeDef& s : shapes) {
        const std::int64_t k = s.k, n = s.n;
        const Tensor bf = Tensor::randomUniform({k, n}, DType::F32,
                                                rng, -1.0f, 1.0f);
        const Tensor bb = bf.cast(DType::BF16);
        const gemm::PackedWeightsBf16 packed_bf16(bb.data<BFloat16>(),
                                                  k, n);
        const gemm::PackedWeightsI8G i8g(bf.data<float>(), k, n);
        const gemm::PackedWeightsI4G i4g(bf.data<float>(), k, n);

        const Tensor af = Tensor::randomUniform({1, k}, DType::F32,
                                                rng, -1.0f, 1.0f);
        const Tensor ab = af.cast(DType::BF16);
        std::vector<float> c(static_cast<std::size_t>(n));
        constexpr std::int64_t kRows = 64;
        const Tensor a64 = Tensor::randomUniform(
            {kRows, k}, DType::F32, rng_m64, -1.0f, 1.0f);
        std::vector<float> c64(static_cast<std::size_t>(kRows * n));

        // Packed BF16 m=1 reference: the AMX tile path the engine
        // defaults to on SPR.
        const double bf16_s = timeLoop(min_s, [&] {
            gemm::gemmAmxBf16Packed(ab.data<BFloat16>(), packed_bf16,
                                    c.data(), 1);
        });
        const double i8g_s = timeLoop(min_s, [&] {
            gemm::gemmAvx512I8gPacked(af.data<float>(), i8g, c.data(),
                                      1);
        });
        const double i4g_s = timeLoop(min_s, [&] {
            gemm::gemvI4gFused(af.data<float>(), i4g, c.data());
        });
        const double i8g_m64_s = timeLoop(min_s, [&] {
            gemm::gemmAvx512I8gPacked(a64.data<float>(), i8g,
                                      c64.data(), kRows);
        });
        const double i4g_m64_s = timeLoop(min_s, [&] {
            gemm::gemmAvx512I4gPacked(a64.data<float>(), i4g,
                                      c64.data(), kRows);
        });

        const double bf16_bytes = static_cast<double>(
            gemm::packedBf16Bytes(k, n));
        const double r8 = static_cast<double>(i8g.bytes()) /
                          bf16_bytes;
        const double r4 = static_cast<double>(i4g.bytes()) /
                          bf16_bytes;
        const std::string label = s.label;

        rows.push_back({"i8g", label, k, n, bf16_s, i8g_s, r8});
        rows.push_back({"i4g", label, k, n, bf16_s, i4g_s, r4});

        full.metrics["speedup/i8g_m1_" + label] = bf16_s / i8g_s;
        full.metrics["speedup/i4g_gemv_m1_" + label] = bf16_s / i4g_s;
        full.metrics["bytes_ratio/i8g_" + label] = r8;
        full.metrics["bytes_ratio/i4g_" + label] = r4;
        full.metrics["bytes_reduction/i4g_" + label] = 1.0 / r4;
        full.metrics["gflops/bf16_m1_" + label] =
            gflops(1, n, k, bf16_s);
        full.metrics["gflops/i8g_m1_" + label] =
            gflops(1, n, k, i8g_s);
        full.metrics["gflops/i4g_gemv_m1_" + label] =
            gflops(1, n, k, i4g_s);
        full.metrics["gflops/i8g_m64_" + label] =
            gflops(kRows, n, k, i8g_m64_s);
        full.metrics["gflops/i4g_m64_" + label] =
            gflops(kRows, n, k, i4g_m64_s);
        i8_speedups.push_back(bf16_s / i8g_s);
        i4_speedups.push_back(bf16_s / i4g_s);
        i4_reductions.push_back(1.0 / r4);
    }
    full.metrics["speedup/i8g_decode_geomean"] = geomean(i8_speedups);
    full.metrics["speedup/i4g_gemv_decode_geomean"] =
        geomean(i4_speedups);
    full.metrics["bytes_reduction/i4g_geomean"] =
        geomean(i4_reductions);

    // ---- dequantization accuracy on a ragged shape, per group ----
    // Deterministic (fixed seed, thread-invariant kernels), so the
    // committed baseline pins these as the documented error ceilings.
    {
        const std::int64_t m = 5, k = 129, n = 77;
        Rng rng2(7);
        const Tensor a2 = Tensor::randomUniform({m, k}, DType::F32,
                                                rng2, -1.0f, 1.0f);
        const Tensor b2 = Tensor::randomUniform({k, n}, DType::F32,
                                                rng2, -1.0f, 1.0f);
        const std::vector<float> want =
            refGemm(a2.data<float>(), b2.data<float>(), m, k, n);
        std::vector<float> got(static_cast<std::size_t>(m * n));
        for (const std::int64_t g : {std::int64_t{32},
                                     std::int64_t{64},
                                     std::int64_t{128}}) {
            const std::string suffix = "_g" + std::to_string(g);
            const gemm::PackedWeightsI8G q8(b2.data<float>(), k, n,
                                            g);
            gemm::gemmAvx512I8gPacked(a2.data<float>(), q8,
                                      got.data(), m);
            full.metrics["acc/i8g_max_abs_diff" + suffix] =
                maxAbsDiff(got, want);
            const gemm::PackedWeightsI4G q4(b2.data<float>(), k, n,
                                            g);
            gemm::gemmAvx512I4gPacked(a2.data<float>(), q4,
                                      got.data(), m);
            full.metrics["acc/i4g_max_abs_diff" + suffix] =
                maxAbsDiff(got, want);
        }
    }

    // ---- bitwise thread-count invariance of the fused kernels ----
    // Same contract as attnFusedRagged: fixed 16-column task boundaries,
    // every output element computed whole inside one task. Any
    // nonzero diff here is a bug (the baseline pins exactly 0).
    {
        const std::int64_t k = 192, n = 96;
        Rng rng3(11);
        const Tensor a3 = Tensor::randomUniform({1, k}, DType::F32,
                                                rng3, -1.0f, 1.0f);
        const Tensor b3 = Tensor::randomUniform({k, n}, DType::F32,
                                                rng3, -1.0f, 1.0f);
        const gemm::PackedWeightsI4G q4(b3.data<float>(), k, n);
        std::vector<float> base(static_cast<std::size_t>(n));
        std::vector<float> other(static_cast<std::size_t>(n));

        setMaxThreads(1);
        gemm::gemvI4gFused(a3.data<float>(), q4, base.data());
        double worst = 0.0;
        for (const std::size_t threads : {std::size_t{2},
                                          std::size_t{3},
                                          std::size_t{0}}) {
            for (const ParallelBackend backend :
                 {ParallelBackend::Pool, ParallelBackend::Spawn}) {
                setMaxThreads(threads);
                setParallelBackend(backend);
                gemm::gemvI4gFused(a3.data<float>(), q4,
                                   other.data());
                worst = std::max(worst, maxAbsDiff(other, base));
            }
        }
        setParallelBackend(ParallelBackend::Pool);
        full.metrics["exact/i4g_gemv_thread_invariance"] = worst;

        // At m=1 the GEMM entry point runs the same body and tile as
        // the GEMV entry point — bitwise identical by the row contract.
        gemm::gemmAvx512I4gPacked(a3.data<float>(), q4, other.data(),
                                  1);
        full.metrics["exact/i4g_gemv_vs_gemm_m1"] =
            maxAbsDiff(other, base);
    }

    full.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_started)
            .count();

    // ---- report ----
    Table t({"kernel", "shape", "K", "N", "bf16 GFLOP/s",
             "quant GFLOP/s", "speedup", "bytes ratio"});
    t.setCaption("host quantized decode GEMV wall-clock (" +
                 std::string(quick ? "quick" : "full") + ", " +
                 std::to_string(hardwareThreads()) + " threads)");
    for (const Row& r : rows) {
        t.addRow({r.kernel, r.label, std::to_string(r.k),
                  std::to_string(r.n),
                  fmt(gflops(1, r.n, r.k, r.bf16S)),
                  fmt(gflops(1, r.n, r.k, r.quantS)),
                  fmt(r.bf16S / r.quantS), fmt(r.bytesRatio)});
    }
    t.print(std::cout);
    std::cout << "i4g decode GEMV speedup geomean vs packed bf16: "
              << fmt(full.metrics["speedup/i4g_gemv_decode_geomean"])
              << "x (" << fmt(full.metrics["bytes_reduction/"
                                           "i4g_geomean"])
              << "x fewer weight bytes)\n";

    if (!out_dir.empty()) {
        if (!core::writeBaseline(full, out_dir)) {
            std::cerr << "bench_host_quant: cannot write " << out_dir
                      << "\n";
            return 1;
        }
        std::cout << "wrote " << out_dir << "/" << full.filename()
                  << "\n";
    }
    if (!baseline_dir.empty()) {
        // Machine-relative subset only: GFLOP/s do not transfer
        // between machines; speedup ratios, byte footprints and the
        // deterministic accuracy/exactness metrics do.
        core::BenchBaseline portable = full;
        for (auto it = portable.metrics.begin();
             it != portable.metrics.end();) {
            if (it->first.rfind("speedup", 0) == 0 ||
                it->first.rfind("bytes_ratio/", 0) == 0 ||
                it->first.rfind("bytes_reduction/", 0) == 0 ||
                it->first.rfind("acc/", 0) == 0 ||
                it->first.rfind("exact/", 0) == 0)
                ++it;
            else
                it = portable.metrics.erase(it);
        }
        if (!core::writeBaseline(portable, baseline_dir)) {
            std::cerr << "bench_host_quant: cannot write "
                      << baseline_dir << "\n";
            return 1;
        }
        std::cout << "wrote " << baseline_dir << "/"
                  << portable.filename() << " (machine-relative "
                  << portable.metrics.size() << " metrics)\n";
    }

    int rc = 0;
    if (check_speedup > 0.0) {
        const double got =
            full.metrics["speedup/i4g_gemv_decode_geomean"];
        if (!(got >= check_speedup)) {
            std::cerr << "bench_host_quant: i4g decode GEMV speedup "
                      << fmt(got) << "x is below the required "
                      << fmt(check_speedup) << "x\n";
            rc = 1;
        } else {
            std::cout << "speedup check passed: " << fmt(got)
                      << "x >= " << fmt(check_speedup) << "x\n";
        }
    }
    if (check_bytes_reduction > 0.0) {
        const double got =
            full.metrics["bytes_reduction/i4g_geomean"];
        if (!(got >= check_bytes_reduction)) {
            std::cerr << "bench_host_quant: i4g bytes-moved "
                         "reduction "
                      << fmt(got) << "x is below the required "
                      << fmt(check_bytes_reduction) << "x\n";
            rc = 1;
        } else {
            std::cout << "bytes-reduction check passed: " << fmt(got)
                      << "x >= " << fmt(check_bytes_reduction)
                      << "x\n";
        }
    }
    return rc;
}
