/**
 * @file
 * Host kernel micro-benchmark: wall-clock GFLOP/s of the functional
 * GEMM path, packed-vs-unpacked and pooled-vs-spawn, across the
 * paper's decode (M=1..16) and prefill GEMM shapes.
 *
 * This measures *host* execution speed of the emulator — how fast the
 * figures and the serving simulator run on the development machine —
 * not the simulated device timing (src/perf computes that
 * analytically). Two baseline files come out of a run:
 *
 *  - --out DIR:          BENCH_host_gemm.json with every metric,
 *                        including machine-dependent GFLOP/s.
 *  - --baseline-out DIR: only the machine-relative metrics (the
 *                        "speedup/..." ratios and "exact/..."
 *                        packed-vs-unpacked diffs), which is what
 *                        bench/baselines/host commits and bench_diff
 *                        gates.
 *
 * Exit codes: 0 ok, 1 when --check-speedup is not met, 2 on usage
 * errors (unknown flags, malformed values) like the cpullm CLI.
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
#include "core/runtime_options.h"
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
    os << "usage: bench_host_gemm [--quick] [--out DIR]\n"
          "                       [--baseline-out DIR] [--threads N]\n"
          "                       [--check-speedup X]\n"
          "\n"
          "Wall-clock benchmark of the functional GEMM path:\n"
          "packed+pooled kernels vs the spawn-per-call unpacked path.\n"
          "\n"
          "  --quick           small shapes (the CI smoke settings)\n"
          "  --out DIR         write BENCH_host_gemm.json (all\n"
          "                    metrics, incl. machine-bound GFLOP/s)\n"
          "  --baseline-out DIR  write only machine-relative metrics\n"
          "                    (speedup/*, exact/*) for committing\n"
          "  --threads N       cap host threads (also CPULLM_THREADS)\n"
          "  --check-speedup X fail (exit 1) unless the AMX BF16\n"
          "                    decode geomean speedup is >= X\n";
}

[[noreturn]] void
usageError(const std::string& msg)
{
    std::cerr << "bench_host_gemm: " << msg << "\n\n";
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

struct Row
{
    std::string engine;
    std::string label;
    std::int64_t m, n, k;
    double unpackedSpawnS = 0.0;
    double unpackedPoolS = 0.0; ///< 0 when not measured
    double packedPoolS = 0.0;
};

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_dir;
    std::string baseline_dir;
    double check_speedup = 0.0;

    core::FlagValues knobs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> std::string {
            if (i + 1 >= argc)
                usageError(std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--out") {
            out_dir = value("--out");
        } else if (arg == "--baseline-out") {
            baseline_dir = value("--baseline-out");
        } else if (arg == "--threads") {
            knobs["threads"] = value("--threads");
        } else if (arg == "--check-speedup") {
            const std::string v = value("--check-speedup");
            char* end = nullptr;
            const double x = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(x > 0.0))
                usageError("--check-speedup expects a positive "
                           "number, got '" + v + "'");
            check_speedup = x;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            usageError("unknown flag: " + arg);
        }
    }
    core::applyProcessWide(
        core::resolveRuntimeOptions("bench_host_gemm", knobs));

    // The paper's GEMM shapes: decode GEMV-ish slivers M=1..16 over a
    // square weight, one prefill block. Quick mode shrinks the weight
    // so the ASan/Debug ctest smoke stays fast.
    const std::int64_t kn = quick ? 256 : 1024;
    const std::int64_t prefill_m = quick ? 64 : 256;
    const double min_s = quick ? 0.01 : 0.2;
    const std::vector<std::int64_t> decode_ms = {1, 2, 4, 8, 16};

    const auto run_started = std::chrono::steady_clock::now();
    core::BenchBaseline full;
    full.id = "host_gemm";
    full.title = "Host GEMM wall-clock: packed+pooled vs "
                 "spawn-per-call unpacked functional kernels";

    std::vector<Row> rows;
    std::vector<double> amx_decode_speedups;

    Rng rng(42);
    const Tensor bf =
        Tensor::randomUniform({kn, kn}, DType::F32, rng, -1.0f, 1.0f);
    const Tensor bb = bf.cast(DType::BF16);

    auto restore_pool = [] {
        setParallelBackend(ParallelBackend::Pool);
    };

    // ---- AMX BF16 (the gated path) and AVX-512 BF16 ----
    const gemm::PackedWeightsBf16 packed_bf16(bb.data<BFloat16>(), kn,
                                              kn);
    const gemm::PackedWeightsVnni packed_vnni(bb.data<BFloat16>(), kn,
                                              kn);

    std::vector<std::int64_t> shapes_m = decode_ms;
    shapes_m.push_back(prefill_m);
    for (const std::int64_t m : shapes_m) {
        const bool is_decode = m <= 16;
        // The prefill key omits M so quick and full runs stay
        // comparable through bench_diff.
        const std::string label =
            is_decode ? "decode_m" + std::to_string(m) : "prefill";
        Tensor af = Tensor::randomUniform({m, kn}, DType::F32, rng,
                                          -1.0f, 1.0f);
        const Tensor ab = af.cast(DType::BF16);
        std::vector<float> c(static_cast<std::size_t>(m * kn));

        // amx_bf16: the three-way comparison that isolates what the
        // pool buys vs what packing+register-blocking buys.
        Row r{"amx-bf16", label, m, kn, kn};
        setParallelBackend(ParallelBackend::Spawn);
        r.unpackedSpawnS = timeLoop(min_s, [&] {
            gemm::gemmAmxBf16(ab.data<BFloat16>(), bb.data<BFloat16>(),
                              c.data(), m, kn, kn);
        });
        restore_pool();
        r.unpackedPoolS = timeLoop(min_s, [&] {
            gemm::gemmAmxBf16(ab.data<BFloat16>(), bb.data<BFloat16>(),
                              c.data(), m, kn, kn);
        });
        r.packedPoolS = timeLoop(min_s, [&] {
            gemm::gemmAmxBf16Packed(ab.data<BFloat16>(), packed_bf16,
                                    c.data(), m);
        });
        rows.push_back(r);
        const double sp = r.unpackedSpawnS / r.packedPoolS;
        full.metrics["speedup/amx_bf16_" + label] = sp;
        full.metrics["speedup_pool/amx_bf16_" + label] =
            r.unpackedSpawnS / r.unpackedPoolS;
        full.metrics["gflops/amx_bf16_" + label + "_unpacked_spawn"] =
            gflops(m, kn, kn, r.unpackedSpawnS);
        full.metrics["gflops/amx_bf16_" + label + "_packed_pool"] =
            gflops(m, kn, kn, r.packedPoolS);
        if (is_decode)
            amx_decode_speedups.push_back(sp);

        // avx512-bf16: unpacked vs pair-interleaved.
        Row v{"avx512-bf16", label, m, kn, kn};
        setParallelBackend(ParallelBackend::Spawn);
        v.unpackedSpawnS = timeLoop(min_s, [&] {
            gemm::gemmAvx512Bf16(ab.data<BFloat16>(),
                                 bb.data<BFloat16>(), c.data(), m, kn,
                                 kn);
        });
        restore_pool();
        v.packedPoolS = timeLoop(min_s, [&] {
            gemm::gemmAvx512Bf16Packed(ab.data<BFloat16>(),
                                       packed_vnni, c.data(), m);
        });
        rows.push_back(v);
        full.metrics["speedup/avx512_bf16_" + label] =
            v.unpackedSpawnS / v.packedPoolS;
        full.metrics["gflops/avx512_bf16_" + label + "_packed_pool"] =
            gflops(m, kn, kn, v.packedPoolS);
    }
    full.metrics["speedup/amx_bf16_decode_geomean"] =
        geomean(amx_decode_speedups);

    // ---- AMX INT8 (decode sliver + prefill block) ----
    {
        float bmax = 0.0f;
        const float* bp = bf.data<float>();
        for (std::int64_t i = 0; i < kn * kn; ++i)
            bmax = std::max(bmax, std::fabs(bp[i]));
        const QuantParams qb = QuantParams::forAbsMax(bmax);
        std::vector<std::int8_t> bq(static_cast<std::size_t>(kn * kn));
        for (std::int64_t i = 0; i < kn * kn; ++i)
            bq[static_cast<std::size_t>(i)] = qb.quantize(bp[i]);
        const gemm::PackedWeightsI8 packed_i8(bp, kn, kn);

        std::vector<double> i8_speedups;
        for (const std::int64_t m :
             {std::int64_t{1}, std::int64_t{16}, prefill_m}) {
            const bool is_decode = m <= 16;
            const std::string label =
                is_decode ? "decode_m" + std::to_string(m)
                          : "prefill";
            Tensor af = Tensor::randomUniform({m, kn}, DType::F32,
                                              rng, -1.0f, 1.0f);
            const float* ap = af.data<float>();
            float amax = 0.0f;
            for (std::int64_t i = 0; i < m * kn; ++i)
                amax = std::max(amax, std::fabs(ap[i]));
            const QuantParams qa = QuantParams::forAbsMax(amax);
            std::vector<std::int8_t> aq(
                static_cast<std::size_t>(m * kn));
            for (std::int64_t i = 0; i < m * kn; ++i)
                aq[static_cast<std::size_t>(i)] = qa.quantize(ap[i]);
            std::vector<float> c(static_cast<std::size_t>(m * kn));

            Row r{"amx-int8", label, m, kn, kn};
            setParallelBackend(ParallelBackend::Spawn);
            r.unpackedSpawnS = timeLoop(min_s, [&] {
                gemm::gemmAmxI8(aq.data(), bq.data(), c.data(), m, kn,
                                kn, qa.scale, qb.scale);
            });
            restore_pool();
            r.packedPoolS = timeLoop(min_s, [&] {
                gemm::gemmAmxI8Packed(aq.data(), packed_i8, c.data(),
                                      m, qa.scale);
            });
            rows.push_back(r);
            const double sp = r.unpackedSpawnS / r.packedPoolS;
            full.metrics["speedup/amx_int8_" + label] = sp;
            full.metrics["gflops/amx_int8_" + label +
                         "_packed_pool"] = gflops(m, kn, kn,
                                                  r.packedPoolS);
            if (is_decode)
                i8_speedups.push_back(sp);
        }
        full.metrics["speedup/amx_int8_decode_geomean"] =
            geomean(i8_speedups);
    }

    // ---- packed-vs-unpacked agreement on a ragged shape ----
    // Packing only reorders bytes; any nonzero diff here is a bug
    // (the committed baseline pins these at exactly 0).
    {
        const std::int64_t m = 33, n = 77, k = 129;
        Rng rng2(7);
        const Tensor a2 = Tensor::randomUniform({m, k}, DType::F32,
                                                rng2, -1.0f, 1.0f);
        const Tensor b2 = Tensor::randomUniform({k, n}, DType::F32,
                                                rng2, -1.0f, 1.0f);
        for (const auto engine :
             {gemm::Engine::AmxBf16, gemm::Engine::Avx512Bf16,
              gemm::Engine::AmxI8}) {
            const Tensor want = gemm::matmul(engine, a2, b2);
            const Tensor got = gemm::matmul(
                engine, a2, gemm::PreparedB(engine, b2));
            std::string key = gemm::engineName(engine);
            for (auto& ch : key)
                if (ch == '-')
                    ch = '_';
            full.metrics["exact/" + key + "_packed_max_abs_diff"] =
                static_cast<double>(maxAbsDiff(got, want));
        }
    }

    full.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_started)
            .count();

    // ---- report ----
    Table t({"engine", "shape", "M", "N=K", "unpacked+spawn GFLOP/s",
             "packed+pool GFLOP/s", "speedup"});
    t.setCaption("host GEMM wall-clock (" +
                 std::string(quick ? "quick" : "full") + ", " +
                 std::to_string(hardwareThreads()) + " threads)");
    for (const Row& r : rows) {
        t.addRow({r.engine, r.label, std::to_string(r.m),
                  std::to_string(r.n),
                  fmt(gflops(r.m, r.n, r.k, r.unpackedSpawnS)),
                  fmt(gflops(r.m, r.n, r.k, r.packedPoolS)),
                  fmt(r.unpackedSpawnS / r.packedPoolS)});
    }
    t.print(std::cout);
    std::cout << "amx-bf16 decode speedup geomean (M=1..16): "
              << fmt(full.metrics["speedup/amx_bf16_decode_geomean"])
              << "x\n";

    if (!out_dir.empty()) {
        if (!core::writeBaseline(full, out_dir)) {
            std::cerr << "bench_host_gemm: cannot write " << out_dir
                      << "\n";
            return 1;
        }
        std::cout << "wrote " << out_dir << "/" << full.filename()
                  << "\n";
    }
    if (!baseline_dir.empty()) {
        // Machine-relative subset only: GFLOP/s do not transfer
        // between machines, speedup ratios and exactness do.
        core::BenchBaseline portable = full;
        for (auto it = portable.metrics.begin();
             it != portable.metrics.end();) {
            if (it->first.rfind("speedup", 0) == 0 ||
                it->first.rfind("exact/", 0) == 0)
                ++it;
            else
                it = portable.metrics.erase(it);
        }
        if (!core::writeBaseline(portable, baseline_dir)) {
            std::cerr << "bench_host_gemm: cannot write "
                      << baseline_dir << "\n";
            return 1;
        }
        std::cout << "wrote " << baseline_dir << "/"
                  << portable.filename() << " (machine-relative "
                  << portable.metrics.size() << " metrics)\n";
    }

    if (check_speedup > 0.0) {
        const double got =
            full.metrics["speedup/amx_bf16_decode_geomean"];
        if (!(got >= check_speedup)) {
            std::cerr << "bench_host_gemm: amx-bf16 decode speedup "
                      << fmt(got) << "x is below the required "
                      << fmt(check_speedup) << "x\n";
            return 1;
        }
        std::cout << "speedup check passed: " << fmt(got)
                  << "x >= " << fmt(check_speedup) << "x\n";
    }
    return 0;
}
