/**
 * @file
 * Host attention micro-benchmark: wall-clock of the fused, parallel
 * decode/prefill attention kernel (gemm::attnFusedRagged over
 * contiguous kv::KvCache spans) against the naive per-position loop
 * the transformer used before — readK/readV element copies through
 * Tensor::at, one scalar dot per (head, position), a two-pass
 * softmax, and per-call kbuf/vbuf/scores heap buffers.
 *
 * This measures *host* execution speed of the functional kernel — how
 * fast decode attention runs on the development machine — not simulated
 * device timing (src/perf computes that analytically). Two baseline
 * files come out of a run:
 *
 *  - --out DIR:          BENCH_host_attention.json with every metric,
 *                        including machine-dependent rows/s.
 *  - --baseline-out DIR: only the machine-relative metrics — the
 *                        "speedup/..." ratios plus the "exact/..."
 *                        booleans (fused-vs-reference within
 *                        kAttnTolerance, bitwise thread invariance),
 *                        which bench/baselines/host commits and
 *                        bench_diff gates.
 *
 * Exit codes: 0 ok, 1 when --check-speedup is not met, 2 on usage
 * errors (unknown flags, malformed values) like the cpullm CLI.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/bench_suite.h"
#include "core/runtime_options.h"
#include "gemm/attention.h"
#include "kv/kv_cache.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace cpullm;

constexpr int kUsageExit = 2;

void
usage(std::ostream& os)
{
    os << "usage: bench_host_attention [--quick] [--out DIR]\n"
          "                            [--baseline-out DIR] "
          "[--threads N]\n"
          "                            [--check-speedup X]\n"
          "\n"
          "Wall-clock benchmark of fused decode/prefill attention\n"
          "over contiguous KV-cache spans vs the naive per-position\n"
          "readK/readV loop.\n"
          "\n"
          "  --quick           short timing loops (the CI settings)\n"
          "  --out DIR         write BENCH_host_attention.json (all\n"
          "                    metrics, incl. machine-bound rows/s)\n"
          "  --baseline-out DIR  write only machine-relative metrics\n"
          "                    (speedup/*, exact/*) for committing\n"
          "  --threads N       cap host threads (also CPULLM_THREADS)\n"
          "  --check-speedup X fail (exit 1) unless the decode\n"
          "                    geomean speedup at spans >= 512 is\n"
          "                    >= X\n";
}

[[noreturn]] void
usageError(const std::string& msg)
{
    std::cerr << "bench_host_attention: " << msg << "\n\n";
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

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3g", v);
    return buf;
}

/**
 * The pre-fused transformer attention loop, verbatim: per-element
 * cache reads, scalar dots, two-pass softmax, fresh heap buffers
 * every call.
 */
void
naiveAttention(const kv::KvCache& cache, const float* q, float* out,
               std::int64_t b, std::int64_t heads,
               std::int64_t kv_heads, std::int64_t hd,
               std::int64_t span)
{
    const std::int64_t group = heads / kv_heads;
    const std::int64_t d_kv = cache.dKv();
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    std::vector<float> kbuf(static_cast<std::size_t>(d_kv));
    std::vector<float> vbuf(static_cast<std::size_t>(d_kv));
    std::vector<float> scores(static_cast<std::size_t>(span));
    for (std::int64_t h = 0; h < heads; ++h) {
        const std::int64_t kvh = h / group;
        const float* qh = q + h * hd;
        for (std::int64_t p = 0; p < span; ++p) {
            cache.readK(0, b, p, kbuf.data());
            const float* kh = kbuf.data() + kvh * hd;
            float dot = 0.0f;
            for (std::int64_t i = 0; i < hd; ++i)
                dot += qh[i] * kh[i];
            scores[static_cast<std::size_t>(p)] = dot * scale;
        }
        float mx = scores[0];
        for (std::int64_t p = 1; p < span; ++p)
            mx = std::max(mx, scores[static_cast<std::size_t>(p)]);
        float sum = 0.0f;
        for (std::int64_t p = 0; p < span; ++p) {
            scores[static_cast<std::size_t>(p)] =
                std::exp(scores[static_cast<std::size_t>(p)] - mx);
            sum += scores[static_cast<std::size_t>(p)];
        }
        const float inv = 1.0f / sum;
        float* ch = out + h * hd;
        for (std::int64_t i = 0; i < hd; ++i)
            ch[i] = 0.0f;
        for (std::int64_t p = 0; p < span; ++p) {
            cache.readV(0, b, p, vbuf.data());
            const float* vh = vbuf.data() + kvh * hd;
            const float pw = scores[static_cast<std::size_t>(p)] * inv;
            for (std::int64_t i = 0; i < hd; ++i)
                ch[i] += pw * vh[i];
        }
    }
}

struct ShapeCfg
{
    const char* name; ///< metric key segment
    std::int64_t heads, kvHeads, headDim;
};

/** One decode config's storage: a filled cache and query/output. */
struct DecodeSetup
{
    kv::KvCache cache;
    std::int64_t batch, span;
    gemm::AttnShape shape;
    std::vector<float> q, out;

    DecodeSetup(const ShapeCfg& s, std::int64_t batch_,
                std::int64_t span_, DType dtype, Rng& rng)
        : cache(1, batch_, s.kvHeads * s.headDim, span_, dtype),
          batch(batch_), span(span_),
          shape{s.heads, s.kvHeads, s.headDim}
    {
        const std::int64_t d_kv = s.kvHeads * s.headDim;
        const std::int64_t width = s.heads * s.headDim;
        std::vector<float> k(static_cast<std::size_t>(d_kv));
        std::vector<float> v(static_cast<std::size_t>(d_kv));
        for (std::int64_t b = 0; b < batch_; ++b) {
            for (std::int64_t p = 0; p < span_; ++p) {
                for (auto& x : k)
                    x = static_cast<float>(rng.uniform(-1.0, 1.0));
                for (auto& x : v)
                    x = static_cast<float>(rng.uniform(-1.0, 1.0));
                cache.write(0, b, p, k.data(), v.data());
            }
        }
        cache.setSeqLen(span_);
        q.resize(static_cast<std::size_t>(batch_ * width));
        out.assign(q.size(), 0.0f);
        for (auto& x : q)
            x = static_cast<float>(rng.uniform(-1.0, 1.0));
    }

    std::vector<gemm::AttnSeqView>
    views(std::vector<kv::KvSpan>& ks, std::vector<kv::KvSpan>& vs)
    {
        const std::int64_t width = shape.heads * shape.headDim;
        ks.resize(static_cast<std::size_t>(batch));
        vs.resize(static_cast<std::size_t>(batch));
        std::vector<gemm::AttnSeqView> seqs(
            static_cast<std::size_t>(batch));
        for (std::int64_t b = 0; b < batch; ++b) {
            const auto sb = static_cast<std::size_t>(b);
            ks[sb] = cache.kSpan(0, b);
            vs[sb] = cache.vSpan(0, b);
            seqs[sb].q = q.data() + b * width;
            seqs[sb].out = out.data() + b * width;
            seqs[sb].k = &ks[sb];
            seqs[sb].v = &vs[sb];
            seqs[sb].chunks = 1;
        }
        return seqs;
    }

    void
    runFused()
    {
        std::vector<kv::KvSpan> ks, vs;
        std::vector<gemm::AttnRaggedSeq> slots;
        for (const gemm::AttnSeqView& v : views(ks, vs))
            slots.push_back({v, span - 1, 1});
        gemm::attnFusedRagged(shape, slots.data(), slots.size());
    }

    void
    runNaive()
    {
        const std::int64_t width = shape.heads * shape.headDim;
        for (std::int64_t b = 0; b < batch; ++b)
            naiveAttention(cache, q.data() + b * width,
                           out.data() + b * width, b, shape.heads,
                           shape.kvHeads, shape.headDim, span);
    }
};

float
maxAbsDiff(const std::vector<float>& a, const std::vector<float>& b)
{
    float worst = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

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
        core::resolveRuntimeOptions("bench_host_attention", knobs));

    // Decode: batch 2 sequences over the paper's span sweep. Quick
    // and full run the SAME shapes and spans so their metric keys
    // stay bench_diff-comparable; quick only shortens the timing
    // loops (and the prefill span below).
    const double min_s = quick ? 0.005 : 0.2;
    const std::int64_t batch = 2;
    const std::vector<std::int64_t> spans = {128, 512, 1024};
    const ShapeCfg mha{"mha", 8, 8, 64}; // OPT-style heads
    const ShapeCfg gqa{"gqa", 8, 2, 64}; // LLaMA-style grouped kv

    const auto run_started = std::chrono::steady_clock::now();
    core::BenchBaseline full;
    full.id = "host_attention";
    full.title = "Host attention wall-clock: fused parallel "
                 "span kernel vs naive per-position readK/readV loop";

    Rng rng(42);
    Table t({"config", "span", "naive ms", "fused ms", "speedup",
             "fused Mrows/s"});
    t.setCaption("host decode attention wall-clock (" +
                 std::string(quick ? "quick" : "full") + ", " +
                 std::to_string(hardwareThreads()) + " threads)");

    bool within_tol = true;
    std::vector<double> ge512_speedups;
    for (const ShapeCfg& shape : {mha, gqa}) {
        for (const std::int64_t span : spans) {
            DecodeSetup d(shape, batch, span, DType::BF16, rng);

            // Correctness first: fused vs the reference kernel.
            std::vector<kv::KvSpan> ks, vs;
            auto seqs = d.views(ks, vs);
            gemm::attnRef(d.shape, 1, span - 1, seqs.data(),
                          seqs.size());
            const std::vector<float> want = d.out;
            d.runFused();
            if (maxAbsDiff(d.out, want) > gemm::kAttnTolerance)
                within_tol = false;

            const double naive_s =
                timeLoop(min_s, [&] { d.runNaive(); });
            const double fused_s =
                timeLoop(min_s, [&] { d.runFused(); });
            const double sp = naive_s / fused_s;
            const std::string key = std::string(shape.name) +
                                    "_span" + std::to_string(span);
            full.metrics["speedup/decode_" + key] = sp;
            // K/V rows streamed per second, the bandwidth-style view
            // (machine-bound; excluded from the committed subset).
            const double rows = static_cast<double>(
                batch * shape.kvHeads * span);
            full.metrics["rows_per_s/decode_" + key + "_fused"] =
                rows / fused_s;
            if (span >= 512)
                ge512_speedups.push_back(sp);
            t.addRow({std::string(shape.name) + " bf16",
                      std::to_string(span), fmt(naive_s * 1e3),
                      fmt(fused_s * 1e3), fmt(sp),
                      fmt(rows / fused_s / 1e6)});
        }
    }

    // One F32-cache decode point: the span path with no BF16
    // widening on the stream.
    {
        DecodeSetup d(mha, batch, 512, DType::F32, rng);
        std::vector<kv::KvSpan> ks, vs;
        auto seqs = d.views(ks, vs);
        gemm::attnRef(d.shape, 1, 511, seqs.data(), seqs.size());
        const std::vector<float> want = d.out;
        d.runFused();
        if (maxAbsDiff(d.out, want) > gemm::kAttnTolerance)
            within_tol = false;
        const double naive_s = timeLoop(min_s, [&] { d.runNaive(); });
        const double fused_s = timeLoop(min_s, [&] { d.runFused(); });
        full.metrics["speedup/decode_f32_span512"] = naive_s / fused_s;
        t.addRow({"mha f32", "512", fmt(naive_s * 1e3),
                  fmt(fused_s * 1e3), fmt(naive_s / fused_s), "-"});
    }

    // Prefill: the fused kernel batches all query positions into one
    // call; the naive path re-ran single-position attention per
    // token. The metric key omits the span so quick (64 tokens) and
    // full (128) runs stay comparable only within their own mode —
    // the committed baseline comes from a quick run.
    {
        const std::int64_t m = quick ? 64 : 128;
        const ShapeCfg& shape = mha;
        const std::int64_t width = shape.heads * shape.headDim;
        DecodeSetup d(shape, 1, m, DType::BF16, rng);
        d.q.resize(static_cast<std::size_t>(m * width));
        d.out.assign(d.q.size(), 0.0f);
        for (auto& x : d.q)
            x = static_cast<float>(rng.uniform(-1.0, 1.0));

        const double naive_s = timeLoop(min_s, [&] {
            for (std::int64_t p = 0; p < m; ++p)
                naiveAttention(d.cache, d.q.data() + p * width,
                               d.out.data() + p * width, 0,
                               shape.heads, shape.kvHeads,
                               shape.headDim, p + 1);
        });
        const double fused_s = timeLoop(min_s, [&] {
            kv::KvSpan ks = d.cache.kSpan(0, 0);
            kv::KvSpan vs = d.cache.vSpan(0, 0);
            gemm::AttnRaggedSeq slot;
            slot.view.q = d.q.data();
            slot.view.out = d.out.data();
            slot.view.k = &ks;
            slot.view.v = &vs;
            slot.view.chunks = 1;
            slot.pos0 = 0;
            slot.m = m;
            gemm::attnFusedRagged(d.shape, &slot, 1);
        });
        full.metrics["speedup/prefill_mha"] = naive_s / fused_s;
        t.addRow({"mha prefill m" + std::to_string(m), "-",
                  fmt(naive_s * 1e3), fmt(fused_s * 1e3),
                  fmt(naive_s / fused_s), "-"});
    }

    // Thread invariance: the (sequence x kv-head) grid must produce
    // bitwise-identical output under any thread count.
    bool invariant = true;
    {
        Rng r2(7);
        DecodeSetup one(gqa, batch, 256, DType::BF16, r2);
        Rng r3(7);
        DecodeSetup many(gqa, batch, 256, DType::BF16, r3);
        setMaxThreads(1);
        one.runFused();
        setMaxThreads(4);
        many.runFused();
        setMaxThreads(0);
        invariant = one.out == many.out;
    }

    const double geo = geomean(ge512_speedups);
    full.metrics["speedup/decode_geomean_ge512"] = geo;
    // Booleans pinned at 1: any drift on another machine is a real
    // kernel defect, not wall-clock noise.
    full.metrics["exact/fused_within_tol"] = within_tol ? 1.0 : 0.0;
    full.metrics["exact/thread_invariant"] = invariant ? 1.0 : 0.0;
    full.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_started)
            .count();

    t.print(std::cout);
    std::cout << "decode speedup geomean (spans >= 512): " << fmt(geo)
              << "x; fused within tolerance: "
              << (within_tol ? "yes" : "NO")
              << "; thread invariant: " << (invariant ? "yes" : "NO")
              << "\n";

    if (!out_dir.empty()) {
        if (!core::writeBaseline(full, out_dir)) {
            std::cerr << "bench_host_attention: cannot write "
                      << out_dir << "\n";
            return 1;
        }
        std::cout << "wrote " << out_dir << "/" << full.filename()
                  << "\n";
    }
    if (!baseline_dir.empty()) {
        // Machine-relative subset only: rows/s do not transfer
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
            std::cerr << "bench_host_attention: cannot write "
                      << baseline_dir << "\n";
            return 1;
        }
        std::cout << "wrote " << baseline_dir << "/"
                  << portable.filename() << " (machine-relative "
                  << portable.metrics.size() << " metrics)\n";
    }

    if (!within_tol || !invariant) {
        std::cerr << "bench_host_attention: kernel correctness check "
                     "failed\n";
        return 1;
    }
    if (check_speedup > 0.0) {
        if (!(geo >= check_speedup)) {
            std::cerr << "bench_host_attention: decode speedup "
                      << fmt(geo) << "x is below the required "
                      << fmt(check_speedup) << "x\n";
            return 1;
        }
        std::cout << "speedup check passed: " << fmt(geo)
                  << "x >= " << fmt(check_speedup) << "x\n";
    }
    return 0;
}
