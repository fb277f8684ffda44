/**
 * @file
 * Host continuous-batching decode benchmark: wall-clock of the fused
 * ragged decode step (decodeStepRagged over the paged-KV block pool)
 * at batch sizes m in {1, 2, 4, 8, 16, 32} against the same model's
 * m=1 step. This is the mechanism behind `cpullm ... --batching
 * continuous`: one last-token row per live sequence fused into a
 * single m-row GEMM pass per projection, attention running per
 * sequence over its own paged span chunks.
 *
 * Decode at m=1 is bandwidth-bound on weight streaming (the paper's
 * Fig 8-11 regime), so fusing m sequences into one pass must amortize
 * the weight traffic into a near-linear aggregate tokens/s win — this
 * bench pins that scaling curve, the paged pool's byte accounting,
 * and the contract that makes fusion legal at all: ragged outputs
 * bitwise-equal to per-sequence sequential decode.
 *
 * Two baseline files come out of a run:
 *
 *  - --out DIR:          BENCH_host_batch_decode.json with every
 *                        metric, including machine-dependent tokens/s.
 *  - --baseline-out DIR: only the machine-relative metrics (the
 *                        "speedup/..." scaling ratios, the
 *                        deterministic "bytes_per_token/...",
 *                        "frag/..." pool accounting and "exact/..."
 *                        equivalence counts), which is what
 *                        bench/baselines/host commits and bench_diff
 *                        gates.
 *
 * Exit codes: 0 ok, 1 when --check-speedup is not met or an
 * equivalence/admission invariant breaks, 2 on usage errors like the
 * cpullm CLI.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/bench_suite.h"
#include "kv/paged_kv_cache.h"
#include "model/spec.h"
#include "model/transformer.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace cpullm;

constexpr int kUsageExit = 2;

void
usage(std::ostream& os)
{
    os << "usage: bench_host_batch_decode [--quick] [--out DIR]\n"
          "                               [--baseline-out DIR]\n"
          "                               [--threads N]\n"
          "                               [--check-speedup X]\n"
          "\n"
          "Wall-clock benchmark of the fused ragged decode step over\n"
          "the paged-KV block pool at batch sizes 1..32 (the\n"
          "continuous-batching iteration) vs the same model at m=1.\n"
          "\n"
          "  --quick           short timing windows (the CI smoke\n"
          "                    settings; shapes are unchanged so the\n"
          "                    committed baseline stays comparable)\n"
          "  --out DIR         write BENCH_host_batch_decode.json\n"
          "                    (all metrics, incl. machine-bound\n"
          "                    tokens/s)\n"
          "  --baseline-out DIR  write only machine-relative metrics\n"
          "                    (speedup/*, bytes_per_token/*, frag/*,\n"
          "                    exact/*)\n"
          "  --threads N       cap host threads (also CPULLM_THREADS)\n"
          "  --check-speedup X fail (exit 1) unless the m=16\n"
          "                    aggregate-decode speedup geomean across\n"
          "                    model specs is >= X\n";
}

[[noreturn]] void
usageError(const std::string& msg)
{
    std::cerr << "bench_host_batch_decode: " << msg << "\n\n";
    usage(std::cerr);
    std::exit(kUsageExit);
}

[[noreturn]] void
invariantError(const std::string& msg)
{
    std::cerr << "bench_host_batch_decode: " << msg << "\n";
    std::exit(1);
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

/** Equal-length random prompts in [0, vocab). */
std::vector<std::vector<std::int64_t>>
makePrompts(std::int64_t vocab, std::int64_t n, std::int64_t len,
            std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<std::int64_t>> prompts(
        static_cast<std::size_t>(n));
    for (auto& p : prompts) {
        p.resize(static_cast<std::size_t>(len));
        for (auto& tok : p)
            tok = static_cast<std::int64_t>(
                rng.uniformInt(static_cast<std::uint64_t>(vocab)));
    }
    return prompts;
}

/**
 * Bench specs sized so each model's weights (tens of MB in BF16)
 * overflow the last-level cache — the regime where m=1 decode is
 * bandwidth-bound on weight streaming and fusing rows into one GEMM
 * pass pays (the paper's Fig 8-11 argument). Toy test dims (d=64,
 * vocab<300) fit entirely in cache, are dominated by per-row compute
 * and per-call overheads, and understate the scaling the runtime
 * delivers on paper-scale models.
 */

/** OPT-flavoured spec (MHA, LayerNorm, learned pos, tied head). */
model::ModelSpec
benchOpt()
{
    model::ModelSpec s;
    s.name = "Bench-OPT";
    s.family = "test";
    s.numLayers = 4;
    s.dModel = 1024;
    s.numHeads = 16;
    s.numKvHeads = 16;
    s.dFf = 4096;
    s.vocabSize = 4099;
    s.maxSeqLen = 128;
    s.activation = model::Activation::ReLU;
    s.norm = model::NormKind::LayerNorm;
    s.posEmbedding = model::PosEmbedding::Learned;
    s.gatedFfn = false;
    s.linearBias = true;
    s.tiedEmbedding = true;
    s.validate();
    return s;
}

/** LLaMA-flavoured spec (GQA, RMSNorm, RoPE, SwiGLU). */
model::ModelSpec
benchLlama()
{
    model::ModelSpec s;
    s.name = "Bench-LLaMA";
    s.family = "test";
    s.numLayers = 4;
    s.dModel = 1024;
    s.numHeads = 16;
    s.numKvHeads = 4;
    s.dFf = 2816;
    s.vocabSize = 4096;
    s.maxSeqLen = 128;
    s.activation = model::Activation::SiLU;
    s.norm = model::NormKind::RMSNorm;
    s.posEmbedding = model::PosEmbedding::Rotary;
    s.gatedFfn = true;
    s.linearBias = false;
    s.tiedEmbedding = true;
    s.validate();
    return s;
}

/** A deeper narrow spec with an untied LM head. */
model::ModelSpec
benchDeep()
{
    model::ModelSpec s;
    s.name = "Bench-Deep";
    s.family = "test";
    s.numLayers = 8;
    s.dModel = 768;
    s.numHeads = 12;
    s.numKvHeads = 12;
    s.dFf = 3072;
    s.vocabSize = 3079;
    s.maxSeqLen = 128;
    s.activation = model::Activation::GELU;
    s.norm = model::NormKind::LayerNorm;
    s.posEmbedding = model::PosEmbedding::Learned;
    s.gatedFfn = false;
    s.linearBias = true;
    s.tiedEmbedding = false;
    s.validate();
    return s;
}

constexpr std::int64_t kCtx = 16;       ///< prompt tokens per sequence
constexpr std::int64_t kSteps = 8;      ///< timed fused decode steps
constexpr std::int64_t kBlockSize = 16; ///< paged-pool tokens/block

struct MeasureResult
{
    double tokensPerSecond = 0.0;
    double bytesPerToken = 0.0; ///< valid KV bytes per cached token
    double fragmentation = 0.0; ///< in-block slack after the run
};

/**
 * Steady-state aggregate decode throughput at batch m: prefill m
 * sequences into a fresh paged pool (untimed), then time kSteps fused
 * decodeStepRagged calls; repeat whole passes until the timed decode
 * region covers @p min_s.
 */
MeasureResult
measureDecode(model::TransformerModel& m,
              const std::vector<std::vector<std::int64_t>>& prompts,
              double min_s)
{
    const std::int64_t n =
        static_cast<std::int64_t>(prompts.size());
    const std::int64_t final_len = kCtx + 1 + kSteps;
    const std::int64_t per_seq =
        (final_len + kBlockSize - 1) / kBlockSize;
    kv::PagedKvCache cache =
        m.makePagedKvCache(kBlockSize, n * per_seq + 4);

    MeasureResult res;
    auto pass = [&](double* timed_acc) {
        cache.reset();
        std::vector<model::TransformerModel::RaggedSlot> slots(
            static_cast<std::size_t>(n));
        for (std::size_t b = 0; b < slots.size(); ++b) {
            const std::int64_t seq = cache.addSequence();
            const std::int64_t tok =
                m.prefillPaged(prompts[b], seq, cache);
            if (tok < 0)
                invariantError("paged pool rejected a prefill the "
                               "bench sized it for");
            slots[b] = {seq, tok};
        }
        using clock = std::chrono::steady_clock;
        const auto t0 = clock::now();
        for (std::int64_t step = 0; step < kSteps; ++step) {
            const auto next = m.decodeStepRagged(slots, cache);
            if (next.empty())
                invariantError("paged pool rejected a decode step "
                               "the bench sized it for");
            for (std::size_t b = 0; b < slots.size(); ++b)
                slots[b].token = next[b];
        }
        if (timed_acc)
            *timed_acc += std::chrono::duration<double>(clock::now() -
                                                        t0)
                              .count();
        res.bytesPerToken =
            static_cast<double>(cache.usedBytes()) /
            static_cast<double>(n * final_len);
        res.fragmentation = cache.fragmentation();
    };

    pass(nullptr); // warmup (touches weights and pool storage)
    double decode_s = 0.0;
    std::int64_t reps = 0;
    do {
        pass(&decode_s);
        ++reps;
    } while (decode_s < min_s);
    res.tokensPerSecond =
        static_cast<double>(n * kSteps * reps) / decode_s;
    return res;
}

/**
 * Count token mismatches between the fused ragged path and n
 * independent per-sequence runs, each alone on its own paged cache —
 * the bitwise-equivalence contract that makes the fusion legal. Any
 * nonzero count is a bug; the committed baseline pins exactly 0.
 */
std::int64_t
equivalenceMismatches(model::TransformerModel& m,
                      const std::vector<std::vector<std::int64_t>>&
                          prompts)
{
    const std::int64_t n =
        static_cast<std::int64_t>(prompts.size());
    const std::int64_t final_len = kCtx + 1 + kSteps;
    const std::int64_t per_seq =
        (final_len + kBlockSize - 1) / kBlockSize;

    // Reference: each sequence alone on its own paged cache.
    std::vector<std::vector<std::int64_t>> want(
        static_cast<std::size_t>(n));
    for (std::size_t b = 0; b < want.size(); ++b) {
        kv::PagedKvCache cache = m.makePagedKvCache(kBlockSize, per_seq);
        want[b] = m.generate({prompts[b]}, kSteps + 1, cache)[0];
    }

    // Fused: all sequences in one ragged step per iteration.
    kv::PagedKvCache cache =
        m.makePagedKvCache(kBlockSize, n * per_seq + 4);
    std::vector<model::TransformerModel::RaggedSlot> slots(
        static_cast<std::size_t>(n));
    std::vector<std::vector<std::int64_t>> got(
        static_cast<std::size_t>(n));
    for (std::size_t b = 0; b < slots.size(); ++b) {
        const std::int64_t seq = cache.addSequence();
        const std::int64_t tok = m.prefillPaged(prompts[b], seq, cache);
        if (tok < 0)
            invariantError("paged pool rejected the equivalence "
                           "prefill");
        slots[b] = {seq, tok};
        got[b].push_back(tok);
    }
    for (std::int64_t step = 0; step < kSteps; ++step) {
        const auto next = m.decodeStepRagged(slots, cache);
        if (next.empty())
            invariantError("paged pool rejected the equivalence "
                           "decode step");
        for (std::size_t b = 0; b < slots.size(); ++b) {
            slots[b].token = next[b];
            got[b].push_back(next[b]);
        }
    }

    std::int64_t mismatches = 0;
    for (std::size_t b = 0; b < want.size(); ++b)
        for (std::size_t i = 0; i < want[b].size(); ++i)
            if (want[b][i] != got[b][i])
                ++mismatches;
    return mismatches;
}

struct Row
{
    std::string spec;
    std::int64_t m = 0;
    double tokS = 0.0;
    double speedup = 0.0;
};

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_dir;
    std::string baseline_dir;
    double check_speedup = 0.0;

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

    // Same shapes in both modes — only the timing window shrinks in
    // quick mode, so the committed machine-relative baseline compares
    // against identical work.
    const double min_s = quick ? 0.02 : 0.25;
    const std::vector<std::int64_t> batches = {1, 2, 4, 8, 16, 32};
    const model::ModelSpec specs[] = {benchOpt(), benchLlama(),
                                      benchDeep()};

    const auto run_started = std::chrono::steady_clock::now();
    core::BenchBaseline full;
    full.id = "host_batch_decode";
    full.title = "Host continuous-batching decode: fused ragged "
                 "steps over the paged-KV pool vs m=1";

    std::vector<Row> rows;
    // speedups[m index] collects the per-spec ratios for the geomean.
    std::vector<std::vector<double>> speedups(batches.size());

    for (const model::ModelSpec& spec : specs) {
        model::TransformerModel m(spec, gemm::Engine::AmxBf16, 31);
        const std::string tag = spec.name;

        double m1_tok_s = 0.0;
        for (std::size_t bi = 0; bi < batches.size(); ++bi) {
            const std::int64_t batch = batches[bi];
            const auto prompts =
                makePrompts(spec.vocabSize, batch, kCtx, 51 + batch);
            const MeasureResult r = measureDecode(m, prompts, min_s);
            if (batch == 1) {
                m1_tok_s = r.tokensPerSecond;
                full.metrics["bytes_per_token/" + tag] =
                    r.bytesPerToken;
            }
            const double speedup = r.tokensPerSecond / m1_tok_s;
            full.metrics["toks/" + tag + "_m" +
                         std::to_string(batch)] = r.tokensPerSecond;
            if (batch > 1) {
                full.metrics["speedup/" + tag + "_m" +
                             std::to_string(batch)] = speedup;
                speedups[bi].push_back(speedup);
            }
            if (batch == 8)
                full.metrics["frag/" + tag + "_m8"] = r.fragmentation;
            rows.push_back({tag, batch, r.tokensPerSecond, speedup});
        }

        full.metrics["exact/" + tag + "_ragged_vs_sequential"] =
            static_cast<double>(equivalenceMismatches(
                m, makePrompts(spec.vocabSize, 4, kCtx, 97)));
    }

    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
        if (speedups[bi].empty())
            continue;
        full.metrics["speedup/batch" +
                     std::to_string(batches[bi]) + "_geomean"] =
            geomean(speedups[bi]);
    }

    full.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_started)
            .count();

    // ---- report ----
    Table t({"model", "m", "decode tok/s", "speedup vs m=1"});
    t.setCaption("host fused ragged decode over the paged-KV pool (" +
                 std::string(quick ? "quick" : "full") + ", " +
                 std::to_string(hardwareThreads()) + " threads)");
    for (const Row& r : rows) {
        t.addRow({r.spec, std::to_string(r.m), fmt(r.tokS),
                  fmt(r.speedup)});
    }
    t.print(std::cout);
    std::cout << "m=16 aggregate decode speedup geomean vs m=1: "
              << fmt(full.metrics["speedup/batch16_geomean"])
              << "x across " << std::size(specs) << " model specs\n";

    if (!out_dir.empty()) {
        if (!core::writeBaseline(full, out_dir)) {
            std::cerr << "bench_host_batch_decode: cannot write "
                      << out_dir << "\n";
            return 1;
        }
        std::cout << "wrote " << out_dir << "/" << full.filename()
                  << "\n";
    }
    if (!baseline_dir.empty()) {
        // Machine-relative subset only: raw tokens/s do not transfer
        // between machines; the scaling ratios, the deterministic
        // pool byte accounting and the equivalence counts do.
        core::BenchBaseline portable = full;
        for (auto it = portable.metrics.begin();
             it != portable.metrics.end();) {
            if (it->first.rfind("speedup/", 0) == 0 ||
                it->first.rfind("bytes_per_token/", 0) == 0 ||
                it->first.rfind("frag/", 0) == 0 ||
                it->first.rfind("exact/", 0) == 0)
                ++it;
            else
                it = portable.metrics.erase(it);
        }
        if (!core::writeBaseline(portable, baseline_dir)) {
            std::cerr << "bench_host_batch_decode: cannot write "
                      << baseline_dir << "\n";
            return 1;
        }
        std::cout << "wrote " << baseline_dir << "/"
                  << portable.filename() << " (machine-relative "
                  << portable.metrics.size() << " metrics)\n";
    }

    int rc = 0;
    for (const model::ModelSpec& spec : specs) {
        const double mism =
            full.metrics["exact/" + spec.name +
                         "_ragged_vs_sequential"];
        if (mism != 0.0) {
            std::cerr << "bench_host_batch_decode: " << spec.name
                      << " ragged decode diverged from sequential "
                         "decode ("
                      << mism << " token mismatches)\n";
            rc = 1;
        }
    }
    if (check_speedup > 0.0) {
        const double got = full.metrics["speedup/batch16_geomean"];
        if (!(got >= check_speedup)) {
            std::cerr << "bench_host_batch_decode: m=16 decode "
                         "speedup geomean "
                      << fmt(got) << "x is below the required "
                      << fmt(check_speedup) << "x\n";
            rc = 1;
        } else {
            std::cout << "speedup check passed: " << fmt(got)
                      << "x >= " << fmt(check_speedup) << "x\n";
        }
    }
    return rc;
}
