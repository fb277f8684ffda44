/**
 * @file
 * Host serving benchmark over the functional inference path.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <chrome-trace.json>]
 *
 * Builds one LLaMA-2-shaped model (GQA, RoPE, SwiGLU) through the
 * public model::TransformerModel constructor, generates the
 * workload's requests from the seed, and drives them through the
 * public model and serve calls for about --seconds, timing every call
 * from outside:
 *
 *  - chat_bf16:    one closed-loop client, bf16 weights, short prompts
 *  - longctx_int4: one closed-loop client, INT4 weights, long prompts
 *  - batch_shared_prefix: every request submitted up front to a
 *    ContinuousBatcher; a common system prompt and a tight KV pool
 *
 * With --trace 0 it prints the end-to-end metrics; with --trace 1 it
 * runs the workload untraced and then traced, and prints the layers'
 * counter deltas, the sampling profiler's per-op self shares and the
 * tracing overhead. Outputs are checked outside the timed region; the
 * last stdout line is one JSON object, and any failed request makes
 * the exit code nonzero. perfbench/README.md lists what each metric
 * means and which end-to-end metric each layer metric should move.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "gemm/attention.h"
#include "gemm/packed_weights.h"
#include "model/transformer.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "serve/batcher.h"
#include "util/parallel.h"
#include "util/thread_pool.h"
#include "util/thread_registry.h"

namespace {

using namespace cpullm;
using Clock = std::chrono::steady_clock;
using Tokens = std::vector<std::int64_t>;

const Clock::time_point g_start = Clock::now();

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Trace timestamps: seconds since the benchmark started. */
double
traceTime(Clock::time_point t)
{
    return seconds(g_start, t);
}

/**
 * LLaMA-2 shaped (RMSNorm, RoPE, SwiGLU, GQA with 3 query heads per
 * KV head, untied head), scaled down so the vocabulary head is a
 * small share of the weights as in the paper's models.
 */
model::ModelSpec
benchSpec()
{
    model::ModelSpec s;
    s.name = "bench-llama2";
    s.family = "llama2";
    s.numLayers = 4;
    s.dModel = 768;
    s.numHeads = 12;
    s.numKvHeads = 4;
    s.dFf = 2048;
    s.vocabSize = 4096;
    s.maxSeqLen = 2048;
    s.activation = model::Activation::SiLU;
    s.norm = model::NormKind::RMSNorm;
    s.posEmbedding = model::PosEmbedding::Rotary;
    s.gatedFfn = true;
    s.linearBias = false;
    s.tiedEmbedding = false;
    return s;
}

constexpr std::int64_t kBlockSize = 16;
constexpr int kSetupReps = 3;

struct Workload
{
    const char* name;
    gemm::WeightDtype wquant;
    /** Through serve::ContinuousBatcher (else one closed-loop client
     *  calling prefillPaged / decodeStepRagged). */
    bool batched;
    std::int64_t requests; ///< per round
    std::int64_t promptLo, promptHi; ///< unique prompt tokens
    std::int64_t genLo, genHi;       ///< generated tokens
    std::int64_t sharedPrefix;       ///< common system-prompt tokens
    serve::BatcherConfig batcher;    ///< batched workloads only
};

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"chat_bf16", gemm::WeightDtype::Native, false, 4, 64, 256, 16,
         64, 0, {}},
        {"batch_shared_prefix", gemm::WeightDtype::Native, true, 32, 8,
         40, 16, 64, 200, {16, kBlockSize, 72, true}},
        {"longctx_int4", gemm::WeightDtype::I4Grouped, false, 2, 512,
         1024, 96, 160, 0, {}},
    };
    return all;
}

struct Request
{
    Tokens prompt;
    std::int64_t genLen = 0;
};

/**
 * One round of the workload's requests. Prompt and output lengths
 * are evenly spaced over their ranges and interleaved in a fixed
 * order, so every seed runs the same schedule (and the batcher the
 * same steps and preemptions); the token ids come from the seed.
 */
std::vector<Request>
makeRound(const Workload& w, std::uint64_t seed)
{
    Rng rng(seed);
    const std::int64_t vocab = benchSpec().vocabSize;
    auto tokens = [&](std::int64_t n) {
        Tokens t;
        for (std::int64_t i = 0; i < n; ++i)
            t.push_back(static_cast<std::int64_t>(
                rng.uniformInt(static_cast<std::uint64_t>(vocab))));
        return t;
    };
    const Tokens system = tokens(w.sharedPrefix);
    const auto plens =
        perfbench::interleave(perfbench::ladder(w.promptLo, w.promptHi,
                                                w.requests),
                              3);
    const auto glens = perfbench::interleave(
        perfbench::ladder(w.genLo, w.genHi, w.requests), 5);
    std::vector<Request> round;
    for (std::int64_t i = 0; i < w.requests; ++i) {
        Request r;
        r.prompt = system;
        const Tokens tail = tokens(plens[static_cast<std::size_t>(i)]);
        r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
        r.genLen = glens[static_cast<std::size_t>(i)];
        round.push_back(std::move(r));
    }
    return round;
}

/** Pool blocks one request of the workload needs when run alone. */
std::int64_t
blocksAlone(const Workload& w)
{
    const std::int64_t tokens = w.sharedPrefix + w.promptHi + w.genHi;
    return (tokens + kBlockSize - 1) / kBlockSize + 1;
}

/** Everything one timed phase measured. */
struct Phase
{
    std::vector<double> ttft, tpot; ///< seconds
    double prefillSeconds = 0.0;
    std::int64_t prefillTokens = 0; ///< prompt tokens run
    std::int64_t outTokens = 0;     ///< generated tokens
    std::int64_t forwards = 0;      ///< model forward passes
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t rounds = 0;
    double wall = 0.0;
    std::vector<double> roundWalls; ///< seconds per round
    /**
     * Per-round results. Rounds repeat identical work, and another
     * tenant on a shared host can only slow a round down, so the
     * end-to-end metrics take the best round: lowest p50 latencies,
     * highest rates.
     */
    std::vector<double> ttftP50, tpotP50;     ///< seconds
    std::vector<double> outRates, prefillRates; ///< tok/s
    std::uint64_t digest = perfbench::kDigestSeed;
    std::vector<Tokens> firstRound; ///< outputs of round 0

    serve::BatchStats serve;   ///< summed over waves
    kv::PagedPoolStats kv;     ///< deltas, summed over caches
    double kvPeakFrac = 0.0;   ///< highest pool watermark share
    std::int64_t kvTokens = 0; ///< K/V rows written
    /** Prompt tokens prefilled at first admissions (batched). */
    std::int64_t firstPrefillTokens = 0;
};

void
addPoolStats(Phase& ph, const kv::PagedPoolStats& before,
             const kv::PagedKvCache& cache)
{
    const kv::PagedPoolStats& s = cache.stats();
    ph.kv.blockAllocs += s.blockAllocs - before.blockAllocs;
    ph.kv.cowCopies += s.cowCopies - before.cowCopies;
    ph.kv.prefixSharedBlocks +=
        s.prefixSharedBlocks - before.prefixSharedBlocks;
    ph.kvPeakFrac = std::max(
        ph.kvPeakFrac, static_cast<double>(cache.numBlocks() -
                                           s.minFreeBlocks) /
                           static_cast<double>(cache.numBlocks()));
}

/** Span on a request's track, annotated with the request id. */
void
traceSpan(obs::Tracer* tr, const char* name, const std::string& thread,
          std::int64_t req, Clock::time_point t0, Clock::time_point t1)
{
    if (tr == nullptr)
        return;
    obs::Span s = tr->begin(name, "perfbench",
                            tr->track("perfbench", thread),
                            traceTime(t0));
    if (req >= 0)
        s.annotate("req", static_cast<double>(req));
    s.close(traceTime(t1));
}

std::string
reqTrack(std::int64_t req)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "req %04lld",
                  static_cast<long long>(req));
    return buf;
}

/**
 * Run one request alone: prefillPaged, then decodeStepRagged until
 * genLen tokens. Returns the generated tokens, or an empty vector if
 * the model refused a call. Records timings into @p ph when given.
 */
Tokens
runAlone(model::TransformerModel& m, kv::PagedKvCache& cache,
         const Request& r, Phase* ph, obs::Tracer* tr, std::int64_t req)
{
    const std::int64_t seq = cache.addSequence();
    const std::string track = reqTrack(req);
    Tokens out;
    Clock::time_point t0 = Clock::now();
    std::int64_t tok = m.prefillPaged(r.prompt, seq, cache);
    Clock::time_point t1 = Clock::now();
    traceSpan(tr, "prefillPaged", track, req, t0, t1);
    if (ph != nullptr) {
        ph->ttft.push_back(seconds(t0, t1));
        ph->prefillSeconds += seconds(t0, t1);
        ph->prefillTokens += static_cast<std::int64_t>(r.prompt.size());
        ph->kvTokens += static_cast<std::int64_t>(r.prompt.size());
        ++ph->forwards;
    }
    while (tok >= 0) {
        out.push_back(tok);
        if (static_cast<std::int64_t>(out.size()) == r.genLen)
            break;
        t0 = Clock::now();
        const Tokens next = m.decodeStepRagged({{seq, tok}}, cache);
        t1 = Clock::now();
        traceSpan(tr, "decodeStepRagged", track, req, t0, t1);
        if (ph != nullptr) {
            ph->tpot.push_back(seconds(t0, t1));
            ++ph->kvTokens;
            ++ph->forwards;
        }
        tok = next.empty() ? -1 : next[0];
    }
    cache.releaseSequence(seq);
    if (tok < 0)
        out.clear();
    return out;
}

/**
 * Times the forward passes ContinuousBatcher::run() makes internally.
 * Every forward pass opens the model's "embedding" frame and closes
 * its "lm_head" frame on the calling thread, and the threadreg frame
 * sink reports both. The batcher's public stats, read as each pass
 * starts, tell prefills (admitted grew) from decode steps (steps
 * grew) afterwards.
 */
class PassObserver
{
  public:
    struct Pass
    {
        Clock::time_point start, end;
        serve::BatchStats before;
    };

    explicit PassObserver(const serve::ContinuousBatcher& b)
        : batcher_(b), thread_(std::this_thread::get_id())
    {
        active_.store(this);
        threadreg::setFrameSink(&PassObserver::sink);
    }

    ~PassObserver()
    {
        threadreg::setFrameSink(nullptr);
        active_.store(nullptr);
    }

    PassObserver(const PassObserver&) = delete;
    PassObserver& operator=(const PassObserver&) = delete;

    const std::vector<Pass>& passes() const { return passes_; }

  private:
    static void
    sink(bool begin, const char* name)
    {
        PassObserver* self = active_.load();
        if (self == nullptr || std::this_thread::get_id() != self->thread_)
            return;
        if (begin && std::strcmp(name, "embedding") == 0) {
            self->passes_.push_back(
                {Clock::now(), Clock::now(), self->batcher_.stats()});
        } else if (!begin && std::strcmp(name, "lm_head") == 0 &&
                   !self->passes_.empty()) {
            self->passes_.back().end = Clock::now();
        }
    }

    static inline std::atomic<PassObserver*> active_{nullptr};
    const serve::ContinuousBatcher& batcher_;
    std::thread::id thread_;
    std::vector<Pass> passes_;
};

/**
 * One batched round: submit every request up front, run the batcher
 * to completion. TTFT runs from the run() call to the end of the
 * request's first prefill; preempted requests re-enter at the front
 * of the queue, so the n-th first-time admission is request n.
 */
std::vector<Tokens>
runWave(model::TransformerModel& m, const Workload& w,
        const std::vector<Request>& reqs, Phase& ph, obs::Tracer* tr,
        std::int64_t req_base)
{
    serve::ContinuousBatcher b(m, w.batcher);
    for (const Request& r : reqs)
        b.submit({r.prompt, r.genLen});
    const kv::PagedPoolStats pool0 = b.pool().stats();
    std::vector<Tokens> outs;
    std::vector<PassObserver::Pass> passes;
    const Clock::time_point t0 = Clock::now();
    {
        PassObserver observer(b);
        outs = b.run();
        passes = observer.passes();
    }
    const Clock::time_point t1 = Clock::now();
    traceSpan(tr, "ContinuousBatcher::run", "batcher", -1, t0, t1);

    const serve::BatchStats& after = b.stats();
    std::int64_t readmits = 0, first_admits = 0, preempts_seen = 0;
    bool consistent = true;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const PassObserver::Pass& p = passes[i];
        const serve::BatchStats& next =
            i + 1 < passes.size() ? passes[i + 1].before : after;
        readmits += p.before.preemptions - preempts_seen;
        preempts_seen = p.before.preemptions;
        const double dur = seconds(p.start, p.end);
        const std::int64_t d_adm = next.admitted - p.before.admitted;
        const std::int64_t d_step = next.steps - p.before.steps;
        if (d_adm == 1 && d_step == 0) {
            ph.prefillSeconds += dur;
            std::int64_t req = -1;
            if (readmits > 0) {
                --readmits;
            } else {
                ph.ttft.push_back(seconds(t0, p.end));
                ph.firstPrefillTokens +=
                    next.prefillTokens - p.before.prefillTokens;
                req = req_base + first_admits++;
            }
            traceSpan(tr, "prefill", "batcher", req, p.start, p.end);
        } else if (d_step == 1 && d_adm == 0) {
            ph.tpot.push_back(dur);
            traceSpan(tr, "decode", "batcher", -1, p.start, p.end);
        } else {
            consistent = false;
        }
    }
    if (!consistent ||
        first_admits != static_cast<std::int64_t>(reqs.size())) {
        std::cerr << "perfbench: could not attribute the batcher's "
                     "forward passes\n";
        ph.failed += static_cast<std::int64_t>(reqs.size());
    }

    ph.forwards += static_cast<std::int64_t>(passes.size());
    ph.prefillTokens += after.prefillTokens;
    ph.kvTokens += after.prefillTokens + after.decodedTokens;
    ph.serve.steps += after.steps;
    ph.serve.decodedTokens += after.decodedTokens;
    ph.serve.prefillTokens += after.prefillTokens;
    ph.serve.admitted += after.admitted;
    ph.serve.preemptions += after.preemptions;
    ph.serve.admissionRejections += after.admissionRejections;
    ph.serve.prefixHits += after.prefixHits;
    ph.serve.prefixTokensReused += after.prefixTokensReused;
    ph.serve.occupancySum += after.occupancySum;
    addPoolStats(ph, pool0, b.pool());
    return outs;
}

/**
 * Run whole rounds of @p reqs for about @p budget seconds, adding to
 * @p ph: at least one, and another only while it would end less than
 * half a round past the budget. Every round repeats the same
 * requests, so each must reproduce the first round's tokens.
 */
void
runRounds(model::TransformerModel& m, const Workload& w,
          const std::vector<Request>& reqs, double budget,
          obs::Tracer* tr, Phase& ph)
{
    kv::PagedKvCache cache =
        m.makePagedKvCache(kBlockSize, blocksAlone(w));
    const kv::PagedPoolStats pool0 = cache.stats();
    std::int64_t req_id = ph.attempted;
    double wall = 0.0;
    for (int rounds = 0;
         rounds == 0 ||
         wall * (1.0 + 0.5 / static_cast<double>(rounds)) < budget;
         ++rounds) {
        const std::int64_t out0 = ph.outTokens;
        const std::int64_t prefill0 = ph.prefillTokens;
        const double prefill_s0 = ph.prefillSeconds;
        const auto ttft0 = static_cast<std::ptrdiff_t>(ph.ttft.size());
        const auto tpot0 = static_cast<std::ptrdiff_t>(ph.tpot.size());
        const Clock::time_point t0 = Clock::now();
        std::vector<Tokens> outs;
        if (w.batched) {
            outs = runWave(m, w, reqs, ph, tr, req_id);
        } else {
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                outs.push_back(
                    runAlone(m, cache, reqs[i], &ph, tr, req_id + i));
            }
        }
        ph.roundWalls.push_back(seconds(t0, Clock::now()));
        ph.wall += ph.roundWalls.back();
        wall += ph.roundWalls.back();
        req_id += static_cast<std::int64_t>(reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const Tokens& o = outs[i];
            ++ph.attempted;
            ph.outTokens += static_cast<std::int64_t>(o.size());
            ph.digest = perfbench::digestTokens(ph.digest, o);
            const bool ok =
                static_cast<std::int64_t>(o.size()) == reqs[i].genLen &&
                (ph.rounds == 0 || o == ph.firstRound[i]);
            if (!ok)
                ++ph.failed;
        }
        ph.ttftP50.push_back(
            perfbench::summarize({ph.ttft.begin() + ttft0, ph.ttft.end()})
                .p50);
        ph.tpotP50.push_back(
            perfbench::summarize({ph.tpot.begin() + tpot0, ph.tpot.end()})
                .p50);
        ph.outRates.push_back(
            static_cast<double>(ph.outTokens - out0) /
            ph.roundWalls.back());
        ph.prefillRates.push_back(
            static_cast<double>(ph.prefillTokens - prefill0) /
            (ph.prefillSeconds - prefill_s0));
        if (ph.rounds == 0)
            ph.firstRound = std::move(outs);
        ++ph.rounds;
    }
    if (!w.batched)
        addPoolStats(ph, pool0, cache);
}

/** Construct the workload's model, recording the construction time. */
std::unique_ptr<model::TransformerModel>
buildModel(const Workload& w, std::vector<double>& setup,
           double& quant_bytes, obs::Tracer* tr)
{
    const std::uint64_t q0 = gemm::quantStats().packedBytes;
    const Clock::time_point t0 = Clock::now();
    auto m = std::make_unique<model::TransformerModel>(
        benchSpec(), gemm::Engine::AmxBf16, 7, w.wquant);
    const Clock::time_point t1 = Clock::now();
    setup.push_back(seconds(t0, t1));
    quant_bytes = static_cast<double>(gemm::quantStats().packedBytes - q0);
    traceSpan(tr, "TransformerModel", "setup", -1, t0, t1);
    return m;
}

/**
 * The longest prompt and a few decode steps, so pool start-up, first
 * touch and attention scratch growth (sized by the widest query span)
 * land outside timing.
 */
void
warmUp(model::TransformerModel& m, const Workload& w,
       const std::vector<Request>& reqs)
{
    Request longest;
    longest.prompt = reqs[0].prompt;
    longest.prompt.resize(
        static_cast<std::size_t>(w.sharedPrefix + w.promptHi), 1);
    longest.genLen = 4;
    kv::PagedKvCache cache =
        m.makePagedKvCache(kBlockSize, blocksAlone(w));
    runAlone(m, cache, longest, nullptr, nullptr, -1);
}

std::size_t
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * The output check, outside the timed region. Single-stream: a
 * seeded request re-run under a different thread cap must give the
 * same tokens (thread-count invariance). Batched: seeded requests run
 * alone through prefillPaged/decodeStepRagged must equal their
 * batched completions (ragged-vs-sequential invariance, through
 * preemption and prefix sharing). Returns the mismatches.
 */
std::int64_t
checkOutputs(model::TransformerModel& m, const Workload& w,
             const std::vector<Request>& reqs, const Phase& ph,
             std::uint64_t seed, std::size_t cpus)
{
    Rng rng(seed ^ 0x6f75747075747321ULL);
    std::vector<std::size_t> order(reqs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    perfbench::shuffle(order, rng);
    const std::size_t samples = w.batched ? 3 : 1;
    const std::size_t cap = cpus > 1 ? cpus - 1 : 2;
    if (!w.batched)
        setMaxThreads(cap);
    std::int64_t bad = 0;
    for (std::size_t k = 0; k < samples && k < order.size(); ++k) {
        const std::size_t i = order[k];
        kv::PagedKvCache cache =
            m.makePagedKvCache(kBlockSize, blocksAlone(w));
        const Tokens alone =
            runAlone(m, cache, reqs[i], nullptr, nullptr, -1);
        if (alone != ph.firstRound[i]) {
            std::cerr << "perfbench: request " << i
                      << (w.batched ? " batched" : " re-run")
                      << " output differs\n";
            ++bad;
        }
    }
    setMaxThreads(cpus);
    return bad;
}

/** Counters of the layers with process-wide stats. */
struct Counters
{
    ThreadPool::Stats pool;
    gemm::AttnStats attn;
    gemm::QuantStats quant;
};

Counters
snapshot()
{
    return {ThreadPool::instance().stats(), gemm::attnStats(),
            gemm::quantStats()};
}

/** Bytes of the prepared bf16 weights one forward pass streams. */
double
bf16WeightBytes(const model::ModelSpec& s)
{
    const double d = static_cast<double>(s.dModel);
    const double dkv = static_cast<double>(s.dKv());
    const double ff = static_cast<double>(s.dFf);
    const double layer = 2 * d * d + 2 * d * dkv + 3 * d * ff;
    return 2.0 * (static_cast<double>(s.numLayers) * layer +
                  d * static_cast<double>(s.vocabSize));
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** One reported metric; absent ones print as such and skip JSON. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    bool present = true;
    std::string note; ///< sample count, percentile, provenance
    bool json = true; ///< also in the final JSON line
};

void
report(const std::vector<Metric>& ms, std::int64_t attempted,
       std::int64_t failed)
{
    std::cout << "metric                       value        unit     "
                 "note\n";
    for (const Metric& m : ms) {
        std::cout << std::left << std::setw(28) << m.name << ' ';
        if (m.present)
            std::cout << std::setw(12) << std::setprecision(6)
                      << m.value;
        else
            std::cout << std::setw(12) << "absent";
        std::cout << ' ' << std::setw(8) << m.unit << ' ' << m.note
                  << '\n';
    }
    std::ostringstream js;
    js << std::setprecision(17) << "{\"correct\": "
       << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : ms) {
        if (!m.present || !m.json)
            continue;
        js << (first ? "" : ", ") << '"' << m.name
           << "\": {\"value\": " << m.value << ", \"unit\": \"" << m.unit
           << "\"}";
        first = false;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
}

std::string
samplesNote(std::size_t n)
{
    return "n=" + std::to_string(n);
}

/**
 * The best round's p50 and the tail over all rounds' samples, in
 * milliseconds. Tails stay out of the JSON: a workload with too few
 * samples has none, and on a shared host their run-to-run spread is
 * wider than any bound.
 */
void
addLatency(std::vector<Metric>& ms, const std::string& stem,
           const std::vector<double>& round_p50,
           const std::vector<double>& sample)
{
    const perfbench::Summary s = perfbench::summarize(sample);
    std::ostringstream p50_note;
    p50_note << std::setprecision(4) << "best of " << round_p50.size()
             << " rounds; p50 of all n=" << s.n << " is " << s.p50 * 1e3;
    Metric p50{stem + "_p50_ms",
               *std::min_element(round_p50.begin(), round_p50.end()) * 1e3,
               "ms", true, p50_note.str()};
    Metric tail{stem + "_tail_ms", s.tailValue * 1e3, "ms", s.tail.ok,
                samplesNote(s.n), false};
    if (s.tail.ok) {
        std::ostringstream note;
        note << std::setprecision(4) << "p" << s.tail.percentile << " "
             << samplesNote(s.n);
        tail.note = note.str();
    } else {
        tail.note += " (a tail needs 11+ samples)";
    }
    ms.push_back(p50);
    ms.push_back(tail);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

const char* const kOpFrames[] = {
    "q_proj",  "k_proj",   "v_proj",  "attention", "out_proj",
    "ffn_up",  "ffn_gate", "ffn_act", "ffn_down",  "lm_head",
    "embedding", "attn_norm", "ffn_norm", "final_norm"};

[[noreturn]] void
usage(const std::string& msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n"
                 "workloads:";
    for (const Workload& w : workloads())
        std::cerr << ' ' << w.name;
    std::cerr << '\n';
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--", 0) != 0 || i + 1 >= argc)
            usage("bad argument '" + a + "'");
        flags[a.substr(2)] = argv[++i];
    }
    for (const char* req : {"workload", "seed", "seconds", "trace"})
        if (!flags.count(req))
            usage(std::string("missing --") + req);
    const Workload* wp = nullptr;
    for (const Workload& w : workloads())
        if (flags["workload"] == w.name)
            wp = &w;
    if (wp == nullptr)
        usage("unknown workload '" + flags["workload"] + "'");
    const Workload& w = *wp;
    char* end = nullptr;
    const char* seed_arg = flags["seed"].c_str();
    const std::uint64_t seed = std::strtoull(seed_arg, &end, 10);
    if (end == seed_arg || *end != '\0')
        usage("--seed expects an integer");
    const double budget = std::strtod(flags["seconds"].c_str(), &end);
    if (*end != '\0' || !(budget > 0.0))
        usage("--seconds expects a positive number");
    const bool traced = flags["trace"] == "1";
    if (!traced && flags["trace"] != "0")
        usage("--trace expects 0 or 1");

    threadreg::registerCurrentThread("main");
    const std::size_t cpus = hostCpus();
    setMaxThreads(cpus);
    const std::vector<Request> reqs = makeRound(w, seed);

    obs::Tracer tracer;
    std::vector<double> setup;
    double quant_bytes = 0.0;
    std::unique_ptr<model::TransformerModel> model =
        buildModel(w, setup, quant_bytes, traced ? &tracer : nullptr);
    warmUp(*model, w, reqs);

    std::cout << "perfbench " << w.name << " seed " << seed << " threads "
              << cpus << (traced ? " traced" : "") << '\n';
    std::vector<Metric> ms;

    if (!traced) {
        // Set-up runs kSetupReps times and the timed rounds are split
        // over the models: each construction gets fresh pages, so a
        // run's best round is not tied to one weight placement.
        const std::uint64_t scratch0 = gemm::attnStats().scratchAllocs;
        Phase ph;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            if (rep > 0) {
                model.reset();
                model = buildModel(w, setup, quant_bytes, nullptr);
            }
            runRounds(*model, w, reqs, budget / kSetupReps, nullptr, ph);
        }
        const std::uint64_t scratch =
            gemm::attnStats().scratchAllocs - scratch0;
        ph.failed += checkOutputs(*model, w, reqs, ph, seed, cpus);
        std::sort(setup.begin(), setup.end());
        ms.push_back({"setup_s", setup[setup.size() / 2], "s", true,
                      "median of " + std::to_string(setup.size()) +
                          " constructions"});
        ms.push_back({"peak_rss_mb", peakRssMb(), "MB", true,
                      "getrusage maxrss"});
        addLatency(ms, "ttft", ph.ttftP50, ph.ttft);
        addLatency(ms, "tpot", ph.tpotP50, ph.tpot);
        const std::string rounds =
            "best of " + std::to_string(ph.rounds) + " rounds; ";
        ms.push_back({"prefill_tok_s",
                      *std::max_element(ph.prefillRates.begin(),
                                        ph.prefillRates.end()),
                      "tok/s", true,
                      rounds + std::to_string(ph.prefillTokens) +
                          " prompt tokens run"});
        ms.push_back({"output_tok_s",
                      *std::max_element(ph.outRates.begin(),
                                        ph.outRates.end()),
                      "tok/s", true,
                      rounds + std::to_string(ph.outTokens) +
                          " tokens in " + std::to_string(ph.wall) +
                          " s"});
        // error_rate reads 0 on every passing run, so it stays out of
        // the JSON metrics; "failed" / "attempted" carry it there.
        ms.push_back({"error_rate",
                      ratio(static_cast<double>(ph.failed),
                            static_cast<double>(ph.attempted)),
                      "frac", true,
                      std::to_string(ph.failed) + "/" +
                          std::to_string(ph.attempted) + " requests",
                      false});
        std::cout << "digest " << std::hex << ph.digest << std::dec
                  << " attn.scratch_allocs " << scratch << "\nrounds";
        for (double r : ph.roundWalls)
            std::cout << ' ' << r << 's';
        std::cout << '\n';
        if (scratch != 0)
            std::cerr << "perfbench: attention scratch grew in the "
                         "timed region\n";
        report(ms, ph.attempted, ph.failed);
        return ph.failed == 0 ? 0 : 1;
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // traced half with the profiler on and counter deltas around it.
    model::TransformerModel& m = *model;
    Phase base;
    runRounds(m, w, reqs, budget / 2, nullptr, base);
    obs::prof::Options popt;
    popt.hz = 197.0;
    obs::prof::Profiler& prof = obs::prof::Profiler::instance();
    prof.reset();
    const bool profiling = prof.start(popt);
    const Counters c0 = snapshot();
    Phase ph;
    runRounds(m, w, reqs, budget / 2, &tracer, ph);
    const Counters c1 = snapshot();
    obs::prof::FoldedProfile profile;
    if (profiling) {
        prof.stop();
        profile = prof.collect();
    }
    ph.failed += base.failed;
    ph.attempted += base.attempted;
    ph.failed += checkOutputs(m, w, reqs, ph, seed, cpus);
    if (flags.count("trace-out") &&
        !tracer.writeChromeTraceFile(flags["trace-out"]))
        std::cerr << "perfbench: cannot write " << flags["trace-out"]
                  << '\n';

    const double rounds = static_cast<double>(ph.rounds);
    const double fwd = static_cast<double>(ph.forwards);
    auto d = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };
    const double par = d(c0.pool.parallelOps, c1.pool.parallelOps);
    const double ser = d(c0.pool.serialOps, c1.pool.serialOps);
    const double inl = d(c0.pool.inlineOps, c1.pool.inlineOps);
    const double attn_calls =
        d(c0.attn.decodeCalls, c1.attn.decodeCalls) +
        d(c0.attn.prefillCalls, c1.attn.prefillCalls) +
        d(c0.attn.raggedCalls, c1.attn.raggedCalls);
    const double wbytes = w.wquant == gemm::WeightDtype::Native
                              ? bf16WeightBytes(m.spec())
                              : quant_bytes;
    const double tpot =
        *std::min_element(base.tpotP50.begin(), base.tpotP50.end());
    const char* per_round = "per round";
    ms = {
        {"pool.parallel_ops_per_step", ratio(par, fwd), "count", true,
         "per forward pass"},
        {"pool.serial_frac", ratio(ser, par + ser + inl), "frac", true,
         ""},
        {"pool.steals_per_op",
         ratio(d(c0.pool.steals, c1.pool.steals), par), "count", true,
         ""},
        {"gemm.weight_bytes_per_step", wbytes, "B", true,
         "computed from prepared tensor sizes"},
        {"gemm.decode_gbps", ratio(wbytes, tpot) / 1e9, "GB/s", true,
         "computed bytes / untraced best-round tpot p50"},
        {"gemm.quant.gemv_calls",
         d(c0.quant.gemvCalls, c1.quant.gemvCalls) / rounds, "count",
         true, per_round},
        {"gemm.quant.gemm_calls",
         d(c0.quant.gemmCalls, c1.quant.gemmCalls) / rounds, "count",
         true, per_round},
        {"gemm.quant.bytes_per_step",
         ratio(d(c0.quant.bytesStreamed, c1.quant.bytesStreamed), fwd),
         "B", true, "per forward pass"},
        {"attn.kv_rows_per_step",
         ratio(d(c0.attn.spanRows, c1.attn.spanRows), fwd), "count", true,
         "per forward pass"},
        {"attn.tasks_per_call",
         ratio(d(c0.attn.tasks, c1.attn.tasks), attn_calls), "count",
         true, ""},
        {"attn.scratch_allocs",
         d(c0.attn.scratchAllocs, c1.attn.scratchAllocs), "count", true,
         "in the traced phase"},
        {"kv.peak_blocks_frac", ph.kvPeakFrac, "frac", true, ""},
        {"kv.block_allocs_per_token",
         ratio(static_cast<double>(ph.kv.blockAllocs),
               static_cast<double>(ph.kvTokens)),
         "count", true, ""},
        {"kv.cow_copies", static_cast<double>(ph.kv.cowCopies) / rounds,
         "count", true, per_round},
        {"kv.prefix_shared_blocks",
         static_cast<double>(ph.kv.prefixSharedBlocks) / rounds, "count",
         true, per_round},
        {"serve.steps", static_cast<double>(ph.serve.steps) / rounds,
         "count", true, per_round},
        {"serve.mean_batch", ph.serve.meanOccupancy(), "count", true, ""},
        {"serve.preemptions",
         static_cast<double>(ph.serve.preemptions) / rounds, "count",
         true, per_round},
        {"serve.admission_rejections",
         static_cast<double>(ph.serve.admissionRejections) / rounds,
         "count", true, per_round},
        {"serve.prefix_hit_frac",
         ratio(static_cast<double>(ph.serve.prefixHits),
               static_cast<double>(ph.serve.admitted)),
         "frac", true, ""},
        {"serve.useful_prefill_frac",
         ratio(static_cast<double>(ph.firstPrefillTokens),
               static_cast<double>(ph.serve.prefillTokens)),
         "frac", true, "first-admission / all prefill tokens"},
    };
    const double samples = static_cast<double>(profile.samples);
    for (const char* op : kOpFrames) {
        auto it = profile.ops.find(op);
        const double self =
            it == profile.ops.end() ? 0.0
                                    : static_cast<double>(it->second.self);
        ms.push_back({std::string("op.") + op + ".self_frac",
                      ratio(self, samples), "frac", true, ""});
    }
    ms.push_back({"prof.samples", samples, "count", true,
                  profiling ? "" : "profiler unavailable"});
    const double tok_untraced =
        *std::max_element(base.outRates.begin(), base.outRates.end());
    const double tok_traced =
        *std::max_element(ph.outRates.begin(), ph.outRates.end());
    ms.push_back({"trace.overhead_frac",
                  1.0 - ratio(tok_traced, tok_untraced), "frac", true,
                  "1 - traced/untraced output_tok_s"});
    std::cout << "digest " << std::hex << ph.digest << std::dec << '\n';
    report(ms, ph.attempted, ph.failed);
    return ph.failed == 0 ? 0 : 1;
}
