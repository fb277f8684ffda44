#ifndef CPULLM_SERVE_BATCHER_H
#define CPULLM_SERVE_BATCHER_H

/**
 * @file
 * Continuous batching on the *real* host decode path. Where
 * serving_sim.h schedules against timing models, this runtime drives
 * TransformerModel forward passes: in-flight sequences at different
 * positions and lengths fuse into one ragged decode step per
 * iteration (model::TransformerModel::decodeStepRagged), backed by
 * the paged-KV block pool (kv::PagedKvCache) for admission control,
 * preempt-and-requeue eviction, and shared-prefix KV reuse.
 *
 * The scheduling follows Orca/vLLM iteration-level batching (related
 * work [56]/[28]): requests join the running batch the moment a slot
 * and pool capacity are free and leave the moment they finish, so the
 * decode GEMMs run at the highest batch the pool admits — the
 * batch-scaling lever the paper's Fig 8-11 throughput analysis turns.
 */

#include <cstdint>
#include <deque>
#include <vector>

#include "kv/paged_kv_cache.h"
#include "model/transformer.h"

namespace cpullm {
namespace serve {

/** Continuous-batching runtime configuration. */
struct BatcherConfig
{
    /** In-flight sequence cap (the fused decode GEMM's max m). */
    std::int64_t maxBatch = 8;
    /** Paged-KV tokens per block. */
    std::int64_t blockSize = 16;
    /** Paged-KV pool capacity in blocks (shared by all sequences). */
    std::int64_t numBlocks = 256;
    /**
     * Share the KV blocks of a common prompt prefix between requests
     * (copy-on-write; see PagedKvCache::addSequenceWithPrefix).
     */
    bool prefixCache = true;
};

/** One generation request. */
struct BatchRequest
{
    std::vector<std::int64_t> prompt;
    std::int64_t genLen = 16; ///< tokens to generate (greedy)
};

/**
 * Lifetime scheduler counters (exported as host.batch.* through the
 * host-series table, serve/host_stats.h).
 */
struct BatchStats
{
    std::int64_t steps = 0;         ///< fused ragged decode steps
    std::int64_t decodedTokens = 0; ///< tokens out of decode steps
    std::int64_t prefillTokens = 0; ///< prompt tokens run (suffixes)
    std::int64_t admitted = 0;      ///< admissions incl. re-admits
    std::int64_t retired = 0;       ///< sequences finished
    std::int64_t preemptions = 0;   ///< evict-and-requeue events
    std::int64_t admissionRejections = 0; ///< pool-full admit refusals
    std::int64_t prefixHits = 0;    ///< admissions that shared a prefix
    std::int64_t prefixTokensReused = 0; ///< prompt tokens not re-run
    std::int64_t occupancySum = 0;  ///< sum of batch size over steps
    std::int64_t peakOccupancy = 0; ///< max in-flight sequences

    /** Mean in-flight sequences per fused decode step. */
    double
    meanOccupancy() const
    {
        return steps > 0 ? static_cast<double>(occupancySum) /
                               static_cast<double>(steps)
                         : 0.0;
    }
};

/**
 * Point-in-time view of the continuous-batching runtime and its
 * paged pool, published process-wide by ContinuousBatcher::run() so
 * the host-series table (serve/host_stats.h) can export host.batch.*
 * without owning the batcher.
 */
struct HostBatchSnapshot
{
    bool valid = false; ///< false until a batcher publishes
    BatchStats stats;
    std::int64_t maxBatch = 0;      ///< configured slot cap
    std::int64_t liveSequences = 0; ///< in flight at publish time
    std::int64_t blockSize = 0;     ///< paged-pool tokens per block
    std::int64_t blocksTotal = 0;   ///< paged-pool capacity
    std::int64_t blocksInUse = 0;   ///< at publish time
    std::int64_t peakBlocksInUse = 0; ///< pool high watermark
    std::int64_t prefixSharedBlocks = 0; ///< blocks reused via CoW
};

/** Publish @p snap as the process-wide latest (thread-safe). */
void publishHostBatchStats(const HostBatchSnapshot& snap);

/** Latest published snapshot (valid == false before the first). */
HostBatchSnapshot hostBatchSnapshot();

/**
 * The continuous-batching decode runtime. Typical use:
 *
 *   ContinuousBatcher b(model, cfg);
 *   b.submit({prompt, gen_len});  // any number of requests
 *   auto outs = b.run();          // completions in submit order
 *   const BatchStats& s = b.stats();
 *
 * run() loops: admit waiting requests into free slots (prefilling
 * their prompts, reusing cached prefix blocks), execute one fused
 * ragged decode step over every live sequence, retire finished ones.
 * When the pool cannot admit a step, the youngest live sequence is
 * preempted — its blocks are released and the request re-queued with
 * its generated tokens folded into the prompt, so its completion is
 * unchanged (greedy decoding is deterministic and the fused step is
 * bitwise equal to sequential decode).
 */
class ContinuousBatcher
{
  public:
    ContinuousBatcher(model::TransformerModel& model,
                      const BatcherConfig& cfg);

    /** Enqueue a request; returns its id (completion index). */
    std::int64_t submit(BatchRequest req);

    /**
     * Run until every submitted request has completed; returns the
     * generated tokens per request, in submit order. Requests whose
     * prompt + completion cannot fit the pool even alone are fatal
     * (the pool is sized by configuration, not workload).
     */
    std::vector<std::vector<std::int64_t>> run();

    const BatchStats& stats() const { return stats_; }
    const kv::PagedKvCache& pool() const { return cache_; }

  private:
    /** A live (admitted) sequence. */
    struct Running
    {
        std::int64_t id = 0;  ///< completion index
        std::int64_t seq = 0; ///< paged-cache sequence id
        std::vector<std::int64_t> prompt; ///< current prefill basis
        std::vector<std::int64_t> generated; ///< this admission's out
        std::int64_t lastToken = 0;
        std::int64_t remaining = 0; ///< tokens still to generate
    };

    /** A queued request (possibly a preempted re-queue). */
    struct Waiting
    {
        std::int64_t id = 0;
        std::vector<std::int64_t> prompt;
        std::int64_t remaining = 0;
    };

    /** Admit from the queue while slots and pool capacity allow. */
    void admit();

    /** Evict the youngest live sequence back onto the queue. */
    void preempt();

    /** Publish the process-wide HostBatchSnapshot. */
    void publish() const;

    model::TransformerModel& model_;
    BatcherConfig cfg_;
    kv::PagedKvCache cache_;
    std::deque<Waiting> waiting_;
    std::vector<Running> live_; ///< admission order (oldest first)
    std::vector<std::vector<std::int64_t>> done_;
    BatchStats stats_;
};

} // namespace serve
} // namespace cpullm

#endif // CPULLM_SERVE_BATCHER_H
