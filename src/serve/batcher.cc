#include "serve/batcher.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/logging.h"

namespace cpullm {
namespace serve {

namespace {

std::mutex g_snapshot_mu;
HostBatchSnapshot g_snapshot;

} // namespace

void
publishHostBatchStats(const HostBatchSnapshot& snap)
{
    std::lock_guard<std::mutex> lock(g_snapshot_mu);
    g_snapshot = snap;
    g_snapshot.valid = true;
}

HostBatchSnapshot
hostBatchSnapshot()
{
    std::lock_guard<std::mutex> lock(g_snapshot_mu);
    return g_snapshot;
}

ContinuousBatcher::ContinuousBatcher(model::TransformerModel& model,
                                     const BatcherConfig& cfg)
    : model_(model), cfg_(cfg),
      cache_(model.makePagedKvCache(cfg.blockSize, cfg.numBlocks))
{
    CPULLM_ASSERT(cfg.maxBatch >= 1, "maxBatch must be >= 1");
}

std::int64_t
ContinuousBatcher::submit(BatchRequest req)
{
    CPULLM_ASSERT(!req.prompt.empty(), "empty prompt");
    CPULLM_ASSERT(req.genLen >= 1, "genLen must be >= 1");
    const auto id = static_cast<std::int64_t>(done_.size());
    done_.emplace_back();
    Waiting w;
    w.id = id;
    w.prompt = std::move(req.prompt);
    w.remaining = req.genLen;
    waiting_.push_back(std::move(w));
    return id;
}

void
ContinuousBatcher::admit()
{
    while (!waiting_.empty() &&
           static_cast<std::int64_t>(live_.size()) < cfg_.maxBatch) {
        Waiting& w = waiting_.front();

        // Longest cached common prefix among live sequences' prompts
        // (their prompt tokens are fully cached after prefill). At
        // least one suffix token must remain to prefill.
        std::int64_t src = -1, common = 0;
        if (cfg_.prefixCache) {
            const std::int64_t cap =
                static_cast<std::int64_t>(w.prompt.size()) - 1;
            for (const Running& r : live_) {
                const std::int64_t n = std::min(
                    cap,
                    static_cast<std::int64_t>(r.prompt.size()));
                std::int64_t lcp = 0;
                while (lcp < n &&
                       w.prompt[static_cast<std::size_t>(lcp)] ==
                           r.prompt[static_cast<std::size_t>(lcp)])
                    ++lcp;
                if (lcp > common) {
                    common = lcp;
                    src = r.seq;
                }
            }
        }

        const std::int64_t seq =
            src >= 0 ? cache_.addSequenceWithPrefix(src, common)
                     : cache_.addSequence();
        const std::vector<std::int64_t> suffix(
            w.prompt.begin() + static_cast<std::ptrdiff_t>(common),
            w.prompt.end());
        const std::int64_t first =
            model_.prefillPaged(suffix, seq, cache_);
        if (first < 0) {
            // Pool full: back off, leave the request queued.
            cache_.releaseSequence(seq);
            ++stats_.admissionRejections;
            break;
        }

        Running r;
        r.id = w.id;
        r.seq = seq;
        r.prompt = std::move(w.prompt);
        r.generated.push_back(first);
        r.lastToken = first;
        r.remaining = w.remaining - 1;
        live_.push_back(std::move(r));
        waiting_.pop_front();

        ++stats_.admitted;
        stats_.prefillTokens +=
            static_cast<std::int64_t>(suffix.size());
        if (src >= 0) {
            ++stats_.prefixHits;
            stats_.prefixTokensReused += common;
        }
        stats_.peakOccupancy =
            std::max(stats_.peakOccupancy,
                     static_cast<std::int64_t>(live_.size()));
    }
}

void
ContinuousBatcher::preempt()
{
    CPULLM_ASSERT(!live_.empty(), "nothing to preempt");
    Running victim = std::move(live_.back());
    live_.pop_back();

    // Already-generated tokens are final output (greedy decoding is
    // deterministic); fold them into the prompt so the re-admitted
    // prefill resumes exactly where the eviction cut.
    done_[static_cast<std::size_t>(victim.id)].insert(
        done_[static_cast<std::size_t>(victim.id)].end(),
        victim.generated.begin(), victim.generated.end());
    Waiting w;
    w.id = victim.id;
    w.prompt = std::move(victim.prompt);
    w.prompt.insert(w.prompt.end(), victim.generated.begin(),
                    victim.generated.end());
    w.remaining = victim.remaining;
    waiting_.push_front(std::move(w));

    cache_.releaseSequence(victim.seq);
    ++stats_.preemptions;
}

std::vector<std::vector<std::int64_t>>
ContinuousBatcher::run()
{
    while (!waiting_.empty() || !live_.empty()) {
        admit();
        CPULLM_ASSERT(!live_.empty(),
                      "paged pool (", cfg_.numBlocks, " blocks of ",
                      cfg_.blockSize,
                      ") cannot admit any waiting request");

        // Retire sequences whose prefill already satisfied genLen.
        for (std::size_t i = 0; i < live_.size();) {
            if (live_[i].remaining == 0) {
                Running& r = live_[i];
                auto& out = done_[static_cast<std::size_t>(r.id)];
                out.insert(out.end(), r.generated.begin(),
                           r.generated.end());
                cache_.releaseSequence(r.seq);
                ++stats_.retired;
                live_.erase(live_.begin() +
                            static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }
        if (live_.empty())
            continue;

        // One fused ragged decode step over every live sequence;
        // when the pool cannot cover it, evict the youngest sequence
        // and retry with the smaller batch.
        std::vector<std::int64_t> next;
        for (;;) {
            std::vector<model::TransformerModel::RaggedSlot> slots(
                live_.size());
            for (std::size_t i = 0; i < live_.size(); ++i) {
                slots[i].seq = live_[i].seq;
                slots[i].token = live_[i].lastToken;
            }
            next = model_.decodeStepRagged(slots, cache_);
            if (!next.empty())
                break;
            CPULLM_ASSERT(live_.size() > 1,
                          "paged pool too small to decode a single "
                          "sequence");
            preempt();
        }

        ++stats_.steps;
        stats_.occupancySum +=
            static_cast<std::int64_t>(live_.size());
        stats_.decodedTokens +=
            static_cast<std::int64_t>(live_.size());
        for (std::size_t i = 0; i < live_.size(); ++i) {
            live_[i].generated.push_back(next[i]);
            live_[i].lastToken = next[i];
            --live_[i].remaining;
        }
        publish(); // live view for /metrics scrapes mid-run
    }
    publish();
    return done_;
}

void
ContinuousBatcher::publish() const
{
    HostBatchSnapshot s;
    s.stats = stats_;
    s.maxBatch = cfg_.maxBatch;
    s.liveSequences = static_cast<std::int64_t>(live_.size());
    s.blockSize = cache_.blockSize();
    s.blocksTotal = cache_.numBlocks();
    s.blocksInUse = cache_.numBlocks() - cache_.freeBlocks();
    s.peakBlocksInUse =
        cache_.numBlocks() - cache_.stats().minFreeBlocks;
    s.prefixSharedBlocks = cache_.stats().prefixSharedBlocks;
    publishHostBatchStats(s);
}

} // namespace serve
} // namespace cpullm
