#include "bbb/obs/harvest.hpp"

#include "bbb/core/batch_kernel.hpp"
#include "bbb/core/bin_state.hpp"
#include "bbb/core/probe.hpp"

namespace bbb::obs {

void CoreCounters::accumulate(const CoreCounters& other) noexcept {
  probes += other.probes;
  balls_placed += other.balls_placed;
  reallocations += other.reallocations;
  rounds += other.rounds;
  lookahead_refills += other.lookahead_refills;
  lookahead_discarded_words += other.lookahead_discarded_words;
  compact_promotions += other.compact_promotions;
  compact_demotions += other.compact_demotions;
  explode_fallbacks += other.explode_fallbacks;
  batch_batches += other.batch_batches;
  batch_waves += other.batch_waves;
  batch_fast_balls += other.batch_fast_balls;
  batch_fallback_balls += other.batch_fallback_balls;
  batch_exact_balls += other.batch_exact_balls;
  hugepage_bytes += other.hugepage_bytes;
}

CoreCounters harvest(const core::StreamingAllocator& alloc) {
  CoreCounters c = harvest(alloc.rule(), &alloc.state());
  c.explode_fallbacks = alloc.explode_fallbacks();
  return c;
}

CoreCounters harvest(const core::PlacementRule& rule, const core::BinState* state) {
  CoreCounters c;
  c.probes = rule.probes();
  c.balls_placed = rule.total_placed();
  c.reallocations = rule.reallocations();
  c.rounds = rule.rounds();
  if (const core::ProbeLookahead* la = rule.lookahead(); la != nullptr) {
    c.lookahead_refills = la->refills();
    c.lookahead_discarded_words = la->discarded_words();
  }
  if (const core::BatchPlacer* bk = rule.batch_kernel(); bk != nullptr) {
    c.batch_batches = bk->batches();
    c.batch_waves = bk->waves();
    c.batch_fast_balls = bk->fast_balls();
    c.batch_fallback_balls = bk->fallback_balls();
    c.batch_exact_balls = bk->exact_balls();
  }
  if (state != nullptr) {
    c.compact_promotions = state->compact_promotions();
    c.compact_demotions = state->compact_demotions();
    c.hugepage_bytes = state->hugepage_bytes();
  }
  return c;
}

void fold_into(MetricsRegistry& registry, const CoreCounters& counters) {
  registry.add_counter("core.probe.count", counters.probes);
  registry.add_counter("core.ball.placed", counters.balls_placed);
  if (counters.reallocations != 0) {
    registry.add_counter("core.rule.reallocations", counters.reallocations);
  }
  if (counters.rounds != 0) {
    registry.add_counter("core.rule.rounds", counters.rounds);
  }
  if (counters.lookahead_refills != 0) {
    registry.add_counter("core.lookahead.refills", counters.lookahead_refills);
  }
  if (counters.lookahead_discarded_words != 0) {
    registry.add_counter("core.lookahead.discarded_words",
                         counters.lookahead_discarded_words);
  }
  if (counters.compact_promotions != 0) {
    registry.add_counter("state.compact.promotions", counters.compact_promotions);
  }
  if (counters.compact_demotions != 0) {
    registry.add_counter("state.compact.demotions", counters.compact_demotions);
  }
  if (counters.explode_fallbacks != 0) {
    registry.add_counter("core.weighted.explode_fallbacks",
                         counters.explode_fallbacks);
  }
  if (counters.batch_batches != 0) {
    registry.add_counter("core.batch.batches", counters.batch_batches);
    registry.add_counter("core.batch.waves", counters.batch_waves);
    registry.add_counter("core.batch.fast_balls", counters.batch_fast_balls);
    registry.add_counter("core.batch.fallback_balls",
                         counters.batch_fallback_balls);
    registry.add_counter("core.batch.exact_balls", counters.batch_exact_balls);
  }
  if (counters.hugepage_bytes != 0) {
    registry.add_counter("core.state.hugepage_bytes", counters.hugepage_bytes);
  }
}

void fold_into(MetricsRegistry& registry, const shard::ShardCounters& counters) {
  if (counters.messages == 0 && counters.rounds == 0) return;
  if (counters.rounds != 0) {
    registry.add_counter("shard.sync_rounds", counters.rounds);
  }
  if (counters.cross_shard_probes != 0) {
    registry.add_counter("shard.probe.cross_shard", counters.cross_shard_probes);
  }
  if (counters.deferred_balls != 0) {
    registry.add_counter("shard.ball.deferred", counters.deferred_balls);
  }
  registry.add_counter("shard.message.count", counters.messages);
}

}  // namespace bbb::obs
