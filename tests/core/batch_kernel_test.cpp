/// Scalar-vs-kernel lockstep for the batch placement layer: place_batch
/// must be bit-identical to the same number of place_one calls — same
/// bins ball for ball, same counters, same incremental metrics (the FP
/// accumulations included) — for every family, every batch size around
/// the wave boundaries, every compiled SIMD tier the CPU supports, and
/// states straddling the 255 -> 256 side-table promotion. Plus the ISA
/// backends pinned byte-for-byte against the scalar reference, and the
/// place_one/place_batch interleave (the lookahead residue hand-back).

#include "bbb/core/batch_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bbb/core/protocols/d_choice.hpp"
#include "bbb/core/protocols/left_d.hpp"
#include "bbb/core/protocols/one_choice.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/core/simd/batch_ops.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::core {
namespace {

using RuleFactory = std::function<std::unique_ptr<PlacementRule>(std::uint32_t n)>;

struct Family {
  const char* name;
  RuleFactory make;
};

/// The four families the satellite sweep names. greedy[3] has no vector
/// kernel (data-dependent reservoir tie draws) — its place_batch is the
/// base loop, and this suite pins that the dispatch seam stays exact.
const Family kFamilies[] = {
    {"one-choice", [](std::uint32_t) { return std::make_unique<OneChoiceRule>(); }},
    {"greedy[2]", [](std::uint32_t) { return std::make_unique<DChoiceRule>(2); }},
    {"greedy[3]", [](std::uint32_t) { return std::make_unique<DChoiceRule>(3); }},
    {"left[2]", [](std::uint32_t n) { return std::make_unique<LeftDRule>(n, 2); }},
};

/// Every observable of the two runs must be *identical*, not close: the
/// kernel replays add_ball's FP operation order, so even lnPhi matches
/// bit for bit.
void expect_states_equal(const BinState& a, const BinState& b) {
  ASSERT_EQ(a.n(), b.n());
  EXPECT_EQ(a.balls(), b.balls());
  EXPECT_EQ(a.max_load(), b.max_load());
  EXPECT_EQ(a.min_load(), b.min_load());
  EXPECT_EQ(a.level_counts(), b.level_counts());
  EXPECT_EQ(a.psi(), b.psi());
  EXPECT_EQ(a.log_phi(), b.log_phi());
  EXPECT_EQ(a.copy_loads(), b.copy_loads());
}

/// Drive `m` balls through place_one (reference) and place_batch (kernel
/// path when eligible) from the same seed and compare every placement.
/// A third stream runs place_batch with no bins buffer — the path sim,
/// bbb_bench and perfbench take, a separate instantiation of each walk —
/// and must match on every state observable, the probe count, and the
/// bin of one place_one issued after the batch (which pins the engine +
/// lookahead position).
void expect_lockstep(const Family& family, std::uint32_t n, std::uint64_t m,
                     const rng::Engine& start,
                     StateLayout layout = StateLayout::kCompact) {
  rng::Engine gen_ref(start);
  BinState ref_state(n, layout);
  auto ref_rule = family.make(n);
  ref_rule->set_engine_exclusive(true);
  std::vector<std::uint32_t> ref_bins(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    ref_bins[i] = ref_rule->place_one(ref_state, gen_ref);
  }

  rng::Engine gen_bat(start);
  BinState bat_state(n, layout);
  auto bat_rule = family.make(n);
  bat_rule->set_engine_exclusive(true);
  std::vector<std::uint32_t> bat_bins(m);
  bat_rule->place_batch(bat_state, m, gen_bat, bat_bins.data());

  for (std::uint64_t i = 0; i < m; ++i) {
    ASSERT_EQ(ref_bins[i], bat_bins[i])
        << family.name << " n=" << n << " m=" << m << " ball " << i;
  }
  EXPECT_EQ(ref_rule->probes(), bat_rule->probes());
  EXPECT_EQ(ref_rule->total_placed(), bat_rule->total_placed());
  expect_states_equal(ref_state, bat_state);

  rng::Engine gen_nul(start);
  BinState nul_state(n, layout);
  auto nul_rule = family.make(n);
  nul_rule->set_engine_exclusive(true);
  nul_rule->place_batch(nul_state, m, gen_nul);
  EXPECT_EQ(ref_rule->probes(), nul_rule->probes()) << family.name << " m=" << m;
  expect_states_equal(ref_state, nul_state);
  EXPECT_EQ(ref_rule->place_one(ref_state, gen_ref),
            nul_rule->place_one(nul_state, gen_nul))
      << family.name << " n=" << n << " m=" << m;
}

void expect_lockstep(const Family& family, std::uint32_t n, std::uint64_t m,
                     std::uint64_t seed = 42,
                     StateLayout layout = StateLayout::kCompact) {
  expect_lockstep(family, n, m, rng::Engine(seed), layout);
}

TEST(BatchKernel, LockstepAcrossBatchSizesOneToSixtyFour) {
  for (const Family& family : kFamilies) {
    for (std::uint64_t m = 1; m <= 64; ++m) {
      expect_lockstep(family, /*n=*/97, m, /*seed=*/1000 + m);
    }
  }
}

TEST(BatchKernel, LockstepAroundWaveBoundaries) {
  // A wave is kWaveWords words: kWaveWords / 2 greedy[2]/left[2] balls or
  // kWaveWords one-choice balls. Straddle both boundaries, the prefetch
  // warm-up (the fill prefetches the first kPrefetchWords words, the walk
  // the rest — kD / 2 two-word balls or kD one-choice balls), and a
  // multi-wave run for every family. Small n forces dense in-wave
  // duplicates — the live-lane commit must serialize them exactly as the
  // scalar stream does.
  constexpr std::uint64_t kW = BatchPlacer::kWaveWords;
  constexpr std::uint64_t kD = BatchPlacer::kPrefetchWords;
  for (const Family& family : kFamilies) {
    for (const std::uint32_t n : {2u, 5u, 64u, 4096u}) {
      for (const std::uint64_t edge : {kD / 2, kD, kW / 2, kW, 2 * kW + kD / 2}) {
        for (const std::uint64_t m : {edge - 1, edge, edge + 1}) {
          expect_lockstep(family, n, m, /*seed=*/7 * n + m);
        }
      }
    }
  }
}

TEST(BatchKernel, LockstepOnLargeFastPathState) {
  // The live-lane commit serializes in-wave duplicates instead of
  // falling back, and a power-of-two bound never raises a Lemire
  // rejection — so on this state every single ball must take the wave
  // path, checked by the kernel counters. No lane nears kFastLoadMax, so
  // only balls opening a new top histogram level step out of the walk to
  // the exact one-ball step: at most max_load() of them.
  constexpr std::uint32_t kN = 1u << 20;
  for (const Family& family : kFamilies) {
    expect_lockstep(family, kN, /*m=*/20000, /*seed=*/3);
    auto rule = family.make(kN);
    BinState state(kN, StateLayout::kCompact);
    rng::Engine gen(3);
    rule->set_engine_exclusive(true);
    rule->place_batch(state, 20000, gen);
    const BatchPlacer* kernel = rule->batch_kernel();
    ASSERT_NE(kernel, nullptr) << family.name;
    if (kernel->batches() == 0) continue;  // greedy[3]: the base loop
    EXPECT_EQ(kernel->fast_balls(), 20000u) << family.name;
    EXPECT_EQ(kernel->fallback_balls(), 0u) << family.name;
    EXPECT_GT(kernel->exact_balls(), 0u) << family.name;
    EXPECT_LE(kernel->exact_balls(), state.max_load()) << family.name;
  }
}

TEST(BatchKernel, LockstepAcrossSideTablePromotion) {
  // m = 300 * n pushes every lane through the 255 -> 256 promotion: the
  // walk must step every ball near or past the ceiling out to the exact
  // step, and placements must stay identical straight through it.
  for (const Family& family : kFamilies) {
    expect_lockstep(family, /*n=*/8, /*m=*/8 * 300, /*seed=*/11);
    expect_lockstep(family, /*n=*/64, /*m=*/64 * 260, /*seed=*/13);
  }
  for (const Family& family : kFamilies) {
    auto rule = family.make(8);
    BinState state(8, StateLayout::kCompact);
    rng::Engine gen(11);
    rule->set_engine_exclusive(true);
    rule->place_batch(state, 8 * 300, gen);
    const BatchPlacer* kernel = rule->batch_kernel();
    ASSERT_NE(kernel, nullptr) << family.name;
    if (kernel->batches() == 0) continue;  // greedy[3]: the base loop
    // Far more exact steps than levels: every ball with a candidate lane
    // above kFastLoadMax takes one.
    EXPECT_GT(kernel->exact_balls(), state.max_load()) << family.name;
    EXPECT_LE(kernel->exact_balls(), kernel->fast_balls()) << family.name;
  }
}

TEST(BatchKernel, LockstepThroughRejectionReplay) {
  // An engine whose first word is 0: low64(0 * bound) = 0 is a Lemire
  // rejection candidate for every bound that is not a power of two, so
  // the first wave replays through the exact step (uniform_below retries
  // the word) and later waves — greedy[2] carrying residue — resume the
  // walk. A rejection is otherwise a ~n / 2^64 event per word.
  const rng::Engine start(std::array<std::uint64_t, 4>{0, 0x9E3779B97F4A7C15ULL,
                                                       0xBF58476D1CE4E5B9ULL, 0});
  for (const Family& family : kFamilies) {
    for (const std::uint64_t m : {1u, 2u, 700u, 2 * BatchPlacer::kWaveWords + 5}) {
      expect_lockstep(family, /*n=*/97, m, start);
    }
    auto rule = family.make(97);
    BinState state(97, StateLayout::kCompact);
    rng::Engine gen(start);
    rule->set_engine_exclusive(true);
    rule->place_batch(state, 700, gen);
    const BatchPlacer* kernel = rule->batch_kernel();
    ASSERT_NE(kernel, nullptr) << family.name;
    if (kernel->batches() == 0) continue;  // greedy[3]: the base loop
    EXPECT_GT(kernel->fallback_balls(), 0u) << family.name;
    EXPECT_EQ(kernel->fast_balls() + kernel->fallback_balls(), 700u) << family.name;
  }
}

TEST(BatchKernel, LockstepAcrossSimdTiers) {
  const auto ceiling = static_cast<int>(simd::detected_simd_tier());
  for (int t = 0; t <= ceiling; ++t) {
    simd::set_simd_tier_override(static_cast<simd::SimdTier>(t));
    for (const Family& family : kFamilies) {
      expect_lockstep(family, /*n=*/1u << 14, /*m=*/5000, /*seed=*/17 + t);
    }
  }
  simd::clear_simd_tier_override();
}

TEST(BatchKernel, InterleavedPlaceOneAndBatchMatchesPureStream) {
  // The residue hand-back: a place_one right after a place_batch must see
  // exactly the word a pure place_one stream would (the kernel returns
  // its undrained read-ahead to the lookahead).
  for (const Family& family : kFamilies) {
    const std::uint32_t n = 512;
    rng::Engine gen_ref(99);
    BinState ref_state(n, StateLayout::kCompact);
    auto ref_rule = family.make(n);
    ref_rule->set_engine_exclusive(true);
    std::vector<std::uint32_t> ref_bins;
    for (int i = 0; i < 700; ++i) {
      ref_bins.push_back(ref_rule->place_one(ref_state, gen_ref));
    }

    rng::Engine gen_mix(99);
    BinState mix_state(n, StateLayout::kCompact);
    auto mix_rule = family.make(n);
    mix_rule->set_engine_exclusive(true);
    std::vector<std::uint32_t> mix_bins;
    const std::uint64_t chunks[] = {1, 130, 1, 1, 64, 3, 200, 300};
    for (const std::uint64_t chunk : chunks) {
      if (chunk == 1) {
        mix_bins.push_back(mix_rule->place_one(mix_state, gen_mix));
      } else {
        std::vector<std::uint32_t> got(chunk);
        mix_rule->place_batch(mix_state, chunk, gen_mix, got.data());
        mix_bins.insert(mix_bins.end(), got.begin(), got.end());
      }
    }
    ASSERT_EQ(ref_bins.size(), mix_bins.size());
    for (std::size_t i = 0; i < ref_bins.size(); ++i) {
      ASSERT_EQ(ref_bins[i], mix_bins[i]) << family.name << " ball " << i;
    }
    expect_states_equal(ref_state, mix_state);
  }
  // A short batch right after a place_one: place_one topped the lookahead
  // up to kCapacity words and the batch drains only a few of them, so the
  // greedy[2] residue must go back *ahead of* the words still queued.
  for (const Family& family : kFamilies) {
    for (const std::uint64_t batch : {1, 3, 8, 20, 31, 32, 40}) {
      const std::uint32_t n = 512;
      rng::Engine gen_ref(99);
      BinState ref_state(n, StateLayout::kCompact);
      auto ref_rule = family.make(n);
      ref_rule->set_engine_exclusive(true);
      std::vector<std::uint32_t> ref_bins;
      for (std::uint64_t i = 0; i < 17 + batch; ++i) {
        ref_bins.push_back(ref_rule->place_one(ref_state, gen_ref));
      }

      rng::Engine gen_mix(99);
      BinState mix_state(n, StateLayout::kCompact);
      auto mix_rule = family.make(n);
      mix_rule->set_engine_exclusive(true);
      std::vector<std::uint32_t> mix_bins;
      mix_bins.push_back(mix_rule->place_one(mix_state, gen_mix));
      std::vector<std::uint32_t> got(batch);
      mix_rule->place_batch(mix_state, batch, gen_mix, got.data());
      mix_bins.insert(mix_bins.end(), got.begin(), got.end());
      for (int i = 0; i < 16; ++i) {
        mix_bins.push_back(mix_rule->place_one(mix_state, gen_mix));
      }
      ASSERT_EQ(ref_bins.size(), mix_bins.size());
      for (std::size_t i = 0; i < ref_bins.size(); ++i) {
        ASSERT_EQ(ref_bins[i], mix_bins[i])
            << family.name << " batch " << batch << " ball " << i;
      }
      expect_states_equal(ref_state, mix_state);
    }
  }
}

TEST(BatchKernel, IneligibleStatesTakeTheBaseLoop) {
  // Wide layout and heterogeneous capacities must not engage the kernel —
  // and must still match the scalar stream (the base loop IS that
  // stream). The kernel counters stay at zero.
  for (const Family& family : kFamilies) {
    expect_lockstep(family, /*n=*/256, /*m=*/500, /*seed=*/5,
                    StateLayout::kWide);
  }
  DChoiceRule rule(2);
  BinState wide(256, StateLayout::kWide);
  rng::Engine gen(5);
  rule.set_engine_exclusive(true);
  rule.place_batch(wide, 500, gen);
  ASSERT_NE(rule.batch_kernel(), nullptr);
  EXPECT_EQ(rule.batch_kernel()->batches(), 0u);

  // Without the engine-exclusivity promise the kernel may not read ahead.
  DChoiceRule plain(2);
  BinState compact(256, StateLayout::kCompact);
  plain.place_batch(compact, 100, gen);
  EXPECT_EQ(plain.batch_kernel()->batches(), 0u);

  // All-equal-but-explicit capacities are uniform yet carry per-class
  // metric state the lean commit skips: must route to the base loop.
  BinState capped(std::vector<std::uint32_t>(64, 3), StateLayout::kCompact);
  DChoiceRule capped_rule(2);
  capped_rule.set_engine_exclusive(true);
  capped_rule.place_batch(capped, 100, gen);
  EXPECT_EQ(capped_rule.batch_kernel()->batches(), 0u);
}

// -- ISA backend primitives -------------------------------------------------

TEST(BatchOps, TierNamesRoundTrip) {
  EXPECT_EQ(simd::to_string(simd::SimdTier::kScalar), "scalar");
  EXPECT_EQ(simd::to_string(simd::SimdTier::kAvx2), "avx2");
  EXPECT_EQ(simd::to_string(simd::SimdTier::kAvx512bw), "avx512bw");
  EXPECT_EQ(simd::parse_simd_tier("scalar"), simd::SimdTier::kScalar);
  EXPECT_EQ(simd::parse_simd_tier("avx2"), simd::SimdTier::kAvx2);
  EXPECT_EQ(simd::parse_simd_tier("avx512bw"), simd::SimdTier::kAvx512bw);
  EXPECT_THROW((void)simd::parse_simd_tier("sse2"), std::invalid_argument);
}

TEST(BatchOps, DispatchNeverExceedsDetection) {
  EXPECT_LE(static_cast<int>(simd::active_simd_tier()),
            static_cast<int>(simd::detected_simd_tier()));
  simd::set_simd_tier_override(simd::SimdTier::kScalar);
  EXPECT_EQ(simd::active_simd_tier(), simd::SimdTier::kScalar);
  EXPECT_EQ(simd::active_ops().tier, simd::SimdTier::kScalar);
  simd::clear_simd_tier_override();
}

/// 2^64 mod bound — the Lemire rejection threshold callers pass in.
std::uint64_t lemire_threshold(std::uint32_t bound) {
  const auto b = static_cast<std::uint64_t>(bound);
  return (0 - b) % b;
}

TEST(BatchOps, BackendsMatchScalarReferenceByteForByte) {
  // Every tier the CPU supports, against the scalar reference (which is
  // itself pinned against the plain 128-bit definition), across lengths
  // covering empty, sub-vector, vector-boundary, and multi-vector arrays
  // of both backends (4 and 8 words per step) plus odd counts, and
  // stream pairs covering the one-choice/greedy[2] shape (identical
  // streams), the left[2] shape (split bounds and bases), and both
  // power-of-two (threshold 0, never rejects) and non-power bounds.
  rng::Engine gen(123);
  // The ceiling is what dispatch allows with no override: the detected
  // tier clamped by BBB_SIMD_MAX, which wins over the override.
  simd::clear_simd_tier_override();
  const auto ceiling = static_cast<int>(simd::active_simd_tier());
  const std::uint32_t lengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 100, 256};
  const simd::MapStream pairs[][2] = {
      {{97, 0, lemire_threshold(97)}, {97, 0, lemire_threshold(97)}},
      {{1u << 20, 0, 0}, {1u << 20, 0, 0}},
      {{50, 0, lemire_threshold(50)}, {51, 50, lemire_threshold(51)}},
      {{1, 0, 0}, {1, 0, 0}},
  };
  for (const auto& streams : pairs) {
    for (const std::uint32_t count : lengths) {
      for (const bool plant_zero : {false, true}) {
        std::vector<std::uint64_t> words(count);
        for (auto& w : words) w = gen();
        // A zero word is a rejection candidate for every non-power-of-two
        // bound (low64(0 * b) = 0 < threshold), so planting one exercises
        // the reject=true return without hunting for a ~b/2^64 event.
        if (plant_zero && count > 2) words[count - 2] = 0;
        std::vector<std::uint32_t> bins_ref(count);
        const bool rej_ref = simd::scalar_ops().map_words(
            words.data(), count, streams[0], streams[1], bins_ref.data());
        bool rej_naive = false;
        for (std::uint32_t i = 0; i < count; ++i) {
          const simd::MapStream& s = (i & 1u) != 0 ? streams[1] : streams[0];
          const auto prod = static_cast<__uint128_t>(words[i]) * s.bound;
          EXPECT_EQ(bins_ref[i],
                    s.base + static_cast<std::uint32_t>(prod >> 64))
              << "i=" << i;
          rej_naive |= static_cast<std::uint64_t>(prod) < s.threshold;
        }
        EXPECT_EQ(rej_ref, rej_naive);
        for (int t = 1; t <= ceiling; ++t) {
          simd::set_simd_tier_override(static_cast<simd::SimdTier>(t));
          const simd::SimdOps& ops = simd::active_ops();
          ASSERT_EQ(static_cast<int>(ops.tier), t);
          std::vector<std::uint32_t> bins(count);
          const bool rej = ops.map_words(words.data(), count, streams[0],
                                         streams[1], bins.data());
          EXPECT_EQ(rej, rej_ref) << "tier " << t << " count " << count;
          EXPECT_EQ(bins, bins_ref) << "tier " << t << " count " << count;
          simd::clear_simd_tier_override();
        }
      }
    }
  }
}

TEST(BatchKernel, EligibilityPredicate) {
  BinState compact(16, StateLayout::kCompact);
  BinState wide(16, StateLayout::kWide);
  BinState capped(std::vector<std::uint32_t>(16, 2), StateLayout::kCompact);
  ProbeLookahead on;
  on.set_enabled(true);
  ProbeLookahead off;
  EXPECT_TRUE(BatchPlacer::eligible(compact, on));
  EXPECT_FALSE(BatchPlacer::eligible(compact, off));
  EXPECT_FALSE(BatchPlacer::eligible(wide, on));
  EXPECT_FALSE(BatchPlacer::eligible(capped, on));
}

}  // namespace
}  // namespace bbb::core
