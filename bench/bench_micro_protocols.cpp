/// bench_micro_protocols — google-benchmark timings for the protocol hot
/// loops: nanoseconds per placed ball at a fixed cache-resident instance
/// shape (n = 2^16). This turns the paper's probe counts into wall-clock
/// throughput numbers.
///
/// The giant-scale and batch-kernel loops are timed by `bbb_bench`
/// (`stream.*`) and perfbench (`giant-greedy2`, `batch_kernel.place_batch`),
/// not here.

#include <benchmark/benchmark.h>

#include "bbb/core/concurrent_adaptive.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace {

constexpr std::uint32_t kBins = 1 << 16;

// Each iteration places one full stage of kBins balls through a fresh
// rule + BinState pair; items_processed reports per-ball cost.
void run_streaming_bench(benchmark::State& state, const char* spec) {
  bbb::rng::Engine gen(7);
  for (auto _ : state) {
    state.PauseTiming();
    bbb::core::StreamingAllocator alloc(kBins,
                                        bbb::core::make_rule(spec, kBins, kBins));
    state.ResumeTiming();
    for (std::uint32_t i = 0; i < kBins; ++i) {
      benchmark::DoNotOptimize(alloc.place(gen));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBins);
}

void BM_PlaceOneChoice(benchmark::State& state) {
  run_streaming_bench(state, "one-choice");
}
BENCHMARK(BM_PlaceOneChoice);

void BM_PlaceGreedy2(benchmark::State& state) {
  run_streaming_bench(state, "greedy[2]");
}
BENCHMARK(BM_PlaceGreedy2);

void BM_PlaceLeft2(benchmark::State& state) {
  run_streaming_bench(state, "left[2]");
}
BENCHMARK(BM_PlaceLeft2);

void BM_PlaceMemory11(benchmark::State& state) {
  run_streaming_bench(state, "memory[1,1]");
}
BENCHMARK(BM_PlaceMemory11);

void BM_PlaceAdaptive(benchmark::State& state) {
  run_streaming_bench(state, "adaptive");
}
BENCHMARK(BM_PlaceAdaptive);

void BM_PlaceThreshold(benchmark::State& state) {
  run_streaming_bench(state, "threshold");
}
BENCHMARK(BM_PlaceThreshold);

// Full batch runs at m = 8n: end-to-end protocol cost including result
// materialization, reported as balls/second.
void BM_RunAdaptiveHeavy(benchmark::State& state) {
  const auto protocol = bbb::core::make_protocol("adaptive");
  bbb::rng::Engine gen(9);
  constexpr std::uint32_t n = 1 << 14;
  constexpr std::uint64_t m = 8ULL * n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol->run(m, n, gen));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_RunAdaptiveHeavy);

void BM_RunThresholdHeavy(benchmark::State& state) {
  const auto protocol = bbb::core::make_protocol("threshold");
  bbb::rng::Engine gen(9);
  constexpr std::uint32_t n = 1 << 14;
  constexpr std::uint64_t m = 8ULL * n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol->run(m, n, gen));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_RunThresholdHeavy);

// Lock-free concurrent adaptive: per-ball cost of the CAS path under
// google-benchmark's thread fan-out (each thread gets its own engine).
void BM_ConcurrentAdaptive(benchmark::State& state) {
  static bbb::core::ConcurrentAdaptiveAllocator* alloc = nullptr;
  if (state.thread_index() == 0) {
    alloc = new bbb::core::ConcurrentAdaptiveAllocator(kBins);
  }
  bbb::rng::Engine gen(1000 + static_cast<std::uint64_t>(state.thread_index()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc->place(gen));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete alloc;
    alloc = nullptr;
  }
}
BENCHMARK(BM_ConcurrentAdaptive)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

}  // namespace
