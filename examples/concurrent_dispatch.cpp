/// concurrent_dispatch — the adaptive protocol as a *lock-free shared-memory
/// dispatcher*: T threads place jobs concurrently against one atomic load
/// table, and the paper's guarantee holds under every interleaving.
///
/// Why it works: adaptive's acceptance bound ceil(i/n) is constant within a
/// stage of n balls, so the counter snapshot a thread reads may lag by the
/// number of in-flight placements without changing any decision (see
/// bbb/core/concurrent_adaptive.hpp). The CAS on the bin load makes the
/// "check bound, then increment" step atomic.
///
///   $ ./concurrent_dispatch --jobs=1000000 --servers=10000 --threads=4

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bbb/core/concurrent_adaptive.hpp"
#include "bbb/core/metrics.hpp"
#include "bbb/core/protocol.hpp"
#include "bbb/io/argparse.hpp"
#include "bbb/rng/streams.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("concurrent_dispatch",
                          "lock-free multi-threaded adaptive dispatcher");
  args.add_flag("jobs", std::uint64_t{1'000'000}, "total jobs");
  args.add_flag("servers", std::uint64_t{10'000}, "servers (bins)");
  args.add_flag("threads", std::uint64_t{4}, "dispatcher threads");
  args.add_flag("seed", std::uint64_t{17}, "master seed");
  if (!args.parse(argc, argv)) return 0;

  const auto jobs = args.get_u64("jobs");
  const auto servers = args.get_u32("servers");
  const auto threads = args.get_u32("threads");

  bbb::core::ConcurrentAdaptiveAllocator dispatcher(servers);
  bbb::rng::SeedSequence seq(args.get_u64("seed"));

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    const std::uint64_t share = jobs / threads + (t < jobs % threads ? 1 : 0);
    workers.emplace_back([&dispatcher, share, engine = seq.engine(t)]() mutable {
      for (std::uint64_t i = 0; i < share; ++i) (void)dispatcher.place(engine);
    });
  }
  for (auto& w : workers) w.join();
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start).count();

  const auto loads = dispatcher.loads_snapshot();
  const auto metrics = bbb::core::compute_metrics(loads, dispatcher.balls());
  const auto bound = static_cast<std::uint32_t>(bbb::core::ceil_div(jobs, servers) + 1);

  std::printf("%u threads dispatched %llu jobs to %u servers in %.3f s "
              "(%.1f M jobs/s)\n",
              threads, static_cast<unsigned long long>(dispatcher.balls()), servers,
              elapsed, static_cast<double>(jobs) / elapsed / 1e6);
  std::printf("  probes          : %llu (%.3f per job)\n",
              static_cast<unsigned long long>(dispatcher.probes()),
              static_cast<double>(dispatcher.probes()) / static_cast<double>(jobs));
  std::printf("  max load        : %u  (guarantee <= %u: %s)\n", metrics.max, bound,
              metrics.max <= bound ? "HELD under concurrency" : "VIOLATED");
  std::printf("  gap             : %u  (O(log n) smoothness survives races)\n",
              metrics.gap);
  std::printf("  quadratic pot.  : %.0f (= %.2f n)\n", metrics.psi,
              metrics.psi / servers);
  return metrics.max <= bound ? 0 : 1;
}
