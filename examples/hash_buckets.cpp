/// hash_buckets — bounded-bucket hashing, the paper's hashing application:
/// place keys into buckets so no bucket ever exceeds ceil(m/n)+1 entries
/// (worst-case O(1) lookups with a *known* constant), at ~1 probe per key.
///
/// Contrasts three designs on the same key set:
///   threshold  — bucket bound ceil(m/n)+1, m known up-front (static build)
///   cuckoo     — fixed bucket size, relocations on insert (dynamic)
///   one-choice — plain hashing, unbounded worst bucket
///
///   $ ./hash_buckets --keys=1000000 --buckets=65536

#include <cstdio>
#include <string>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/io/argparse.hpp"
#include "bbb/rng/xoshiro256.hpp"
#include "bbb/stats/histogram.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("hash_buckets", "bounded-bucket hash table construction");
  args.add_flag("keys", std::uint64_t{1'000'000}, "keys to insert");
  args.add_flag("buckets", std::uint64_t{65'536}, "number of buckets");
  args.add_flag("seed", std::uint64_t{11}, "RNG seed");
  if (!args.parse(argc, argv)) return 0;

  const auto m = args.get_u64("keys");
  const auto n = args.get_u32("buckets");
  const auto seed = args.get_u64("seed");
  const auto bound = static_cast<std::uint32_t>(bbb::core::ceil_div(m, n) + 1);

  std::printf("building hash tables: %llu keys, %u buckets (avg %.2f/bucket)\n\n",
              static_cast<unsigned long long>(m), n,
              static_cast<double>(m) / static_cast<double>(n));

  // --- threshold build ----------------------------------------------------
  {
    bbb::rng::Engine gen(seed);
    const auto res = bbb::core::make_protocol("threshold")->run(m, n, gen);
    const auto lm = bbb::core::compute_metrics(res.loads, m);
    std::printf("threshold build  : worst bucket %u (guaranteed <= %u), "
                "%.3f probes/key\n",
                lm.max, bound,
                static_cast<double>(res.probes) / static_cast<double>(m));
  }

  // --- cuckoo build ---------------------------------------------------------
  {
    bbb::rng::Engine gen(seed);
    // Same worst-bucket budget as threshold.
    const auto cuckoo =
        bbb::core::make_protocol("cuckoo[2," + std::to_string(bound) + "]");
    const auto res = cuckoo->run(m, n, gen);
    std::printf("cuckoo[2,%u] build: worst bucket %u, %.3f probes/key, "
                "%llu relocations%s\n",
                bound, bbb::core::max_load(res.loads),
                static_cast<double>(res.probes) / static_cast<double>(m),
                static_cast<unsigned long long>(res.reallocations),
                res.completed ? "" : " (SOME INSERTS FAILED)");
  }

  // --- plain hashing --------------------------------------------------------
  bbb::rng::Engine gen(seed);
  const auto plain = bbb::core::make_protocol("one-choice")->run(m, n, gen);
  std::printf("one-choice build : worst bucket %u (no bound), 1.000 probes/key\n\n",
              bbb::core::max_load(plain.loads));

  std::puts("one-choice bucket occupancy histogram (threshold's is capped at the");
  std::printf("guarantee %u):\n", bound);
  const auto hist = bbb::core::load_histogram(plain.loads);
  std::fputs(hist.render_ascii(48).c_str(), stdout);
  return 0;
}
