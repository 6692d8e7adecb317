#pragma once
/// \file workloads.hpp
/// The four benchmark workloads: their shapes, the end-to-end call each
/// one times, the set-up it measures, and the output checks that feed
/// `failed_share`.
///
/// An op is one ball placed (sim workloads) or one dyn event (dyn-churn).
/// Every input derives from the run's `--seed`: call k of a run uses the
/// master seed rng::derive_seed(seed, k), and the library derives each
/// replicate's engine from that.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bbb/core/bin_state.hpp"
#include "bbb/dyn/engine.hpp"
#include "bbb/par/thread_pool.hpp"
#include "bbb/sim/experiment.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Tier : std::uint8_t { kSim, kDyn };

/// One workload's shape.
struct Plan {
  std::string name;
  Tier tier = Tier::kSim;
  std::string spec;  ///< protocol spec (sim) or allocator spec (dyn)
  bbb::core::StateLayout layout = bbb::core::StateLayout::kWide;
  std::uint32_t n = 1;
  std::uint64_t m = 0;  ///< sim: balls per replicate
  std::uint64_t population = 0;  ///< dyn: churn population
  std::uint64_t warmup = 0;      ///< dyn: fill events (== population)
  std::uint64_t events = 0;      ///< dyn: measured events (even)
  std::uint32_t replicates = 1;
  std::uint32_t threads = 1;     ///< pool size
  /// Probes each ball makes exactly (greedy[2]: 2); 0 = at least one.
  std::uint32_t exact_probes_per_ball = 0;
  /// The paper's adaptive guarantee max_load <= ceil(m/n) + 1 is checked.
  bool adaptive_bound = false;
  /// Set-up fails unless the slab is larger than the last-level cache.
  bool beyond_llc = false;

  [[nodiscard]] std::uint64_t ops_per_replicate() const noexcept {
    return tier == Tier::kSim ? m : warmup + events;
  }
  [[nodiscard]] std::uint64_t ops_per_call() const noexcept {
    return ops_per_replicate() * replicates;
  }
  /// Bytes of per-bin load storage one replicate allocates.
  [[nodiscard]] std::uint64_t slab_bytes() const noexcept;
  [[nodiscard]] std::string describe() const;
};

/// The workload names, in the order `--workload all` runs them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Shape of `name` at full size, or at smoke size for the tests.
/// \throws std::invalid_argument for an unknown name.
[[nodiscard]] Plan make_plan(std::string_view name, bool smoke, std::uint32_t nproc);

/// The library config of one call of a sim / dyn plan with master seed
/// `seed`; `counters` selects `--obs=counters` instead of off.
[[nodiscard]] bbb::sim::ExperimentConfig sim_config(const Plan& plan, std::uint64_t seed,
                                                    bool counters);
[[nodiscard]] bbb::dyn::DynConfig dyn_config(const Plan& plan, std::uint64_t seed,
                                             bool counters);

/// Replicate-0 outputs of a call, echoed and pinned for the default seed.
struct Echo {
  double max_load = 0.0;
  double gap = 0.0;
  double psi = 0.0;
  double psi_per_bin = 0.0;
};

/// One timed call of a workload and the verdict of its checks.
struct CallResult {
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  std::vector<std::string> failures;
  Echo echo;
  std::uint64_t discarded_words = 0;  ///< lookahead words dropped (traced calls)
};

/// Drives one workload: set-up samples, timed calls, and the conservation
/// re-run that verifies a call's replicate 0 from the state itself.
class Runner {
 public:
  /// `tracer` may be null (untraced run: spans are not recorded).
  Runner(Plan plan, std::uint64_t seed, Tracer* tracer);

  [[nodiscard]] const Plan& plan() const noexcept { return plan_; }

  /// One set-up sample in seconds: spec parse, pool construction, and one
  /// zero-filled BinState per replicate (built on the pool) — everything
  /// between the call and the first placement.
  [[nodiscard]] double measure_setup_s() const;

  /// Call `index` with the run's derived seed. Untraced: the library's
  /// run_experiment / run_dynamic with observability off. Traced: the
  /// same replicate fan-out driven from here with `--obs=counters`, with
  /// spans around parse, the par fan-out, and every replicate.
  [[nodiscard]] CallResult call(std::uint64_t index, bool traced);

  /// Re-run replicate 0 of call `index` through the streaming API and
  /// check conservation and agreement with `result`'s echo.
  [[nodiscard]] std::vector<std::string> verify(std::uint64_t index,
                                                const CallResult& result) const;

 private:
  [[nodiscard]] std::uint64_t call_seed(std::uint64_t index) const;
  CallResult call_sim(std::uint64_t index, bool traced);
  CallResult call_dyn(std::uint64_t index, bool traced);

  Plan plan_;
  std::uint64_t seed_;
  Tracer* tracer_;
  bbb::par::ThreadPool pool_;
};

}  // namespace perfbench
