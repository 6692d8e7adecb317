#include "bbb/shard/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/spec.hpp"
#include "bbb/par/spin_barrier.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::shard {

namespace {

/// Thrown inside a worker when another worker set the abort flag; carries
/// no information (the original error lives in that worker's slot).
struct Aborted {};

/// How many inbox entries ahead the serve and apply walks prefetch the
/// owner's load slot (and first-prober record): the entries name random
/// bins, so without it every entry waits on its own cache miss.
constexpr std::size_t kServeAhead = 16;

/// One cross-shard inbox entry of the draw phase: "report the round-start
/// load of your bin `bin`, and whether an earlier ball this round probed
/// it, into slot (`ball`, `slot`) of my probe arrays". The bin is
/// owner-local; the ball is the requester's round-local index, which the
/// round-size clamp keeps below 2^16, so an entry is one 64-bit word.
struct ProbeRequest {
  std::uint32_t bin = 0;
  std::uint16_t ball = 0;
  std::uint8_t slot = 0;
};

/// The one multi-shard family check behind both constructors: the inner
/// rule's canonical name and, for t > 1, the decision kind and d the round
/// protocol implements natively.
struct Family {
  DecisionKind kind = DecisionKind::kOneChoice;
  std::uint32_t d = 1;
  std::string name;
};

Family shard_family(const std::string& inner_spec, std::uint32_t shards) {
  const std::string spec = "shards[" + std::to_string(shards) + "]:" + inner_spec;
  if (shards == 0 || shards > core::kMaxShards) {
    throw std::invalid_argument("protocol spec '" + spec +
                                "': shard count must be in [1, " +
                                std::to_string(core::kMaxShards) + "]");
  }
  Family f;
  f.name = core::make_protocol(inner_spec)->name();  // validates every argument
  if (shards == 1) return f;
  const core::ParsedSpec s = core::parse_spec(f.name, "protocol");
  if (s.name == "one-choice") return f;
  if (s.name == "greedy" || s.name == "left") {
    f.kind = s.name == "greedy" ? DecisionKind::kGreedy : DecisionKind::kLeft;
    f.d = core::spec_arg_u32(s, 0, f.name, "protocol");
    if (f.d <= kMaxShardD) return f;
    throw std::invalid_argument("protocol spec '" + spec + "': d must be <= " +
                                std::to_string(kMaxShardD) + " in multi-shard mode");
  }
  throw std::invalid_argument("protocol spec '" + spec +
                              "': multi-shard mode implements one-choice / greedy[d] / "
                              "left[d] only; '" + f.name + "' runs only as shards[1]");
}

}  // namespace

/// One worker's shard: its bins, its RNG substream, and all per-round
/// scratch. Other workers touch its fields only in the phases the round
/// protocol (engine.hpp) assigns them, always behind a barrier.
struct ShardedAllocator::Worker {
  core::BinState state;
  rng::Engine eng{0};

  // Per-round scratch, sized once to the maximum slice.
  std::vector<std::uint32_t> probe_bins;      ///< slice * d global bins
  std::vector<std::uint32_t> probe_loads;     ///< slice * d round-start loads
  std::vector<std::uint8_t> probe_conflict;   ///< slice * d conflict verdicts
  std::vector<std::uint64_t> aux;             ///< greedy tie-break words
  /// Per local bin: the round that last probed it and its first prober
  /// that round, side by side so a probe touches one cache line.
  struct FirstProbe {
    std::uint32_t round = 0;
    std::uint32_t ball = 0;
  };
  std::vector<FirstProbe> first_probe;

  /// Per destination shard (this one included): the draw phase's probe
  /// requests and the decide phase's winning owner-local bins.
  std::vector<std::vector<ProbeRequest>> out_probes;
  std::vector<std::vector<std::uint32_t>> out_commits;

  struct Deferred {
    std::uint64_t gid = 0;  ///< global ball index (round-major order)
    std::uint64_t aux = 0;
    std::array<std::uint32_t, kMaxShardD> bins{};
  };
  std::vector<Deferred> deferred;

  ShardCounters counters;
  std::exception_ptr error;

  Worker(std::uint32_t bins, core::StateLayout layout, std::uint32_t shards)
      : state(bins, layout), out_probes(shards), out_commits(shards) {}
};

/// The round barrier and the abort flag that releases it when a worker
/// fails (or a worker thread never started).
struct ShardedAllocator::Sync {
  par::SpinBarrier barrier;
  std::atomic<bool> abort{false};

  explicit Sync(std::uint32_t t) : barrier(t) {}

  void wait() {
    if (!barrier.arrive_and_wait(abort)) throw Aborted{};
  }
};

ShardedAllocator::ShardedAllocator(const std::string& inner_spec, std::uint32_t n,
                                   ShardOptions opt)
    : topo_(n, opt.shards), opt_(opt) {
  // The registry checks the n-dependent limits (left[d] needs d <= n) and
  // rejects modifier prefixes; in single-shard mode this is the rule that runs.
  auto rule = core::make_rule(inner_spec, n, opt.m_hint);
  const Family family = shard_family(inner_spec, topo_.shards());
  inner_name_ = family.name;
  kind_ = family.kind;
  d_ = family.d;
  if (topo_.shards() == 1) {
    rule_ = std::move(rule);
    single_state_ = std::make_unique<core::BinState>(n, opt_.layout);
    return;
  }
  const std::uint64_t cap = 65535ULL * topo_.shards();
  round_total_ = std::clamp<std::uint64_t>(opt_.round_balls, topo_.shards(), cap);
}

ShardedAllocator::~ShardedAllocator() = default;

std::string ShardedAllocator::name() const {
  return "shards[" + std::to_string(topo_.shards()) + "]:" + inner_name_;
}

std::pair<std::uint32_t, std::uint32_t> ShardedAllocator::group_range(
    std::uint32_t g) const noexcept {
  // left[d]'s partition, verbatim (left_d.cpp): group g = [g*n/d, (g+1)*n/d).
  const std::uint64_t n = topo_.n();
  const auto first = static_cast<std::uint32_t>(g * n / d_);
  const auto last =
      static_cast<std::uint32_t>((static_cast<std::uint64_t>(g) + 1) * n / d_);
  return {first, last};
}

std::uint32_t ShardedAllocator::decide_slot(const std::uint32_t* loads, std::uint32_t d,
                                            std::uint64_t aux) const noexcept {
  if (kind_ == DecisionKind::kOneChoice) return 0;
  if (kind_ == DecisionKind::kLeft) {
    // Vöcking's always-go-left: strict < keeps the leftmost minimum.
    std::uint32_t best = 0;
    for (std::uint32_t g = 1; g < d; ++g) {
      if (loads[g] < loads[best]) best = g;
    }
    return best;
  }
  // greedy[d]: least loaded, ties broken uniformly by the ball's pre-drawn
  // tie-break word (same distribution as the sequential reservoir draw).
  std::uint32_t best = 0;
  std::uint32_t ties = 1;
  for (std::uint32_t g = 1; g < d; ++g) {
    if (loads[g] < loads[best]) {
      best = g;
      ties = 1;
    } else if (loads[g] == loads[best]) {
      ++ties;
    }
  }
  if (ties == 1) return best;
  const auto pick = static_cast<std::uint32_t>(rng::lemire_map(aux, ties));
  std::uint32_t seen = 0;
  for (std::uint32_t g = 0; g < d; ++g) {
    if (loads[g] == loads[best]) {
      if (seen == pick) return g;
      ++seen;
    }
  }
  return best;  // unreachable
}

void ShardedAllocator::run(std::uint64_t m, rng::Engine& gen) {
  if (ran_) throw std::logic_error("ShardedAllocator::run: engine is one-shot");
  ran_ = true;
  if (topo_.shards() == 1) {
    run_single(m, gen);
  } else {
    run_sharded(m, gen);
  }
}

void ShardedAllocator::run_single(std::uint64_t m, rng::Engine& gen) {
  // The calling thread owns the engine and the rule for the whole run, so
  // the engine-exclusivity promise holds and placements are bit-for-bit
  // the StreamingAllocator place_batch + finalize stream.
  rule_->set_engine_exclusive(true);
  rule_->place_batch(*single_state_, m, gen);
  rule_->finalize(*single_state_, gen);
  rule_->set_engine_exclusive(false);
  counters_.balls = m;
  counters_.probes = rule_->probes();
}

void ShardedAllocator::run_sharded(std::uint64_t m, rng::Engine& gen) {
  // One word of the caller's stream seeds the nested per-shard substreams
  // (SeedSequence nesting: replicate seed -> shard seeds), so a sharded
  // run consumes the caller's engine deterministically regardless of T.
  const std::uint64_t nested = gen();
  const std::uint32_t t = topo_.shards();
  const auto slice_max =
      static_cast<std::uint32_t>((round_total_ + t - 1) / t);  // <= 65535
  const rng::SeedSequence seq(nested);

  workers_.clear();
  workers_.reserve(t);
  for (std::uint32_t s = 0; s < t; ++s) {
    auto w = std::make_unique<Worker>(topo_.shard_bins(s), opt_.layout, t);
    w->eng = seq.engine(s);
    w->probe_bins.resize(static_cast<std::size_t>(slice_max) * d_);
    w->probe_loads.resize(static_cast<std::size_t>(slice_max) * d_);
    w->probe_conflict.resize(static_cast<std::size_t>(slice_max) * d_);
    if (kind_ == DecisionKind::kGreedy) w->aux.resize(slice_max);
    w->first_probe.resize(topo_.shard_bins(s));
    workers_.push_back(std::move(w));
  }

  // Worker 0 runs on the calling thread. A failed spawn releases the
  // workers already parked at the first barrier before it propagates.
  Sync sync(t);
  std::vector<std::thread> threads;
  threads.reserve(t - 1);
  const auto release_started = [&] {
    sync.abort.store(true, std::memory_order_seq_cst);
    for (std::thread& th : threads) th.join();
  };
  try {
    for (std::uint32_t s = 1; s < t; ++s) {
      threads.emplace_back([this, s, m, &sync] { worker_main(s, m, sync); });
    }
  } catch (const std::system_error& e) {
    release_started();
    throw std::system_error(e.code(), "sharded engine: cannot start worker thread " +
                                          std::to_string(threads.size() + 1) + " of " +
                                          std::to_string(t));
  } catch (...) {
    release_started();
    throw;
  }
  worker_main(0, m, sync);
  for (std::thread& th : threads) th.join();

  for (std::uint32_t s = 0; s < t; ++s) {
    if (workers_[s]->error) std::rethrow_exception(workers_[s]->error);
  }
  for (std::uint32_t s = 0; s < t; ++s) counters_ += workers_[s]->counters;
  sync_rounds_ = (m + round_total_ - 1) / round_total_;
}

void ShardedAllocator::worker_main(std::uint32_t s, std::uint64_t m, Sync& sync) {
  Worker& w = *workers_[s];
  const std::uint32_t t = topo_.shards();
  const std::uint32_t n = topo_.n();
  const std::uint64_t rounds = (m + round_total_ - 1) / round_total_;

  try {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const std::uint64_t round_base = r * round_total_;
      const std::uint64_t b = std::min(round_total_, m - round_base);
      const auto lo = static_cast<std::uint32_t>(s * b / t);
      const auto hi =
          static_cast<std::uint32_t>((static_cast<std::uint64_t>(s) + 1) * b / t);
      const std::uint32_t cnt = hi - lo;
      const auto stamp = static_cast<std::uint32_t>(r + 1);

      // --- phase A: draw probes from this shard's substream and file each
      // one in its owner's inbox. Draw order is fixed (ball-major,
      // slot-major), so the stream depends only on the substream seed.
      for (auto& inbox : w.out_probes) inbox.clear();
      for (std::uint32_t i = 0; i < cnt; ++i) {
        for (std::uint32_t g = 0; g < d_; ++g) {
          std::uint32_t bin = 0;
          if (kind_ == DecisionKind::kLeft) {
            const auto [gfirst, glast] = group_range(g);
            bin = gfirst + static_cast<std::uint32_t>(
                               rng::uniform_below(w.eng, glast - gfirst));
          } else {
            bin = static_cast<std::uint32_t>(rng::uniform_below(w.eng, n));
          }
          w.probe_bins[static_cast<std::size_t>(i) * d_ + g] = bin;
          const std::uint32_t owner = topo_.shard_of(bin);
          w.out_probes[owner].push_back(ProbeRequest{topo_.local_of(bin, owner),
                                                     static_cast<std::uint16_t>(i),
                                                     static_cast<std::uint8_t>(g)});
          if (owner != s) {
            ++w.counters.cross_shard_probes;
            ++w.counters.messages;
          }
        }
        if (kind_ == DecisionKind::kGreedy) w.aux[i] = w.eng();
      }
      w.counters.probes += static_cast<std::uint64_t>(cnt) * d_;
      w.counters.balls += cnt;
      sync.wait();  // A: every inbox of this round is filled

      // --- phase B: serve the probes on bins this shard owns, in global
      // ball order (requester-major), writing the round-start load and the
      // conflict verdict straight into the requester's slot: a probe on a
      // bin first probed by an *earlier* ball defers the probing ball.
      // No commit is applied before phase D, so every load read here is
      // the round-start load.
      for (std::uint32_t from = 0; from < t; ++from) {
        Worker& req = *workers_[from];
        const auto from_lo = static_cast<std::uint32_t>(from * b / t);
        const std::vector<ProbeRequest>& inbox = req.out_probes[s];
        for (std::size_t k = 0; k < inbox.size(); ++k) {
          if (k + kServeAhead < inbox.size()) {
            const std::uint32_t ahead = inbox[k + kServeAhead].bin;
            w.state.prefetch(ahead);
#if defined(__GNUC__) || defined(__clang__)
            __builtin_prefetch(w.first_probe.data() + ahead, 1, 3);
#endif
          }
          const ProbeRequest& rq = inbox[k];
          const std::size_t idx = static_cast<std::size_t>(rq.ball) * d_ + rq.slot;
          const std::uint32_t rid = from_lo + rq.ball;
          Worker::FirstProbe& fp = w.first_probe[rq.bin];
          std::uint8_t conflicted = 0;
          if (fp.round != stamp) {
            fp = {stamp, rid};
          } else if (fp.ball < rid) {
            conflicted = 1;
          }
          req.probe_loads[idx] = w.state.load(rq.bin);
          req.probe_conflict[idx] = conflicted;
        }
      }
      sync.wait();  // B: every slot holds its load and verdict

      // --- phase C: decide every non-conflicted ball on its round-start
      // loads and file the winner with its owner; defer the rest.
      w.deferred.clear();
      for (auto& inbox : w.out_commits) inbox.clear();
      for (std::uint32_t i = 0; i < cnt; ++i) {
        const std::size_t base = static_cast<std::size_t>(i) * d_;
        if (std::any_of(w.probe_conflict.begin() + base,
                        w.probe_conflict.begin() + base + d_,
                        [](std::uint8_t c) { return c != 0; })) {
          Worker::Deferred def;
          def.gid = round_base + lo + i;
          def.aux = kind_ == DecisionKind::kGreedy ? w.aux[i] : 0;
          std::copy_n(w.probe_bins.begin() + base, d_, def.bins.begin());
          w.deferred.push_back(def);
          ++w.counters.deferred_balls;
          continue;
        }
        const std::uint64_t aux = kind_ == DecisionKind::kGreedy ? w.aux[i] : 0;
        const std::uint32_t slot = decide_slot(w.probe_loads.data() + base, d_, aux);
        const std::uint32_t bin = w.probe_bins[base + slot];
        const std::uint32_t owner = topo_.shard_of(bin);
        w.out_commits[owner].push_back(topo_.local_of(bin, owner));
        if (owner != s) ++w.counters.messages;
      }
      sync.wait();  // C: every commit and deferred list is filed

      // --- phase D: apply the main-phase commits, own first, then the
      // inbound ones in requester order.
      const auto apply = [&w](const std::vector<std::uint32_t>& commits) {
        for (std::size_t k = 0; k < commits.size(); ++k) {
          if (k + kServeAhead < commits.size()) w.state.prefetch(commits[k + kServeAhead]);
          w.state.add_ball(commits[k]);
        }
      };
      apply(w.out_commits[s]);
      for (std::uint32_t from = 0; from < t; ++from) {
        if (from != s) apply(workers_[from]->out_commits[s]);
      }
      sync.wait();  // D: all commits applied

      // --- phase E: worker 0 replays the deferred balls serially in
      // global order against current loads, reading and writing every
      // shard's state directly. The others go on to the next draw phase,
      // which touches neither a BinState nor a deferred list; the next
      // round's first barrier publishes the replay.
      if (s == 0) cleanup_round();
      ++w.counters.rounds;
    }
  } catch (const Aborted&) {
    // Another worker failed; its slot carries the real error.
  } catch (...) {
    w.error = std::current_exception();
    sync.abort.store(true, std::memory_order_seq_cst);
  }
}

void ShardedAllocator::cleanup_round() {
  const std::uint32_t t = topo_.shards();

  // K-way merge of the per-worker deferred lists (each ascending in gid)
  // processes deferred balls in exact global sequential order.
  std::vector<std::size_t> idx(t, 0);
  std::array<std::uint32_t, kMaxShardD> loads{};
  for (;;) {
    std::uint32_t pick = t;
    std::uint64_t best_gid = 0;
    for (std::uint32_t q = 0; q < t; ++q) {
      const auto& list = workers_[q]->deferred;
      if (idx[q] >= list.size()) continue;
      const std::uint64_t gid = list[idx[q]].gid;
      if (pick == t || gid < best_gid) {
        pick = q;
        best_gid = gid;
      }
    }
    if (pick == t) break;
    const Worker::Deferred& def = workers_[pick]->deferred[idx[pick]];
    ++idx[pick];

    for (std::uint32_t g = 0; g < d_; ++g) {
      const std::uint32_t owner = topo_.shard_of(def.bins[g]);
      loads[g] = workers_[owner]->state.load(topo_.local_of(def.bins[g], owner));
    }
    const std::uint32_t bin = def.bins[decide_slot(loads.data(), d_, def.aux)];
    const std::uint32_t owner = topo_.shard_of(bin);
    workers_[owner]->state.add_ball(topo_.local_of(bin, owner));
  }
}

// -- merged reads ------------------------------------------------------------

std::uint64_t ShardedAllocator::balls() const noexcept {
  if (single_state_) return single_state_->balls();
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->state.balls();
  return total;
}

std::uint64_t ShardedAllocator::probes() const noexcept {
  if (rule_) return rule_->probes();
  return counters_.probes;
}

std::uint32_t ShardedAllocator::max_load() const noexcept {
  if (single_state_) return single_state_->max_load();
  std::uint32_t best = 0;
  for (const auto& w : workers_) best = std::max(best, w->state.max_load());
  return best;
}

std::uint32_t ShardedAllocator::min_load() const noexcept {
  if (single_state_) return single_state_->min_load();
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  for (const auto& w : workers_) best = std::min(best, w->state.min_load());
  return best;
}

std::uint32_t ShardedAllocator::gap() const noexcept { return max_load() - min_load(); }

double ShardedAllocator::psi() const noexcept {
  if (single_state_) return single_state_->psi();
  std::uint64_t sum_sq = 0;
  std::uint64_t t = 0;
  for (const auto& w : workers_) {
    sum_sq += w->state.sum_squares();
    t += w->state.balls();
  }
  // BinState::psi()'s exact expression over the merged integer parts.
  const auto td = static_cast<double>(t);
  return static_cast<double>(sum_sq) - td * td / static_cast<double>(topo_.n());
}

double ShardedAllocator::log_phi() const noexcept {
  if (single_state_) return single_state_->log_phi();
  double weight = 0.0;
  std::uint64_t t = 0;
  for (const auto& w : workers_) {
    weight += w->state.phi_weight();
    t += w->state.balls();
  }
  const double average = static_cast<double>(t) / static_cast<double>(topo_.n());
  return std::log(weight) + (average + 2.0) * std::log1p(core::kPotentialEpsilon);
}

std::vector<std::uint32_t> ShardedAllocator::merged_level_counts() const {
  if (single_state_) {
    auto counts = single_state_->level_counts();
    counts.resize(static_cast<std::size_t>(single_state_->max_load()) + 1);
    return counts;
  }
  std::vector<std::uint32_t> merged(static_cast<std::size_t>(max_load()) + 1, 0);
  for (const auto& w : workers_) {
    const auto& counts = w->state.level_counts();
    const std::size_t top =
        std::min(counts.size(), static_cast<std::size_t>(w->state.max_load()) + 1);
    for (std::size_t l = 0; l < top; ++l) merged[l] += counts[l];
  }
  return merged;
}

std::vector<std::uint32_t> ShardedAllocator::copy_loads() const {
  if (single_state_) return single_state_->copy_loads();
  std::vector<std::uint32_t> loads;
  loads.reserve(topo_.n());
  for (const auto& w : workers_) {
    const std::vector<std::uint32_t> part = w->state.copy_loads();
    loads.insert(loads.end(), part.begin(), part.end());
  }
  return loads;
}

core::AllocationResult ShardedAllocator::result() const {
  core::AllocationResult out;
  out.loads = copy_loads();
  out.balls = balls();
  out.probes = probes();
  if (rule_) {
    out.reallocations = rule_->reallocations();
    out.rounds = rule_->rounds();
    out.completed = rule_->completed();
  } else {
    out.rounds = sync_rounds_;
    out.completed = true;
  }
  return out;
}

const core::BinState& ShardedAllocator::shard_state(std::uint32_t s) const {
  if (single_state_) {
    if (s != 0) throw std::out_of_range("shard_state: single-shard engine");
    return *single_state_;
  }
  if (s >= workers_.size()) throw std::out_of_range("shard_state: no such shard");
  return workers_[s]->state;
}

// -- ShardedProtocol ---------------------------------------------------------

ShardedProtocol::ShardedProtocol(std::string inner_spec, ShardOptions opt)
    : inner_spec_(std::move(inner_spec)), opt_(opt) {
  opt_.layout = core::StateLayout::kWide;  // the batch path materializes loads
  // Fail unsupported multi-shard rules at construction, not first run.
  inner_name_ = shard_family(inner_spec_, opt_.shards).name;
}

std::string ShardedProtocol::name() const {
  return "shards[" + std::to_string(opt_.shards) + "]:" + inner_name_;
}

core::AllocationResult ShardedProtocol::run(std::uint64_t m, std::uint32_t n,
                                            rng::Engine& gen) const {
  core::validate_run_args(m, n);
  ShardOptions opt = opt_;
  opt.m_hint = m;
  ShardedAllocator engine(inner_spec_, n, opt);
  engine.run(m, gen);
  return engine.result();
}

}  // namespace bbb::shard
