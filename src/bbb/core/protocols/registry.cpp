#include "bbb/core/protocols/registry.hpp"

#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "bbb/core/spec.hpp"

#include "bbb/core/protocols/batched.hpp"
#include "bbb/core/protocols/bounded_probe.hpp"
#include "bbb/core/protocols/cuckoo.hpp"
#include "bbb/core/protocols/d_choice.hpp"
#include "bbb/core/protocols/left_d.hpp"
#include "bbb/core/protocols/memory_dk.hpp"
#include "bbb/core/protocols/one_choice.hpp"
#include "bbb/core/protocols/self_balancing.hpp"
#include "bbb/shard/engine.hpp"

namespace bbb::core {

namespace {

constexpr const char* kKind = "protocol";

std::uint32_t arg_at(const ParsedSpec& s, std::size_t i, const std::string& spec) {
  return spec_arg_u32(s, i, spec, kKind);
}

/// A count argument (d, k, delta, capacity) for which 0 means nothing.
std::uint32_t positive(std::uint32_t value, const std::string& spec) {
  if (value == 0) {
    throw std::invalid_argument("protocol spec '" + spec +
                                "': arguments must be positive");
  }
  return value;
}

/// The choice count d of greedy[d] / memory[d,k]: 1 <= d <= kMaxChoices.
std::uint32_t choices(const ParsedSpec& s, const std::string& spec) {
  const std::uint32_t d = positive(arg_at(s, 0, spec), spec);
  if (d <= kMaxChoices) return d;
  throw std::invalid_argument("protocol spec '" + spec + "': choice count d = " +
                              std::to_string(d) + " exceeds the maximum " +
                              std::to_string(kMaxChoices));
}

void reject_args(const ParsedSpec& s, const std::string& spec) {
  if (!s.args.empty()) {
    throw std::invalid_argument("protocol spec '" + spec + "': takes no arguments");
  }
}

std::string bracketed(const std::string& base,
                      std::initializer_list<std::uint64_t> args) {
  std::string out = base + "[";
  for (const std::uint64_t a : args) {
    if (out.back() != '[') out += ',';
    out += std::to_string(a);
  }
  return out + "]";
}

/// Slack-style names elide the default slack 1: "adaptive", "adaptive[2]".
std::string slack_name(const std::string& base, std::uint32_t slack) {
  return slack == 1 ? base : bracketed(base, {slack});
}

/// The binder of a bounded-probe family whose spec does not depend on
/// (n, m_hint).
auto bounded(const BoundSpec& spec, const std::string& name) {
  return [spec, name](std::uint32_t n, std::uint64_t) {
    return std::make_unique<BoundedProbeRule>(n, spec, name);
  };
}

}  // namespace

std::unique_ptr<Protocol> make_protocol(const std::string& spec) {
  std::unique_ptr<Protocol> protocol(new Protocol());
  Protocol& p = *protocol;
  SpecPrefix prefix = split_spec_prefix(spec, kKind);
  if (prefix.weighted) {
    throw std::invalid_argument("protocol spec '" + spec +
                                "': 'weighted:' is a workload modifier, not a "
                                "protocol one");
  }
  if (prefix.shards != 0 && !prefix.capacities.empty()) {
    // The shard engine partitions a *uniform* state; a capacitated
    // sharded run would need per-shard capacity profiles it cannot cut.
    throw std::invalid_argument("protocol spec '" + spec +
                                "': 'shards[t]:' cannot combine with "
                                "'capacities='");
  }
  const std::string& rest = prefix.rest;
  const ParsedSpec s = parse_spec(rest, kKind);
  if (s.name == "one-choice") {
    reject_args(s, rest);
    p.name_ = s.name;
    p.binder_ = [](std::uint32_t, std::uint64_t) {
      return std::make_unique<OneChoiceRule>();
    };
  } else if (s.name == "greedy") {
    const std::uint32_t d = choices(s, rest);
    p.name_ = bracketed(s.name, {d});
    p.binder_ = [d](std::uint32_t, std::uint64_t) {
      return std::make_unique<DChoiceRule>(d);
    };
  } else if (s.name == "left") {
    const std::uint32_t d = positive(arg_at(s, 0, rest), rest);
    p.name_ = bracketed(s.name, {d});
    p.binder_ = [d](std::uint32_t n, std::uint64_t) {
      return std::make_unique<LeftDRule>(n, d);
    };
  } else if (s.name == "memory") {
    const std::uint32_t d = choices(s, rest);
    const std::uint32_t k = positive(arg_at(s, 1, rest), rest);
    p.name_ = bracketed(s.name, {d, k});
    p.binder_ = [d, k](std::uint32_t, std::uint64_t) {
      return std::make_unique<MemoryDKRule>(d, k);
    };
  } else if (s.name == "threshold") {
    const std::uint32_t slack = spec_optional_arg_u32(s, 1, rest, kKind);
    p.name_ = slack_name(s.name, slack);
    // No hint: provision for a net population of n balls, so threshold[c]
    // accepts load <= ceil(n/n) + c - 1 = c.
    p.binder_ = [slack, name = p.name_](std::uint32_t n, std::uint64_t m_hint) {
      const BoundSpec bound{
          .clock = BoundClock::kFixed, .slack = slack, .arg = m_hint == 0 ? n : m_hint};
      return std::make_unique<BoundedProbeRule>(n, bound, name);
    };
  } else if (s.name == "doubling-threshold") {
    const std::uint64_t guess = spec_optional_arg(s, 0, rest, kKind);
    p.name_ = bracketed(s.name, {guess});
    p.binder_ = bounded({.clock = BoundClock::kDoubling, .arg = guess}, p.name_);
  } else if (s.name == "adaptive" || s.name == "adaptive-net" ||
             s.name == "adaptive-total") {
    const std::uint32_t slack = spec_optional_arg_u32(s, 1, rest, kKind);
    const BoundClock clock =
        s.name == "adaptive-net" ? BoundClock::kNet : BoundClock::kPlaced;
    p.name_ = slack_name(s.name, slack);
    p.binder_ = bounded({.clock = clock, .slack = slack}, p.name_);
  } else if (s.name == "stale-adaptive") {
    const std::uint32_t delta = positive(arg_at(s, 0, rest), rest);
    p.name_ = bracketed(s.name, {delta});
    p.binder_ = bounded({.clock = BoundClock::kStale, .arg = delta}, p.name_);
  } else if (s.name == "skewed-adaptive") {
    const std::uint32_t s100 = arg_at(s, 0, rest);
    p.name_ = bracketed(s.name, {s100});
    p.binder_ = bounded({.zipf_s = static_cast<double>(s100) / 100.0}, p.name_);
  } else if (s.name == "batched") {
    const std::uint32_t capacity =
        positive(spec_optional_arg_u32(s, 2, rest, kKind), rest);
    p.name_ = bracketed(s.name, {capacity});
    p.binder_ = [capacity](std::uint32_t, std::uint64_t) {
      return std::make_unique<BatchedRule>(capacity);
    };
  } else if (s.name == "self-balancing") {
    reject_args(s, rest);
    p.name_ = s.name;
    p.binder_ = [](std::uint32_t, std::uint64_t) {
      return std::make_unique<SelfBalancingRule>();
    };
  } else if (s.name == "cuckoo") {
    CuckooRule::Params params;
    params.d = positive(arg_at(s, 0, rest), rest);
    params.bucket_size = positive(arg_at(s, 1, rest), rest);
    p.name_ = bracketed(s.name, {params.d, params.bucket_size});
    p.binder_ = [params](std::uint32_t n, std::uint64_t) {
      return std::make_unique<CuckooRule>(n, params);
    };
    p.stable_ball_identity_ = false;  // evictions move placed balls
  } else {
    throw std::invalid_argument("unknown protocol '" + s.name + "'");
  }
  if (prefix.shards != 0) {
    // Reject what the shard engine cannot run at parse, not first run.
    (void)shard::shard_family(rest, prefix.shards);
    p.name_ = "shards[" + std::to_string(prefix.shards) + "]:" + p.name_;
  }
  if (!prefix.capacities.empty()) {
    p.name_ = capacities_prefix(prefix.capacities) + p.name_;
  }
  p.prefix_ = std::move(prefix);
  return protocol;
}

std::unique_ptr<PlacementRule> Protocol::bind_rule(std::uint32_t n,
                                                   std::uint64_t m_hint) const {
  if (prefix_.shards != 0) {
    // A rule is one shard's decision logic; the engine owning the worker
    // threads and the round phases is a different object.
    throw std::invalid_argument("protocol spec '" + name() +
                                "': 'shards[t]:' builds a multi-threaded engine, not "
                                "a rule — run it through Protocol::run or bind_sharded");
  }
  return binder_(n, m_hint);
}

AllocationResult Protocol::run(std::uint64_t m, std::uint32_t n, rng::Engine& gen) const {
  if (n == 0) throw std::invalid_argument("Protocol::run: n must be positive");
  if (prefix_.shards != 0) {
    // The batch path materializes loads, so the engine runs wide.
    const auto engine = bind_sharded(n, m, StateLayout::kWide);
    engine->run(m, gen);
    return engine->result();
  }
  const auto alloc = bind(n, m, StateLayout::kWide);
  alloc->set_engine_exclusive(true);
  alloc->run_batch(m, gen);
  return alloc->result();
}

std::unique_ptr<StreamingAllocator> Protocol::bind(std::uint32_t n, std::uint64_t m_hint,
                                                   StateLayout layout) const {
  auto rule = bind_rule(n, m_hint);
  const std::vector<std::uint32_t>& profile = prefix_.capacities;
  if (profile.empty()) {
    return std::make_unique<StreamingAllocator>(BinState(n, layout), std::move(rule));
  }
  return std::make_unique<StreamingAllocator>(
      BinState(expand_capacities(profile, n), layout), std::move(rule),
      capacities_prefix(profile));
}

std::unique_ptr<shard::ShardedAllocator> Protocol::bind_sharded(
    std::uint32_t n, std::uint64_t m_hint, StateLayout layout) const {
  if (prefix_.shards == 0) {
    throw std::invalid_argument("protocol spec '" + name() +
                                "': bind_sharded needs a 'shards[t]:' spec");
  }
  shard::ShardOptions opt;
  opt.shards = prefix_.shards;
  opt.layout = layout;
  opt.m_hint = m_hint;
  return std::make_unique<shard::ShardedAllocator>(prefix_.rest, n, opt);
}

StateLayout Protocol::preferred_layout(std::uint32_t n,
                                       std::uint64_t expected_balls) const {
  // n == 0 is rejected when the run binds its state.
  const bool wide = n == 0 || ceil_div(expected_balls, n) >= kCompactLoadCliff;
  return wide ? StateLayout::kWide : StateLayout::kCompact;
}

std::unique_ptr<PlacementRule> make_rule(const std::string& spec, std::uint32_t n,
                                         std::uint64_t m_hint) {
  const auto protocol = make_protocol(spec);
  if (!protocol->prefix_.capacities.empty()) {
    // A bare rule has no state to carry the capacities; pairing it with a
    // uniform BinState would silently drop them.
    throw std::invalid_argument(
        "protocol spec '" + spec +
        "': 'capacities=' needs the matching state — build the pair through "
        "Protocol::bind (or make_streaming_allocator)");
  }
  return protocol->bind_rule(n, m_hint);
}

std::unique_ptr<StreamingAllocator> make_streaming_allocator(const std::string& spec,
                                                             std::uint32_t n,
                                                             std::uint64_t m_hint,
                                                             StateLayout layout) {
  return make_protocol(spec)->bind(n, m_hint, layout);
}

std::vector<std::string> protocol_specs() {
  return {"one-choice",
          "greedy[d]",
          "left[d]",
          "memory[d,k]",
          "threshold",
          "threshold[slack]",
          "doubling-threshold[guess]",
          "adaptive",
          "adaptive[slack]",
          "adaptive-net",
          "adaptive-net[slack]",
          "adaptive-total",
          "adaptive-total[slack]",
          "stale-adaptive[delta]",
          "skewed-adaptive[s*100]",
          "batched[capacity]",
          "self-balancing",
          "cuckoo[d,k]",
          "capacities=c0,c1,...:spec",
          "shards[t]:spec"};
}

}  // namespace bbb::core
