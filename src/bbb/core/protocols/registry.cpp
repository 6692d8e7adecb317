#include "bbb/core/protocols/registry.hpp"

#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "bbb/core/spec.hpp"

#include "bbb/core/protocols/adaptive.hpp"
#include "bbb/core/protocols/batched.hpp"
#include "bbb/core/protocols/cuckoo.hpp"
#include "bbb/core/protocols/d_choice.hpp"
#include "bbb/core/protocols/doubling_threshold.hpp"
#include "bbb/core/protocols/left_d.hpp"
#include "bbb/core/protocols/memory_dk.hpp"
#include "bbb/core/protocols/one_choice.hpp"
#include "bbb/core/protocols/self_balancing.hpp"
#include "bbb/core/protocols/skewed_adaptive.hpp"
#include "bbb/core/protocols/stale_adaptive.hpp"
#include "bbb/core/protocols/threshold.hpp"
#include "bbb/shard/engine.hpp"

namespace bbb::core {

namespace {

constexpr const char* kKind = "protocol";

/// Builds the rule once the run's n and m hint are known.
using RuleBinder =
    std::function<std::unique_ptr<PlacementRule>(std::uint32_t n, std::uint64_t m_hint)>;

/// A spec parsed without n: its modifier prefixes, its canonical name, and
/// a binder holding the validated arguments. Everything that can be
/// rejected without n has been by the time this exists; the binder's rule
/// constructors check the n-dependent limits (left[d] with d > n, ...).
struct ParsedProtocol {
  SpecPrefix prefix;
  std::string name;  ///< e.g. "greedy[2]", "capacities=1,2:greedy[2]"
  RuleBinder bind;
};

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

ParsedProtocol parse_protocol(const std::string& spec) {
  ParsedProtocol p;
  p.prefix = split_spec_prefix(spec, kKind);
  if (p.prefix.weighted) {
    throw std::invalid_argument("protocol spec '" + spec +
                                "': 'weighted:' is a workload modifier, not a "
                                "protocol one");
  }
  if (p.prefix.shards != 0 && !p.prefix.capacities.empty()) {
    // The shard engine partitions a *uniform* state; a capacitated
    // sharded run would need per-shard capacity profiles it cannot cut.
    throw std::invalid_argument("protocol spec '" + spec +
                                "': 'shards[t]:' cannot combine with "
                                "'capacities='");
  }
  const std::string& rest = p.prefix.rest;
  const ParsedSpec s = parse_spec(rest, kKind);
  if (s.name == "one-choice") {
    reject_args(s, rest);
    p.name = s.name;
    p.bind = [](std::uint32_t, std::uint64_t) {
      return std::make_unique<OneChoiceRule>();
    };
  } else if (s.name == "greedy") {
    const std::uint32_t d = positive(arg_at(s, 0, rest), rest);
    p.name = bracketed(s.name, {d});
    p.bind = [d](std::uint32_t, std::uint64_t) {
      return std::make_unique<DChoiceRule>(d);
    };
  } else if (s.name == "left") {
    const std::uint32_t d = positive(arg_at(s, 0, rest), rest);
    p.name = bracketed(s.name, {d});
    p.bind = [d](std::uint32_t n, std::uint64_t) {
      return std::make_unique<LeftDRule>(n, d);
    };
  } else if (s.name == "memory") {
    const std::uint32_t d = positive(arg_at(s, 0, rest), rest);
    const std::uint32_t k = positive(arg_at(s, 1, rest), rest);
    p.name = bracketed(s.name, {d, k});
    p.bind = [d, k](std::uint32_t, std::uint64_t) {
      return std::make_unique<MemoryDKRule>(d, k);
    };
  } else if (s.name == "threshold") {
    const std::uint32_t slack = spec_optional_arg_u32(s, 1, rest, kKind);
    p.name = slack_name(s.name, slack);
    // No hint: provision for a net population of n balls, so threshold[c]
    // accepts load <= ceil(n/n) + c - 1 = c.
    p.bind = [slack](std::uint32_t n, std::uint64_t m_hint) {
      return std::make_unique<ThresholdRule>(n, m_hint == 0 ? n : m_hint, slack);
    };
  } else if (s.name == "doubling-threshold") {
    const std::uint64_t guess = spec_optional_arg(s, 0, rest, kKind);
    p.name = bracketed(s.name, {guess});
    p.bind = [guess](std::uint32_t n, std::uint64_t) {
      return std::make_unique<DoublingThresholdRule>(n, guess);
    };
  } else if (s.name == "adaptive" || s.name == "adaptive-net" ||
             s.name == "adaptive-total") {
    const std::uint32_t slack = spec_optional_arg_u32(s, 1, rest, kKind);
    const AdaptiveCount count =
        s.name == "adaptive-net" ? AdaptiveCount::kNet : AdaptiveCount::kTotal;
    p.name = slack_name(s.name, slack);
    p.bind = [slack, count, base = s.name](std::uint32_t, std::uint64_t) {
      return std::make_unique<AdaptiveRule>(slack, count, base);
    };
  } else if (s.name == "stale-adaptive") {
    const std::uint32_t delta = positive(arg_at(s, 0, rest), rest);
    p.name = bracketed(s.name, {delta});
    p.bind = [delta](std::uint32_t n, std::uint64_t) {
      return std::make_unique<StaleAdaptiveRule>(n, delta);
    };
  } else if (s.name == "skewed-adaptive") {
    const std::uint32_t s100 = arg_at(s, 0, rest);
    p.name = bracketed(s.name, {s100});
    p.bind = [s100](std::uint32_t n, std::uint64_t) {
      return std::make_unique<SkewedAdaptiveRule>(n, static_cast<double>(s100) / 100.0);
    };
  } else if (s.name == "batched") {
    const std::uint32_t capacity =
        positive(spec_optional_arg_u32(s, 2, rest, kKind), rest);
    p.name = bracketed(s.name, {capacity});
    p.bind = [capacity](std::uint32_t, std::uint64_t) {
      return std::make_unique<BatchedRule>(capacity);
    };
  } else if (s.name == "self-balancing") {
    reject_args(s, rest);
    p.name = s.name;
    p.bind = [](std::uint32_t, std::uint64_t) {
      return std::make_unique<SelfBalancingRule>();
    };
  } else if (s.name == "cuckoo") {
    CuckooRule::Params params;
    params.d = positive(arg_at(s, 0, rest), rest);
    params.bucket_size = positive(arg_at(s, 1, rest), rest);
    p.name = bracketed(s.name, {params.d, params.bucket_size});
    p.bind = [params](std::uint32_t n, std::uint64_t) {
      return std::make_unique<CuckooRule>(n, params);
    };
  } else {
    throw std::invalid_argument("unknown protocol '" + s.name + "'");
  }
  if (!p.prefix.capacities.empty()) {
    p.name = capacities_prefix(p.prefix.capacities) + p.name;
  }
  return p;
}

/// The bind step behind make_streaming_allocator and every Protocol::run:
/// the rule for (n, m_hint) over a fresh state of the given layout.
std::unique_ptr<StreamingAllocator> bind_allocator(const ParsedProtocol& p,
                                                   std::uint32_t n, std::uint64_t m_hint,
                                                   StateLayout layout) {
  auto rule = p.bind(n, m_hint);
  const std::vector<std::uint32_t>& profile = p.prefix.capacities;
  if (profile.empty()) {
    return std::make_unique<StreamingAllocator>(BinState(n, layout), std::move(rule));
  }
  return std::make_unique<StreamingAllocator>(
      BinState(expand_capacities(profile, n), layout), std::move(rule),
      capacities_prefix(profile));
}

/// The batch Protocol of every unsharded spec. Construction is the parse
/// alone; run() binds it to (n, m) over a fresh wide state and drives the
/// rule's batch hook, so the result is the streaming core's by
/// construction.
class SpecProtocol final : public Protocol {
 public:
  explicit SpecProtocol(ParsedProtocol parsed) : parsed_(std::move(parsed)) {}

  [[nodiscard]] std::string name() const override { return parsed_.name; }

  [[nodiscard]] AllocationResult run(std::uint64_t m, std::uint32_t n,
                                     rng::Engine& gen) const override {
    validate_run_args(m, n);
    const auto alloc = bind_allocator(parsed_, n, m, StateLayout::kWide);
    alloc->set_engine_exclusive(true);
    alloc->run_batch(m, gen);
    return alloc->result();
  }

 private:
  ParsedProtocol parsed_;
};

void reject_shards(const ParsedProtocol& p, const std::string& spec, const char* what) {
  if (p.prefix.shards != 0) {
    // A rule is one shard's decision logic; the engine owning the worker
    // threads and the round phases is a different object.
    throw std::invalid_argument(
        "protocol spec '" + spec +
        "': 'shards[t]:' builds a multi-threaded engine, not " + what +
        " — run it via make_protocol (or shard::ShardedAllocator)");
  }
}

}  // namespace

std::unique_ptr<Protocol> make_protocol(const std::string& spec) {
  ParsedProtocol parsed = parse_protocol(spec);
  if (parsed.prefix.shards != 0) {
    shard::ShardOptions opt;
    opt.shards = parsed.prefix.shards;
    return std::make_unique<shard::ShardedProtocol>(parsed.prefix.rest, opt);
  }
  return std::make_unique<SpecProtocol>(std::move(parsed));
}

std::unique_ptr<PlacementRule> make_rule(const std::string& spec, std::uint32_t n,
                                         std::uint64_t m_hint) {
  const ParsedProtocol parsed = parse_protocol(spec);
  reject_shards(parsed, spec, "a streaming rule");
  if (!parsed.prefix.capacities.empty()) {
    // A bare rule has no state to carry the capacities; pairing it with a
    // uniform BinState would silently drop them.
    throw std::invalid_argument(
        "protocol spec '" + spec +
        "': 'capacities=' needs the matching state — build the pair through "
        "make_streaming_allocator (or run via make_protocol)");
  }
  return parsed.bind(n, m_hint);
}

std::unique_ptr<StreamingAllocator> make_streaming_allocator(const std::string& spec,
                                                             std::uint32_t n,
                                                             std::uint64_t m_hint,
                                                             StateLayout layout) {
  const ParsedProtocol parsed = parse_protocol(spec);
  reject_shards(parsed, spec, "a streaming allocator");
  return bind_allocator(parsed, n, m_hint, layout);
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
