#include "bbb/law/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bbb/core/spec.hpp"
#include "bbb/law/one_choice.hpp"
#include "bbb/law/profile.hpp"
#include "bbb/obs/run.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/theory/tails.hpp"

namespace bbb::law {

std::string LawConfig::describe() const {
  std::ostringstream os;
  os << protocol_spec << " m=" << m << " n=" << n << " reps=" << replicates
     << " seed=" << seed << " tier=law" << obs.describe();
  return os.str();
}

namespace {

/// Parsed law-tier spec: which process, and its fluid parameters.
struct LawSpec {
  bool sampled = false;  ///< one-choice Monte-Carlo vs deterministic fluid
  std::uint32_t d = 1;
  double beta = 0.0;
  std::string canonical;
};

/// Parse "one-choice", "greedy[d]" or "mixed[d,b]" on the shared spec
/// grammar (core/spec.hpp), so d is range-checked before it narrows.
/// greedy[d] is mixed[d,100].
LawSpec law_spec_of(const std::string& spec) {
  const core::ParsedSpec s = core::parse_spec(spec, "law");
  const std::size_t arity = s.name == "greedy" ? 1 : s.name == "mixed" ? 2 : 0;
  if (arity == 0 && s.name != "one-choice") {
    throw std::invalid_argument("law spec: unknown protocol '" + spec +
                                "' (law tier knows one-choice, greedy[d], mixed[d,b])");
  }
  if (s.args.size() != arity) {
    throw std::invalid_argument("law spec '" + spec + "': expected " +
                                std::to_string(arity) + " argument(s)");
  }
  LawSpec out;
  if (arity == 0) {
    out.sampled = true;
    out.canonical = "one-choice";
    return out;
  }
  out.d = core::spec_arg_u32(s, 0, spec, "law");
  const std::uint64_t b = arity == 2 ? s.args[1] : 100;
  if (out.d == 0 || b > 100) {
    throw std::invalid_argument("law spec '" + spec + "': needs d >= 1, 0 <= b <= 100");
  }
  out.beta = static_cast<double>(b) / 100.0;
  // A mixture that never takes the d-choice branch (b == 0) or cannot
  // tell the branches apart (d == 1) is one-choice: sample it exactly.
  out.sampled = out.d == 1 || b == 0;
  const std::string d = std::to_string(out.d);
  if (out.sampled) {
    out.canonical = "one-choice";
  } else if (arity == 1) {
    out.canonical = "greedy[" + d + "]";
  } else {
    out.canonical = "mixed[" + d + "," + std::to_string(b) + "]";
  }
  return out;
}

/// Levels worth integrating: average load plus a generous fluctuation
/// band. The fluid curves decay at least geometrically past t, so the
/// cap never truncates a level whose expected count could reach 1/2.
std::uint32_t fluid_k_max(double t, std::uint64_t n) {
  const double spread =
      8.0 * std::sqrt((t + 1.0) * std::log(static_cast<double>(n) + 2.0)) + 64.0;
  const double k = std::ceil(t + spread);
  return static_cast<std::uint32_t>(std::min(k, 4096.0));
}

/// Largest k with expected #bins below level k under 1/2 — i.e. the fluid
/// prediction of the minimum load. tails[k-1] = s_k; bins with load < k
/// number n (1 - s_k).
std::uint32_t fluid_min_load_estimate(const std::vector<double>& tails,
                                      std::uint64_t n) {
  std::uint32_t min_load = 0;
  for (std::size_t k = 0; k < tails.size(); ++k) {
    if (static_cast<double>(n) * (1.0 - tails[k]) < 0.5) {
      min_load = static_cast<std::uint32_t>(k) + 1;  // all n bins reach level k+1
    } else {
      break;
    }
  }
  return min_load;
}

void fold_profile(const OccupancyProfile& profile, LawSummary& summary) {
  LawReplicate rec;
  rec.max_load = profile.max_load();
  rec.min_load = profile.min_load();
  rec.gap = profile.gap();
  rec.psi = profile.psi();
  rec.log_phi = profile.log_phi();

  summary.max_load.add(rec.max_load);
  summary.min_load.add(rec.min_load);
  summary.gap.add(rec.gap);
  summary.psi.add(rec.psi);
  summary.log_phi.add(rec.log_phi);

  const std::size_t top = profile.base() + profile.counts().size();
  if (summary.level_counts.size() < top) summary.level_counts.resize(top, 0);
  for (std::size_t i = 0; i < profile.counts().size(); ++i) {
    summary.level_counts[profile.base() + i] += profile.counts()[i];
  }
  if (summary.config.keep_records) summary.records.push_back(rec);
}

}  // namespace

LawSummary run_law_experiment(const LawConfig& config, par::ThreadPool& pool) {
  if (config.n == 0) throw std::invalid_argument("run_law_experiment: n must be > 0");
  const LawSpec spec = law_spec_of(config.protocol_spec);

  LawSummary summary;
  summary.config = config;
  summary.protocol_name = spec.canonical;
  summary.sampled = spec.sampled;

  const double t = static_cast<double>(config.m) / static_cast<double>(config.n);
  summary.fluid_tails =
      theory::fluid_tail_curve(t, spec.d, spec.beta, fluid_k_max(t, config.n));
  summary.fluid_max_load =
      theory::fluid_max_load_estimate(summary.fluid_tails, config.n);
  summary.fluid_min_load = fluid_min_load_estimate(summary.fluid_tails, config.n);

  if (!spec.sampled) {
    // Deterministic fluid spec: the "replicate" is the single ODE estimate.
    summary.max_load.add(summary.fluid_max_load);
    summary.min_load.add(summary.fluid_min_load);
    summary.gap.add(static_cast<double>(summary.fluid_max_load) -
                    static_cast<double>(summary.fluid_min_load));
    return summary;
  }

  if (config.replicates == 0) {
    throw std::invalid_argument("run_law_experiment: replicates must be positive");
  }
  const obs::RunTrace trace(config.obs, "law", [&](obs::JsonLine& line) {
    line.field("describe", config.describe())
        .field("protocol", summary.protocol_name)
        .field("m", config.m)
        .field("n", config.n)
        .field("replicates", static_cast<std::uint64_t>(config.replicates))
        .field("seed", config.seed);
  });
  // One sampled profile per replicate: the wall time of the
  // Poissonize-and-correct sampler is the law tier's whole cost.
  struct Draw {
    std::optional<OccupancyProfile> profile;
    std::uint64_t wall_ns = 0;
  };
  const std::vector<Draw> draws =
      obs::run_replicates(pool, config.replicates, config.obs, [&config](std::uint32_t r) {
        rng::Engine gen = rng::SeedSequence(config.seed).engine(r);
        return Draw{sample_one_choice_profile(config.m, config.n, gen)};
      });
  for (const Draw& draw : draws) fold_profile(*draw.profile, summary);
  if (config.obs.counters_on()) {
    summary.obs = obs::fold_replicates("law", draws);
    trace.finish(
        draws,
        [](obs::JsonLine& line, const Draw& draw) {
          line.field("max_load", static_cast<std::uint64_t>(draw.profile->max_load()))
              .field("gap", static_cast<std::uint64_t>(draw.profile->gap()))
              .field("wall_ns", draw.wall_ns);
        },
        summary.obs);
  }
  return summary;
}

LawSummary run_law_experiment(const LawConfig& config) {
  par::ThreadPool pool;
  return run_law_experiment(config, pool);
}

}  // namespace bbb::law
