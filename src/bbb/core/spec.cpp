#include "bbb/core/spec.hpp"

#include <limits>
#include <stdexcept>

namespace bbb::core {

namespace {

/// Comma-separated unsigned integer list, shared by the bracket-args and
/// `capacities=` grammars: digits-only tokens (stoull would happily wrap
/// "-1" to 2^64 - 1 and accept leading whitespace or '+', all of which
/// should read as malformed), trailing commas rejected, empty list ok
/// (callers that need at least one element say so themselves). `what`
/// names the element in errors ("integer", "capacity").
std::vector<std::uint64_t> parse_uint_list(const std::string& list,
                                           const std::string& spec,
                                           const std::string& kind,
                                           const char* what) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < list.size()) {
    const auto comma = list.find(',', pos);
    const std::string tok =
        list.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument(kind + " spec '" + spec + "': bad " + what + " '" +
                                  tok + "'");
    }
    try {
      out.push_back(std::stoull(tok));
    } catch (const std::exception&) {  // out_of_range for values >= 2^64
      throw std::invalid_argument(kind + " spec '" + spec + "': bad " + what + " '" +
                                  tok + "'");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
    // A trailing comma ("greedy[2,]") promises another element that never
    // comes; interior empty tokens are caught by the digits check above.
    if (pos == list.size()) {
      throw std::invalid_argument(kind + " spec '" + spec + "': bad " + what + " ''");
    }
  }
  return out;
}

}  // namespace

ParsedSpec parse_spec(const std::string& spec, const std::string& kind) {
  ParsedSpec out;
  const auto bracket = spec.find('[');
  if (bracket == std::string::npos) {
    out.name = spec;
    return out;
  }
  if (spec.back() != ']') {
    throw std::invalid_argument(kind + " spec '" + spec + "': missing ']'");
  }
  out.name = spec.substr(0, bracket);
  out.args = parse_uint_list(spec.substr(bracket + 1, spec.size() - bracket - 2),
                             spec, kind, "integer");
  return out;
}

std::uint64_t spec_arg(const ParsedSpec& parsed, std::size_t i, const std::string& spec,
                       const std::string& kind) {
  if (i >= parsed.args.size()) {
    throw std::invalid_argument(kind + " spec '" + spec + "': missing argument " +
                                std::to_string(i + 1));
  }
  return parsed.args[i];
}

std::uint64_t spec_optional_arg(const ParsedSpec& parsed, std::uint64_t fallback,
                                const std::string& spec, const std::string& kind) {
  if (parsed.args.empty()) return fallback;
  if (parsed.args.size() > 1) {
    throw std::invalid_argument(kind + " spec '" + spec + "': too many arguments");
  }
  return parsed.args[0];
}

std::uint32_t spec_arg_u32(const ParsedSpec& parsed, std::size_t i,
                           const std::string& spec, const std::string& kind) {
  const std::uint64_t v = spec_arg(parsed, i, spec, kind);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(kind + " spec '" + spec + "': argument " +
                                std::to_string(i + 1) + " out of range");
  }
  return static_cast<std::uint32_t>(v);
}

std::uint32_t spec_optional_arg_u32(const ParsedSpec& parsed, std::uint32_t fallback,
                                    const std::string& spec, const std::string& kind) {
  const std::uint64_t v = spec_optional_arg(parsed, fallback, spec, kind);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(kind + " spec '" + spec + "': argument out of range");
  }
  return static_cast<std::uint32_t>(v);
}

SpecPrefix split_spec_prefix(const std::string& spec, const std::string& kind) {
  SpecPrefix out;
  out.rest = spec;
  constexpr const char* kWeighted = "weighted:";
  constexpr const char* kCapacities = "capacities=";
  constexpr const char* kShards = "shards[";
  for (;;) {
    if (out.rest.rfind(kShards, 0) == 0) {
      // Only a full "shards[t]:" head is a modifier; a bare "shards[8]"
      // (no terminating "]:") falls through to the name[args] parser and
      // its unknown-protocol error.
      const auto close = out.rest.find("]:");
      if (close == std::string::npos) break;
      if (out.shards != 0) {
        throw std::invalid_argument(kind + " spec '" + spec +
                                    "': duplicate 'shards[t]:' prefix");
      }
      const std::string tok =
          out.rest.substr(std::string(kShards).size(),
                          close - std::string(kShards).size());
      if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument(kind + " spec '" + spec +
                                    "': bad shard count '" + tok + "'");
      }
      std::uint64_t value = 0;
      try {
        value = std::stoull(tok);
      } catch (const std::exception&) {
        throw std::invalid_argument(kind + " spec '" + spec +
                                    "': bad shard count '" + tok + "'");
      }
      if (value == 0 || value > kMaxShards) {
        throw std::invalid_argument(kind + " spec '" + spec + "': shard count '" +
                                    tok + "' out of range [1, " +
                                    std::to_string(kMaxShards) + "]");
      }
      out.shards = static_cast<std::uint32_t>(value);
      out.rest.erase(0, close + 2);
      continue;
    }
    if (out.rest.rfind(kWeighted, 0) == 0) {
      if (out.weighted) {
        throw std::invalid_argument(kind + " spec '" + spec +
                                    "': duplicate 'weighted:' prefix");
      }
      out.weighted = true;
      out.rest.erase(0, std::string(kWeighted).size());
      continue;
    }
    if (out.rest.rfind(kCapacities, 0) == 0) {
      if (!out.capacities.empty()) {
        throw std::invalid_argument(kind + " spec '" + spec +
                                    "': duplicate 'capacities=' prefix");
      }
      const auto colon = out.rest.find(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument(kind + " spec '" + spec +
                                    "': 'capacities=' prefix missing ':'");
      }
      const std::string list =
          out.rest.substr(std::string(kCapacities).size(),
                          colon - std::string(kCapacities).size());
      const std::vector<std::uint64_t> values =
          parse_uint_list(list, spec, kind, "capacity");
      if (values.empty()) {
        throw std::invalid_argument(kind + " spec '" + spec +
                                    "': empty capacity list");
      }
      for (const std::uint64_t v : values) {
        if (v == 0 || v > std::numeric_limits<std::uint32_t>::max()) {
          throw std::invalid_argument(kind + " spec '" + spec + "': capacity '" +
                                      std::to_string(v) + "' out of range");
        }
        out.capacities.push_back(static_cast<std::uint32_t>(v));
      }
      out.rest.erase(0, colon + 1);
      continue;
    }
    break;
  }
  if (out.rest.empty()) {
    throw std::invalid_argument(kind + " spec '" + spec +
                                "': nothing after the modifier prefixes");
  }
  return out;
}

std::vector<std::uint32_t> expand_capacities(const std::vector<std::uint32_t>& profile,
                                             std::uint32_t n) {
  if (profile.empty()) {
    throw std::invalid_argument("expand_capacities: empty capacity profile");
  }
  if (n == 0) throw std::invalid_argument("expand_capacities: n must be positive");
  std::vector<std::uint32_t> out(n);
  for (std::uint32_t i = 0; i < n; ++i) out[i] = profile[i % profile.size()];
  return out;
}

std::string capacities_prefix(const std::vector<std::uint32_t>& profile) {
  std::string out = "capacities=";
  for (std::size_t i = 0; i < profile.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(profile[i]);
  }
  out += ':';
  return out;
}

}  // namespace bbb::core
