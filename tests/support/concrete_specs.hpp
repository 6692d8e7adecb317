#pragma once
/// One small concrete instance of every template core::protocol_specs()
/// lists, for suites that sweep the whole registry. A template missing
/// here is a new family without a row: sweeping callers fail on it.

#include <map>
#include <string>

namespace bbb::test {

inline const std::map<std::string, std::string>& concrete_protocol_specs() {
  static const std::map<std::string, std::string> specs{
      {"one-choice", "one-choice"},
      {"greedy[d]", "greedy[2]"},
      {"left[d]", "left[2]"},
      {"memory[d,k]", "memory[1,1]"},
      {"threshold", "threshold"},
      {"threshold[slack]", "threshold[1]"},
      {"doubling-threshold[guess]", "doubling-threshold[4]"},
      {"adaptive", "adaptive"},
      {"adaptive[slack]", "adaptive[1]"},
      {"adaptive-net", "adaptive-net"},
      {"adaptive-net[slack]", "adaptive-net[1]"},
      {"adaptive-total", "adaptive-total"},
      {"adaptive-total[slack]", "adaptive-total[1]"},
      {"stale-adaptive[delta]", "stale-adaptive[8]"},
      {"skewed-adaptive[s*100]", "skewed-adaptive[50]"},
      {"batched[capacity]", "batched[64]"},
      {"self-balancing", "self-balancing"},
      // Half-load cuckoo (capacity 2 * m at m = 8n): at load factor 1.0
      // the kick budget can run out and park arrivals in the stash, which
      // is accounted as placed < m.
      {"cuckoo[d,k]", "cuckoo[2,16]"},
      {"capacities=c0,c1,...:spec", "capacities=1,2:greedy[2]"},
      {"shards[t]:spec", "shards[2]:greedy[2]"},
  };
  return specs;
}

}  // namespace bbb::test
