#include "bbb/sim/experiment.hpp"

#include <sstream>

#include "bbb/core/protocols/registry.hpp"

namespace bbb::sim {

core::StateLayout ExperimentConfig::resolved_layout() const {
  return layout ? *layout : core::make_protocol(protocol_spec)->preferred_layout(n, m);
}

std::string ExperimentConfig::describe() const {
  std::ostringstream os;
  os << protocol_spec << " m=" << m << " n=" << n << " reps=" << replicates
     << " seed=" << seed;
  if (layout) os << " layout=" << to_string(*layout);
  os << obs.describe();
  return os.str();
}

}  // namespace bbb::sim
