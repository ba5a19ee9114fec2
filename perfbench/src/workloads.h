// The benchmark's named workloads, each a full sim::SimConfig built from a
// seed.  The program under test receives only the generated configuration.
#pragma once

#include <optional>
#include <string>

#include "sim/simulation.h"

namespace perfbench {

/// kFull is the measured size; kTiny shrinks every fleet and tick count so
/// the self-test can drive each workload in well under a second.
enum class Scale { kFull, kTiny };

/// The configuration of workload `name` at `seed`, or nullopt for an
/// unknown name.
std::optional<willow::sim::SimConfig> workload_config(const std::string& name,
                                                      unsigned long long seed,
                                                      Scale scale);

}  // namespace perfbench
