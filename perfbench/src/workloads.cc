#include "workloads.h"

#include <memory>

#include "common.h"
#include "power/supply.h"

namespace perfbench {

using willow::sim::DatacenterLayout;
using willow::sim::SimConfig;
namespace util = willow::util;

namespace {

/// Thermally sustainable draw of one server at the paper's constants:
/// c2 / c1 * (T_limit - T_ambient) = 0.05 / 0.08 * 45 degC.
constexpr double kSustainableW = 28.125;

SimConfig base(double utilization, unsigned long long seed,
               DatacenterLayout layout, long warmup, long measure,
               std::size_t threads) {
  SimConfig cfg = willow::bench::paper_sim_config(utilization, seed);
  cfg.datacenter.layout = layout;
  cfg.sla_inflation = 5.0;
  cfg.warmup_ticks = warmup;
  cfg.measure_ticks = measure;
  cfg.threads = threads;
  return cfg;
}

// 10k servers, Poisson demand and 2% churn: the serial controller dominates.
SimConfig churn_10k(unsigned long long seed, bool tiny) {
  SimConfig cfg = tiny ? base(0.5, seed, {2, 5, 10}, 5, 30, 1)
                       : base(0.5, seed, {10, 25, 40}, 20, 200, 1);
  cfg.demand_quantum = util::Watts{1.0};
  cfg.churn_probability = 0.02;
  return cfg;
}

// Same fleet, constant demand, no churn, warmed to the thermal fixed point:
// the incremental control plane skips most controller work and the data
// plane carries the tick.  Serial: on a shared 4-vCPU host a two-thread pool
// was no faster and tripled the run-to-run spread.
SimConfig settled_10k(unsigned long long seed, bool tiny) {
  SimConfig cfg = tiny ? base(0.5, seed, {2, 5, 10}, 30, 20, 1)
                       : base(0.5, seed, {10, 25, 40}, 720, 400, 1);
  cfg.demand_quantum = util::Watts{0.0};
  cfg.churn_probability = 0.0;
  return cfg;
}

// 2k servers at 0.6 utilization under a sinusoidal supply whose trough
// (0.70 of the sustainable envelope) falls below demand (~0.74), a 35 degC
// hot zone on the last tenth of the fleet, degrade-then-drop shedding over
// three priorities, 1% churn and 2% up/down link loss.
SimConfig deficit_2k(unsigned long long seed, bool tiny) {
  SimConfig cfg = tiny ? base(0.6, seed, {2, 5, 10}, 5, 40, 1)
                       : base(0.6, seed, {4, 10, 50}, 20, 600, 1);
  const auto servers =
      static_cast<double>(cfg.datacenter.layout.total_servers());
  cfg.supply = std::make_shared<willow::power::SinusoidSupply>(
      util::Watts{kSustainableW * servers * 0.85},
      util::Watts{kSustainableW * servers * 0.15}, util::Seconds{20.0});
  const std::size_t n = cfg.datacenter.layout.total_servers();
  cfg.datacenter.ambient_overrides.assign(n, util::Celsius{25.0});
  for (std::size_t i = n - n / 10; i < n; ++i) {
    cfg.datacenter.ambient_overrides[i] = util::Celsius{35.0};
  }
  cfg.mix.priority_levels = 3;
  cfg.controller.shedding = willow::core::SheddingPolicy::kDegradeThenDrop;
  cfg.churn_probability = 0.01;
  cfg.faults.link.up_loss = 0.02;
  cfg.faults.link.down_loss = 0.02;
  cfg.controller.stale_timeout_ticks = 3;
  return cfg;
}

}  // namespace

std::optional<SimConfig> workload_config(const std::string& name,
                                         unsigned long long seed,
                                         Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  if (name == "churn_10k") return churn_10k(seed, tiny);
  if (name == "settled_10k") return settled_10k(seed, tiny);
  if (name == "deficit_2k") return deficit_2k(seed, tiny);
  return std::nullopt;
}

}  // namespace perfbench
