// One repetition of a workload, untraced or traced, plus the output checks
// both run through the program's public accessors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulation.h"
#include "tracer.h"

namespace perfbench {

/// Output checks: each expect() is one attempted check.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// The first few failure descriptions (later ones are only counted).
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Simulated outcome shared by both kinds of run.
struct Outcome {
  /// Decision fingerprint: ControllerStats, every control.* / controller.*
  /// instrument and the measured IT energy, rendered exactly.
  std::string fingerprint;
  double it_energy_kwh = 0.0;    ///< sum of total_power * dD, measured window
  double sla_satisfaction = 0.0; ///< mean qos_satisfaction, measured window
  double measured_migrations = 0.0;
  long measured_ticks = 0;
  std::uint64_t quick_remigrations = 0;  ///< whole run
  willow::obs::MetricsSnapshot metrics;
};

struct UntracedRep {
  Outcome out;
  double setup_s = 0.0;  ///< Simulation constructor, wall
  double run_s = 0.0;    ///< Simulation::run(), wall
  double run_cpu_s = 0.0;  ///< process CPU time during run()
  double tick_measured_s = 0.0;  ///< sim.phase.tick.measured total
  std::uint64_t tick_measured_count = 0;
};

struct TracedRep {
  Outcome out;
  Tracer tracer;
  long warmup_ticks = 0;
};

/// Wall time of constructing (and discarding) the workload's Simulation.
double time_setup(const willow::sim::SimConfig& cfg);

/// Construct and run the workload through Simulation::run(), then check its
/// outputs.
UntracedRep run_untraced(const willow::sim::SimConfig& cfg, Checks& checks);

/// Construct the same plant with the Simulation constructor and step it from
/// outside through the layers' public calls, recording a span around each
/// call; checks budget conservation on every tick.  Throws
/// std::invalid_argument for a configuration the stepper does not mirror.
TracedRep run_traced(const willow::sim::SimConfig& cfg, Checks& checks);

/// Monotonic wall clock and process CPU time, in seconds.
double wall_seconds();
double process_cpu_seconds();

/// 64-bit FNV-1a of a fingerprint, for display.
std::string fingerprint_hash(const std::string& fingerprint);

}  // namespace perfbench
