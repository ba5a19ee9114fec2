// Bit-determinism of the parallel tick engine: a SimResult must be identical
// — every recorded double, bit for bit — whether the per-server phases run
// serially (threads = 1) or sharded across a pool (threads = 4).  This is the
// contract SimConfig::threads documents: randomness comes from counter-based
// per-server streams and shared accumulators are reduced in fixed server
// order, so the thread count is purely a scheduling choice.
#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace willow::sim {
namespace {

using namespace willow::util::literals;

SimConfig base_config(double utilization, unsigned long long seed) {
  SimConfig cfg;
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.thermal.ambient = 25_degC;
  cfg.datacenter.server.thermal.limit = 70_degC;
  cfg.datacenter.server.thermal.nameplate = 450_W;
  cfg.datacenter.server.power_model =
      power::ServerPowerModel::paper_simulation();
  cfg.target_utilization = utilization;
  cfg.warmup_ticks = 10;
  cfg.measure_ticks = 40;
  cfg.seed = seed;
  return cfg;
}

void expect_series_identical(const util::TimeSeries& a,
                             const util::TimeSeries& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.times()[i], b.times()[i]) << what << " time @" << i;
    EXPECT_EQ(a.values()[i], b.values()[i]) << what << " value @" << i;
  }
}

void expect_stats_identical(const util::RunningStats& a,
                            const util::RunningStats& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  if (a.count() > 0 && b.count() > 0) {
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
  }
}

void expect_results_identical(const SimResult& a, const SimResult& b) {
  // Every time series the simulator records, exact.
  expect_series_identical(a.migrations_per_tick, b.migrations_per_tick,
                          "migrations_per_tick");
  expect_series_identical(a.demand_migrations_per_tick,
                          b.demand_migrations_per_tick, "demand_migrations");
  expect_series_identical(a.consolidation_migrations_per_tick,
                          b.consolidation_migrations_per_tick,
                          "consolidation_migrations");
  expect_series_identical(a.normalized_migration_traffic,
                          b.normalized_migration_traffic,
                          "normalized_migration_traffic");
  expect_series_identical(a.imbalance, b.imbalance, "imbalance");
  expect_series_identical(a.total_power, b.total_power, "total_power");
  expect_series_identical(a.supply_series, b.supply_series, "supply_series");
  expect_series_identical(a.intensity_series, b.intensity_series,
                          "intensity_series");
  expect_series_identical(a.facility_power, b.facility_power,
                          "facility_power");
  expect_series_identical(a.pue, b.pue, "pue");
  expect_series_identical(a.qos_satisfaction, b.qos_satisfaction,
                          "qos_satisfaction");
  expect_series_identical(a.qos_mean_inflation, b.qos_mean_inflation,
                          "qos_mean_inflation");

  // Per-server metrics (recorded inside the sharded phase).
  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t i = 0; i < a.servers.size(); ++i) {
    expect_stats_identical(a.servers[i].consumed_power,
                           b.servers[i].consumed_power, "consumed_power");
    expect_stats_identical(a.servers[i].temperature, b.servers[i].temperature,
                           "temperature");
    expect_stats_identical(a.servers[i].utilization, b.servers[i].utilization,
                           "utilization");
    EXPECT_EQ(a.servers[i].asleep_fraction, b.servers[i].asleep_fraction);
    EXPECT_EQ(a.servers[i].saved_power_w, b.servers[i].saved_power_w);
  }

  // Switch metrics (fed by the serially-deposited traffic accumulators).
  ASSERT_EQ(a.level1_switches.size(), b.level1_switches.size());
  for (std::size_t i = 0; i < a.level1_switches.size(); ++i) {
    EXPECT_EQ(a.level1_switches[i].group, b.level1_switches[i].group);
    expect_stats_identical(a.level1_switches[i].power,
                           b.level1_switches[i].power, "switch power");
    expect_stats_identical(a.level1_switches[i].traffic,
                           b.level1_switches[i].traffic, "switch traffic");
    expect_stats_identical(a.level1_switches[i].migration_cost,
                           b.level1_switches[i].migration_cost,
                           "switch migration_cost");
  }

  // Controller decisions (all serial, but driven by the sharded state).
  EXPECT_EQ(a.controller_stats.demand_migrations,
            b.controller_stats.demand_migrations);
  EXPECT_EQ(a.controller_stats.consolidation_migrations,
            b.controller_stats.consolidation_migrations);
  EXPECT_EQ(a.controller_stats.local_migrations,
            b.controller_stats.local_migrations);
  EXPECT_EQ(a.controller_stats.nonlocal_migrations,
            b.controller_stats.nonlocal_migrations);
  EXPECT_EQ(a.controller_stats.drops, b.controller_stats.drops);
  EXPECT_EQ(a.controller_stats.degrades, b.controller_stats.degrades);
  EXPECT_EQ(a.controller_stats.sleeps, b.controller_stats.sleeps);
  EXPECT_EQ(a.controller_stats.wakes, b.controller_stats.wakes);
  EXPECT_EQ(a.controller_stats.dropped_demand.value(),
            b.controller_stats.dropped_demand.value());
  EXPECT_EQ(a.controller_stats.degraded_demand.value(),
            b.controller_stats.degraded_demand.value());

  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.max_temperature_c, b.max_temperature_c);
  EXPECT_EQ(a.thermal_violation, b.thermal_violation);
  EXPECT_EQ(a.quick_remigrations, b.quick_remigrations);
  EXPECT_EQ(a.churn_departures, b.churn_departures);
  EXPECT_EQ(a.churn_arrivals, b.churn_arrivals);
}

void expect_threads_equivalent(SimConfig cfg) {
  auto serial = cfg;
  serial.threads = 1;
  auto sharded = cfg;
  sharded.threads = 4;
  const auto a = run_simulation(std::move(serial));
  const auto b = run_simulation(std::move(sharded));
  expect_results_identical(a, b);
}

TEST(Determinism, SlaRecordingScenario) {
  // The SLA terms (offered, denied, utilization) are computed per server in
  // the sharded thermal batch and reduced serially: a supply deficit with
  // degrade-then-drop shedding makes the denied branch run, under Poisson
  // demand, churn and a varying intensity.
  auto cfg = base_config(0.7, 31);
  cfg.sla_inflation = 5.0;
  cfg.demand_quantum = 1_W;
  cfg.churn_probability = 0.05;
  cfg.intensity = std::make_shared<workload::DiurnalIntensity>(
      1.0, 0.3, util::Seconds{20.0});
  cfg.mix.priority_levels = 3;
  cfg.controller.shedding = core::SheddingPolicy::kDegradeThenDrop;
  const double servers =
      static_cast<double>(cfg.datacenter.layout.total_servers());
  // Thermally sustainable draw per server at these constants: 28.125 W.
  cfg.supply = std::make_shared<power::SinusoidSupply>(
      util::Watts{28.125 * servers * 0.7},
      util::Watts{28.125 * servers * 0.25}, util::Seconds{16.0});
  auto serial = cfg;
  serial.threads = 1;
  auto sharded = cfg;
  sharded.threads = 4;
  const auto a = run_simulation(std::move(serial));
  const auto b = run_simulation(std::move(sharded));
  ASSERT_EQ(a.qos_satisfaction.size(), 40u);
  EXPECT_GT(a.controller_stats.drops, 0u);
  EXPECT_LT(a.qos_satisfaction.stats().min(), 1.0);
  expect_series_identical(a.qos_satisfaction, b.qos_satisfaction,
                          "qos_satisfaction");
  expect_series_identical(a.qos_mean_inflation, b.qos_mean_inflation,
                          "qos_mean_inflation");
  expect_series_identical(a.total_power, b.total_power, "total_power");
  expect_results_identical(a, b);
}

TEST(Determinism, ChurnScenario) {
  for (unsigned long long seed : {7ULL, 1234ULL}) {
    auto cfg = base_config(0.6, seed);
    cfg.churn_probability = 0.1;
    cfg.report_loss_probability = 0.05;
    expect_threads_equivalent(std::move(cfg));
  }
}

TEST(Determinism, AmbientEventScenario) {
  auto cfg = base_config(0.5, 99);
  // A mid-run heat wave over one zone, later repaired: thermal stepping and
  // the controller's response must not depend on sharding.
  cfg.ambient_events.push_back({12, 0, 8, 45_degC});
  cfg.ambient_events.push_back({30, 0, 8, 25_degC});
  expect_threads_equivalent(std::move(cfg));
}

TEST(Determinism, UpsSupplyScenario) {
  auto cfg = base_config(0.5, 5);
  std::vector<util::Watts> levels(50, 480_W);
  levels[25] = 150_W;
  cfg.supply = std::make_shared<power::SteppedSupply>(levels, 1_s);
  cfg.ups = power::Ups(util::Joules{600.0}, 300_W, 100_W, 1.0);
  expect_threads_equivalent(std::move(cfg));
}

TEST(Determinism, OversubscribedThreadCountsAgree) {
  // threads = 2 and threads = 16 (more workers than servers per chunk) give
  // the same bits too: the partition is a pure function of (n, pool size).
  auto cfg = base_config(0.7, 21);
  cfg.churn_probability = 0.05;
  auto two = cfg;
  two.threads = 2;
  auto many = cfg;
  many.threads = 16;
  const auto a = run_simulation(std::move(two));
  const auto b = run_simulation(std::move(many));
  expect_results_identical(a, b);
}

}  // namespace
}  // namespace willow::sim
