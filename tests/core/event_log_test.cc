// The controller's decision log is the event bus: every action appears, in
// order, stamped with the tick the driver set, with a readable rendering.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "obs/sink.h"

namespace willow::core {
namespace {

using namespace willow::util::literals;
using workload::Application;

ServerConfig lax_server() {
  ServerConfig cfg;
  cfg.thermal.c1 = 1e-4;
  cfg.thermal.c2 = 1.0;
  cfg.thermal.ambient = 25_degC;
  cfg.thermal.limit = 70_degC;
  cfg.thermal.nameplate = 450_W;
  cfg.power_model = power::ServerPowerModel(10_W, 450_W);
  return cfg;
}

/// The eight decision types the controller emits (the rest of its events are
/// budget directives, clamps and fault bookkeeping).
bool is_decision(obs::EventType type) {
  switch (type) {
    case obs::EventType::kMigration:
    case obs::EventType::kMigrationLanded:
    case obs::EventType::kDrop:
    case obs::EventType::kDegrade:
    case obs::EventType::kRevive:
    case obs::EventType::kRestore:
    case obs::EventType::kSleep:
    case obs::EventType::kWake:
      return true;
    default:
      return false;
  }
}

struct Fixture {
  Cluster cluster{1.0};
  NodeId root, rack, s00, s01;
  workload::AppIdAllocator ids;
  obs::EventBus bus;
  std::shared_ptr<obs::RingBufferSink> ring =
      std::make_shared<obs::RingBufferSink>(4096);
  long next_tick = 0;

  Fixture() {
    root = cluster.add_root("dc");
    rack = cluster.add_group(root, "rack");
    s00 = cluster.add_server(rack, "s00", lax_server());
    s01 = cluster.add_server(rack, "s01", lax_server());
    bus.add_sink(ring);
  }

  workload::AppId host(NodeId server, double watts) {
    const auto id = ids.next();
    cluster.place(Application(id, 0, Watts{watts}, 512_MB), server);
    return id;
  }

  ControllerConfig config() {
    ControllerConfig cfg;
    cfg.margin = 5_W;
    cfg.migration_cost = 2_W;
    cfg.allocation = AllocationPolicy::kProportionalToCapacity;
    return cfg;
  }

  /// One controller tick, with the bus tick set first the way the simulator
  /// sets it (0-based loop index).
  void step(Controller& ctl, Watts supply) {
    bus.set_tick(next_tick++);
    ctl.tick(supply);
  }

  /// Decisions taken during the most recent step(), in emission order.
  std::vector<obs::Event> decisions() const {
    std::vector<obs::Event> out;
    for (const auto& e : ring->events()) {
      if (e.tick == next_tick - 1 && is_decision(e.type)) out.push_back(e);
    }
    return out;
  }

  std::size_t count(obs::EventType type) const {
    std::size_t n = 0;
    for (const auto& e : decisions()) n += e.type == type ? 1 : 0;
    return n;
  }
};

TEST(EventLog, MigrationInitiatedRecorded) {
  Fixture f;
  const auto app = f.host(f.s00, 50.0);
  f.host(f.s00, 50.0);
  Controller ctl(f.cluster, f.config());
  ctl.set_event_bus(&f.bus);
  f.step(ctl, 200_W);
  ASSERT_EQ(f.count(obs::EventType::kMigration), 1u);
  const auto e = f.decisions().front();
  EXPECT_EQ(e.type, obs::EventType::kMigration);
  EXPECT_EQ(e.node, f.s00);
  EXPECT_EQ(e.node2, f.s01);
  EXPECT_EQ(e.tick, 0);
  // Victims are ordered by demand with an app-id tie-break, so of two equal
  // apps the first-hosted one moves.
  EXPECT_EQ(e.app, app);
  EXPECT_DOUBLE_EQ(e.value, 50.0);
}

TEST(EventLog, DropAndReviveRecorded) {
  Fixture f;
  f.host(f.s00, 100.0);
  f.host(f.s01, 100.0);
  Controller ctl(f.cluster, f.config());
  ctl.set_event_bus(&f.bus);
  f.step(ctl, 100_W);  // starve: drops
  EXPECT_GT(f.count(obs::EventType::kDrop), 0u);
  for (int t = 0; t < 8; ++t) {
    f.cluster.refresh_demands_constant();
    f.step(ctl, 400_W);
    if (f.count(obs::EventType::kRevive) > 0) break;
  }
  EXPECT_GT(ctl.stats().revivals, 0u);
}

TEST(EventLog, DegradeAndRestoreRecorded) {
  Fixture f;
  f.host(f.s00, 100.0);
  f.host(f.s01, 100.0);
  ControllerConfig cfg = f.config();
  cfg.shedding = SheddingPolicy::kDegradeThenDrop;
  Controller ctl(f.cluster, cfg);
  ctl.set_event_bus(&f.bus);
  f.step(ctl, 140_W);
  EXPECT_GT(f.count(obs::EventType::kDegrade), 0u);
  std::size_t restores = 0;
  for (int t = 0; t < 8; ++t) {
    f.cluster.refresh_demands_constant();
    f.step(ctl, 400_W);
    restores += f.count(obs::EventType::kRestore);
  }
  EXPECT_GT(restores, 0u);
}

TEST(EventLog, SleepRecordedAtConsolidation) {
  Fixture f;
  f.host(f.s00, 170.0);
  f.host(f.s01, 20.0);
  Controller ctl(f.cluster, f.config());
  ctl.set_event_bus(&f.bus);
  std::size_t sleeps = 0;
  for (int t = 1; t <= 7; ++t) {
    f.step(ctl, 880_W);
    sleeps += f.count(obs::EventType::kSleep);
  }
  EXPECT_EQ(sleeps, 1u);
}

TEST(EventLog, CompletedEventInLatencyMode) {
  Fixture f;
  f.host(f.s00, 50.0);
  f.host(f.s00, 50.0);
  ControllerConfig cfg = f.config();
  cfg.migration_periods_per_gib = 2.0;  // 512 MB image -> 1 period
  Controller ctl(f.cluster, cfg);
  ctl.set_event_bus(&f.bus);
  f.step(ctl, 200_W);
  ASSERT_EQ(f.count(obs::EventType::kMigration), 1u);
  std::size_t completed = 0;
  for (int t = 0; t < 3; ++t) {
    f.cluster.refresh_demands_constant();
    f.step(ctl, 200_W);
    completed += f.count(obs::EventType::kMigrationLanded);
  }
  EXPECT_EQ(completed, 1u);
}

TEST(EventLog, SteadyTickRecordsNoDecision) {
  Fixture f;
  f.host(f.s00, 50.0);
  f.host(f.s00, 50.0);
  Controller ctl(f.cluster, f.config());
  ctl.set_event_bus(&f.bus);
  f.step(ctl, 200_W);
  ASSERT_FALSE(f.decisions().empty());
  f.cluster.refresh_demands_constant();
  f.step(ctl, 200_W);  // steady state: nothing to do
  EXPECT_TRUE(f.decisions().empty());
}

TEST(EventLog, DescribeRendersEveryDecisionType) {
  obs::Event e;
  e.tick = 3;
  e.app = 7;
  e.node = 2;
  e.node2 = 5;
  e.value = 12.0;
  for (auto type : {obs::EventType::kMigration, obs::EventType::kMigrationLanded,
                    obs::EventType::kDrop, obs::EventType::kDegrade,
                    obs::EventType::kRevive, obs::EventType::kRestore,
                    obs::EventType::kSleep, obs::EventType::kWake}) {
    e.type = type;
    const std::string text = obs::describe(e);
    EXPECT_EQ(text.rfind("t=3 ", 0), 0u) << text;
    EXPECT_NE(text.find(std::string(" ") + obs::to_string(type) + " "),
              std::string::npos)
        << text;
    EXPECT_NE(text.find(" node=2"), std::string::npos) << text;
    EXPECT_NE(text.find(" node2=5"), std::string::npos) << text;
    EXPECT_NE(text.find(" app=7"), std::string::npos) << text;
  }
  e.type = obs::EventType::kDrop;
  e.reason = obs::Reason::kShedding;
  EXPECT_EQ(obs::describe(e),
            "t=3 drop node=2 node2=5 app=7 reason=shedding value=12");
  // Server-level decisions carry no app and no second node.
  obs::Event sleep;
  sleep.type = obs::EventType::kSleep;
  sleep.tick = 4;
  sleep.node = 9;
  sleep.reason = obs::Reason::kConsolidation;
  EXPECT_EQ(obs::describe(sleep),
            "t=4 sleep node=9 reason=consolidation value=0");
}

}  // namespace
}  // namespace willow::core
