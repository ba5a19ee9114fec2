#include "runs.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "core/balance.h"
#include "fault/link_faults.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/demand.h"
#include "workload/qos.h"

namespace perfbench {

using willow::core::Cluster;
using willow::hier::NodeId;
using willow::sim::SimConfig;
using willow::sim::Simulation;
namespace util = willow::util;
namespace workload = willow::workload;

namespace {

constexpr std::size_t kMaxFailureNotes = 8;

std::size_t hosted_apps(const Cluster& cluster) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    n += cluster.server_at(i).apps().size();
  }
  return n;
}

workload::AppId max_app_id(const Cluster& cluster) {
  workload::AppId m = 0;
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    for (const auto& a : cluster.server_at(i).apps()) m = std::max(m, a.id());
  }
  return m;
}

/// Default supply when the workload sets none: the sum of nameplates.
util::Watts plenty_supply(const Cluster& cluster) {
  util::Watts plenty{0.0};
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    plenty += cluster.server_at(i).thermal().params().nameplate;
  }
  return plenty;
}

util::Watts supply_at(const SimConfig& cfg, long tick, util::Watts plenty) {
  const double t =
      static_cast<double>(tick) * cfg.controller.demand_period.value();
  return cfg.supply ? cfg.supply->at(util::Seconds{t}) : plenty;
}

/// Whether the controller's k-th tick (1-based) divides the supply.
bool divides_supply(const willow::core::ControllerConfig& c, long k) {
  return k == 1 || k % c.eta1 == 0;
}

/// Upper bound on the root budget after `controller_ticks` controller ticks
/// (simulation tick = controller tick - 1): the root is set only by a supply
/// division, scheduled or re-run within a tick after a wake, so it is at
/// most the largest supply offered since the last scheduled division.
double root_supply_bound(const SimConfig& cfg, long controller_ticks,
                         util::Watts plenty) {
  long k = controller_ticks;
  while (k > 1 && !divides_supply(cfg.controller, k)) --k;
  double bound = 0.0;
  for (; k <= controller_ticks; ++k) {
    bound = std::max(bound, supply_at(cfg, k - 1, plenty).value());
  }
  return bound;
}

/// Budget conservation at every PMU after `controller_ticks` ticks: sum of
/// child budgets <= budget <= min(hard limit, supply at the root).  Empty
/// when it holds.
///
/// A lost directive leaves the child's old budget in force until a retry or
/// the next division lands (docs/fault_model.md), and the parent re-sends at
/// least every eta1 ticks.  A node whose own directive was lost divides its
/// children from its old budget, so when the retry lands between divisions
/// its children stay over-committed until the next one.  So when `link` is
/// set, a node whose link drew a loss verdict in the last 2 * eta1 ticks may
/// hold a stale budget, and the checks its budget enters are excused: its
/// parent's sum, its own sum and its hard limit.
std::string budget_violation(const willow::hier::Tree& tree,
                             const SimConfig& cfg, long controller_ticks,
                             util::Watts plenty,
                             willow::fault::LinkFaultModel* link) {
  const long last = controller_ticks - 1;
  const auto may_be_stale = [&](NodeId id) {
    if (link == nullptr) return false;
    for (long t = std::max(0L, last - 2L * cfg.controller.eta1); t <= last;
         ++t) {
      link->set_tick(t);
      if (link->down(id).lose) return true;
    }
    return false;
  };
  const double supply = root_supply_bound(cfg, controller_ticks, plenty);
  char buf[200];
  for (NodeId id = 0; id < tree.size(); ++id) {
    const auto& n = tree.node(id);
    const double b = n.budget().value();
    const double tol = 1e-6 + 1e-9 * std::abs(b);
    if (!n.is_leaf()) {
      double sum = 0.0;
      for (NodeId c : n.children()) sum += tree.node(c).budget().value();
      if (sum > b + tol && !may_be_stale(id) &&
          std::none_of(n.children().begin(), n.children().end(),
                       may_be_stale)) {
        std::snprintf(buf, sizeof buf,
                      "node %u: children hold %.6f W of a %.6f W budget", id,
                      sum, b);
        return buf;
      }
    }
    if (b > n.hard_limit().value() + tol && !may_be_stale(id)) {
      std::snprintf(buf, sizeof buf,
                    "node %u: budget %.6f W above hard limit %.6f W", id, b,
                    n.hard_limit().value());
      return buf;
    }
    if (n.is_root() && b > supply + tol) {
      std::snprintf(buf, sizeof buf,
                    "root: budget %.6f W above supply %.6f W", b, supply);
      return buf;
    }
  }
  return {};
}

void add_field(std::string& fp, const std::string& name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  fp += name + "=" + buf + "\n";
}

/// Fill `out` from the run's series, controller stats and metrics snapshot.
void finish_outcome(Outcome& out, const willow::core::ControllerStats& cs,
                    const util::TimeSeries& total_power,
                    const util::TimeSeries& qos,
                    const util::TimeSeries& migrations, double dt_s,
                    std::uint64_t quick_remigrations,
                    std::uint64_t churn_arrivals,
                    std::uint64_t churn_departures) {
  double power_sum = 0.0;
  for (double w : total_power.values()) power_sum += w;
  out.it_energy_kwh = power_sum * dt_s / 3.6e6;
  out.sla_satisfaction = qos.stats().mean();
  out.measured_migrations = migrations.stats().sum();
  out.measured_ticks = static_cast<long>(total_power.size());
  out.quick_remigrations = quick_remigrations;

  std::string fp;
  const std::pair<const char*, std::uint64_t> stats[] = {
      {"stats.demand_migrations", cs.demand_migrations},
      {"stats.consolidation_migrations", cs.consolidation_migrations},
      {"stats.local_migrations", cs.local_migrations},
      {"stats.nonlocal_migrations", cs.nonlocal_migrations},
      {"stats.drops", cs.drops},
      {"stats.revivals", cs.revivals},
      {"stats.degrades", cs.degrades},
      {"stats.restores", cs.restores},
      {"stats.sleeps", cs.sleeps},
      {"stats.wakes", cs.wakes},
  };
  for (const auto& [name, v] : stats) {
    add_field(fp, name, static_cast<double>(v));
  }
  add_field(fp, "stats.dropped_demand_w", cs.dropped_demand.value());
  add_field(fp, "stats.degraded_demand_w", cs.degraded_demand.value());
  const auto decision = [](const std::string& name) {
    return name.rfind("control.", 0) == 0 || name.rfind("controller.", 0) == 0;
  };
  for (const auto& c : out.metrics.counters) {
    if (decision(c.name)) add_field(fp, c.name, static_cast<double>(c.value));
  }
  for (const auto& g : out.metrics.gauges) {
    if (decision(g.name)) add_field(fp, g.name, g.value);
  }
  for (const auto& h : out.metrics.histograms) {
    if (!decision(h.name)) continue;
    add_field(fp, h.name + ".count", static_cast<double>(h.count));
    add_field(fp, h.name + ".sum", h.sum);
  }
  add_field(fp, "it_energy_kwh", out.it_energy_kwh);
  add_field(fp, "sla_satisfaction", out.sla_satisfaction);
  add_field(fp, "measured_migrations", out.measured_migrations);
  add_field(fp, "quick_remigrations", static_cast<double>(quick_remigrations));
  add_field(fp, "churn_arrivals", static_cast<double>(churn_arrivals));
  add_field(fp, "churn_departures", static_cast<double>(churn_departures));
  out.fingerprint = std::move(fp);
}

}  // namespace

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < kMaxFailureNotes) failures_.push_back(what);
}

std::string fingerprint_hash(const std::string& fingerprint) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : fingerprint) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double time_setup(const SimConfig& cfg) {
  SimConfig copy = cfg;
  const double t0 = wall_seconds();
  const Simulation simulation(std::move(copy));
  return wall_seconds() - t0;
}

UntracedRep run_untraced(const SimConfig& cfg, Checks& checks) {
  UntracedRep rep;
  SimConfig copy = cfg;
  const double t0 = wall_seconds();
  Simulation simulation(std::move(copy));
  rep.setup_s = wall_seconds() - t0;
  auto& cluster = simulation.datacenter().cluster;
  const std::size_t initial_apps = hosted_apps(cluster);

  const double cpu0 = process_cpu_seconds();
  const double wall0 = wall_seconds();
  const willow::sim::SimResult result = simulation.run();
  rep.run_s = wall_seconds() - wall0;
  rep.run_cpu_s = process_cpu_seconds() - cpu0;
  for (const auto& t : result.metrics.timers) {
    if (t.name == "sim.phase.tick.measured") {
      rep.tick_measured_s = t.total_seconds;
      rep.tick_measured_count = t.count;
    }
  }

  rep.out.metrics = result.metrics;
  finish_outcome(rep.out, result.controller_stats, result.total_power,
                 result.qos_satisfaction, result.migrations_per_tick,
                 cfg.controller.demand_period.value(),
                 result.quick_remigrations, result.churn_arrivals,
                 result.churn_departures);

  std::optional<willow::fault::LinkFaultModel> link;
  if (cfg.faults.link.any()) link.emplace(cfg.faults.link, cfg.seed);
  const std::string budgets = budget_violation(
      cluster.tree(), cfg, simulation.controller().tick_count(),
      plenty_supply(cluster), link ? &*link : nullptr);
  checks.expect(budgets.empty(), "untraced end-of-run budgets: " + budgets);
  checks.expect(!result.thermal_violation, "untraced run: thermal violation");
  checks.expect(hosted_apps(cluster) + result.churn_departures ==
                    initial_apps + result.churn_arrivals,
                "untraced run: applications not conserved under churn");
  checks.expect(rep.out.it_energy_kwh > 0.0 &&
                    rep.out.sla_satisfaction >= 0.0 &&
                    rep.out.sla_satisfaction <= 1.0 &&
                    rep.tick_measured_count ==
                        static_cast<std::uint64_t>(cfg.measure_ticks),
                "untraced run: energy, SLA or measured-tick count out of "
                "range");
  return rep;
}

TracedRep run_traced(const SimConfig& cfg, Checks& checks) {
  if (cfg.threads != 1 || cfg.ups || cfg.intensity || cfg.cooling ||
      !cfg.ambient_events.empty() || cfg.faults.server_faults_enabled() ||
      cfg.report_loss_probability > 0.0 || cfg.ipc_chain_fraction > 0.0) {
    throw std::invalid_argument(
        "traced run: the workload uses a feature the stepper does not mirror");
  }
  TracedRep rep;
  rep.warmup_ticks = cfg.warmup_ticks;
  Tracer& tracer = rep.tracer;
  tracer.reserve(
      static_cast<std::size_t>(cfg.warmup_ticks + cfg.measure_ticks) * 8);

  // Declared before the Simulation so they outlive the controller that
  // points at them.
  std::optional<willow::fault::LinkFaultModel> link, link_check;
  Simulation simulation{SimConfig(cfg)};
  auto& dc = simulation.datacenter();
  auto& cluster = dc.cluster;
  auto& tree = cluster.tree();
  auto& ctl = simulation.controller();
  auto& fabric = simulation.fabric();
  auto& bus = simulation.event_bus();
  const std::size_t n_servers = dc.servers.size();

  // The constructor allocated app ids 1..N for the mix; continue after them
  // so churn arrivals get the ids Simulation::run() would give them.
  const std::size_t initial_apps = hosted_apps(cluster);
  checks.expect(max_app_id(cluster) == initial_apps,
                "traced run: mix app ids are not 1..N");
  workload::AppIdAllocator ids;
  for (std::size_t i = 0; i < initial_apps; ++i) (void)ids.next();

  // Link-fault verdicts are pure functions of (seed, tick, node); this model
  // replaces the constructor's so the stepper can advance its clock.
  if (cfg.faults.link.any()) {
    link.emplace(cfg.faults.link, cfg.seed);
    link_check.emplace(cfg.faults.link, cfg.seed);
    ctl.set_link_faults(&*link);
  }
  util::ThreadPool* const pool = nullptr;  // serial, as cfg.threads == 1

  const auto& model = cfg.datacenter.server.power_model;
  const double sustainable = simulation.sustainable_dynamic_w();
  auto norm_util = [&](const willow::core::ManagedServer& srv,
                       util::Watts budget) {
    if (srv.asleep()) return 0.0;
    const double dynamic =
        (srv.consumed_power(budget) - srv.idle_floor()).value();
    return std::clamp(dynamic / sustainable, 0.0, 2.0);
  };
  const util::Watts plenty = plenty_supply(cluster);
  std::optional<workload::PoissonDemand> demand;
  if (cfg.demand_quantum.value() > 0.0) demand.emplace(cfg.demand_quantum);
  const util::Seconds dt = cfg.controller.demand_period;
  const auto& catalog = workload::simulation_catalog();
  const auto l1_groups = fabric.level1_groups();

  struct ChurnDecision {
    bool churn = false;
    bool has_departure = false;
    workload::AppId departure = 0;
    std::size_t cls = 0;
    int priority = 0;
  };
  std::vector<ChurnDecision> churn_plan;
  std::vector<double> traffic_units(n_servers, -1.0);
  std::vector<double> temps(n_servers, 0.0);
  // Recorded but never read: the stepper repeats Simulation::run()'s
  // recording work so the tick's self time stays comparable.
  std::vector<willow::sim::ServerMetrics> server_metrics(n_servers);
  std::vector<willow::sim::SwitchMetrics> switch_metrics(l1_groups.size());
  util::TimeSeries total_power, qos, migrations;
  std::unordered_map<workload::AppId, long> last_move;
  std::uint64_t quick_remigrations = 0, arrivals = 0, departures = 0;
  std::uint64_t prev_dm = 0, prev_cm = 0;
  bool thermal_violation = false;
  std::uint64_t budget_failures = 0;
  std::string first_budget_failure;
  auto& c_ticks = bus.metrics().counter("sim.ticks");

  const long total_ticks = cfg.warmup_ticks + cfg.measure_ticks;
  for (long tick = 0; tick < total_ticks; ++tick) {
    {
      const ScopedSpan tick_span(tracer, "sim.tick", -1, tick);
      const int root = tick_span.index();
      const double t = static_cast<double>(tick) * dt.value();
      bus.set_tick(tick);
      c_ticks.increment();
      if (link) link->set_tick(tick);

      if (cfg.churn_probability > 0.0) {
        const ScopedSpan span(tracer, "workload.churn", root, tick);
        churn_plan.assign(n_servers, {});
        util::parallel_for_ranges(
            pool, n_servers, [&](std::size_t begin, std::size_t end) {
              for (std::size_t i = begin; i < end; ++i) {
                const auto& srv = cluster.server_at(i);
                if (srv.asleep() || srv.crashed() || srv.apps().empty()) {
                  continue;
                }
                auto rng = util::tick_stream(cfg.seed, tick, i,
                                             util::stream_phase::kChurn);
                if (!rng.chance(cfg.churn_probability)) continue;
                auto& d = churn_plan[i];
                d.churn = true;
                std::vector<workload::AppId> removable;
                for (const auto& a : srv.apps()) {
                  if (!ctl.app_in_flight(a.id())) removable.push_back(a.id());
                }
                if (!removable.empty()) {
                  d.has_departure = true;
                  d.departure = removable[rng.index(removable.size())];
                }
                d.cls = rng.index(catalog.size());
                if (cfg.mix.priority_levels > 1) {
                  d.priority = rng.uniform_int(0, cfg.mix.priority_levels - 1);
                }
              }
            });
        for (std::size_t i = 0; i < n_servers; ++i) {
          const auto& d = churn_plan[i];
          if (!d.churn) continue;
          if (d.has_departure) {
            cluster.remove_app(d.departure);
            last_move.erase(d.departure);
            ++departures;
          }
          const util::Watts mean =
              cfg.mix.unit_power * catalog[d.cls].relative_power;
          workload::Application fresh(
              ids.next(), d.cls, mean,
              util::Megabytes{cfg.mix.image_per_unit.value() *
                              catalog[d.cls].relative_power});
          if (cfg.mix.priority_levels > 1) fresh.set_priority(d.priority);
          cluster.place(std::move(fresh), dc.servers[i]);
          ++arrivals;
          ctl.note_external_change(dc.servers[i]);
        }
      }

      {
        const ScopedSpan span(tracer, "workload.demand", root, tick);
        const Cluster::PerServerHook per_server = [&](std::size_t i) {
          const auto& srv = cluster.server_at(i);
          traffic_units[i] =
              srv.asleep() || srv.crashed()
                  ? -1.0
                  : norm_util(srv, tree.node(srv.node()).budget());
        };
        if (demand) {
          cluster.refresh_demands(*demand, cfg.seed, tick, 1.0, pool,
                                  &per_server);
        } else {
          cluster.refresh_demands_deterministic(1.0, pool, &per_server);
        }
      }

      const util::Watts supply = supply_at(cfg, tick, plenty);
      {
        const ScopedSpan span(tracer, "net.fabric", root, tick);
        fabric.begin_period();
        for (std::size_t i = 0; i < n_servers; ++i) {
          if (traffic_units[i] >= 0.0) {
            fabric.add_server_traffic(dc.servers[i], traffic_units[i]);
          }
        }
      }

      {
        // Tick class from the controller's own schedule (k = the tick
        // about to run): 2 = consolidation (dA), 1 = supply division (dS),
        // 0 = demand only (dD).
        const long k = ctl.tick_count() + 1;
        const int cls = k % cfg.controller.eta2 == 0
                            ? 2
                            : (divides_supply(cfg.controller, k) ? 1 : 0);
        const ScopedSpan span(tracer, "core.tick", root, tick, cls);
        ctl.tick(supply);
      }

      const bool recording = tick >= cfg.warmup_ticks;
      {
        const ScopedSpan span(tracer, "thermal.step", root, tick);
        if (recording) {
          const Cluster::PerServerHook record_server = [&](std::size_t i) {
            const NodeId s = dc.servers[i];
            const auto& srv = cluster.server_at(i);
            auto& m = server_metrics[i];
            const util::Watts budget = tree.node(s).budget();
            m.consumed_power.add(srv.consumed_power(budget).value());
            m.temperature.add(srv.thermal().temperature().value());
            m.utilization.add(norm_util(srv, budget));
            if (srv.asleep()) {
              m.asleep_fraction += 1.0;
              m.saved_power_w += model.static_power().value() +
                                 sustainable * cfg.target_utilization;
            }
            temps[i] = srv.thermal().temperature().value();
          };
          cluster.step_thermal(dt, pool, &record_server);
        } else {
          cluster.step_thermal(dt, pool);
        }
      }

      for (const auto& rec : ctl.migrations_this_tick()) {
        auto it = last_move.find(rec.app);
        if (it != last_move.end() && ctl.tick_count() - it->second < 3) {
          ++quick_remigrations;
        }
        last_move[rec.app] = ctl.tick_count();
      }

      if (recording) {
        const auto& st = ctl.stats();
        const auto dm = st.demand_migrations - prev_dm;
        const auto cm = st.consolidation_migrations - prev_cm;
        prev_dm = st.demand_migrations;
        prev_cm = st.consolidation_migrations;
        migrations.record(t, static_cast<double>(dm + cm));
        {
          const ScopedSpan span(tracer, "core.level_balance", root, tick);
          (void)willow::core::level_balance(tree, 0);
        }
        if (cfg.sla_inflation > 1.0) {
          workload::SlaTracker tracker(cfg.sla_inflation);
          for (NodeId s : dc.servers) {
            const auto& srv = cluster.server(s);
            double offered = 0.0, denied = 0.0;
            for (const auto& a : srv.apps()) {
              if (a.dropped() || srv.asleep() || srv.crashed()) {
                denied += a.effective_mean_power().value();
              } else {
                offered += a.demand().value();
              }
            }
            if (denied > 0.0) tracker.record_denied(denied);
            if (offered <= 0.0) continue;
            const util::Watts budget = tree.node(s).budget();
            const double capacity = std::max(
                0.0, (util::min(budget,
                                srv.thermal().steady_state_power_limit()) -
                      srv.idle_floor())
                         .value());
            tracker.record(offered, capacity > 0.0 ? offered / capacity : 2.0);
          }
          qos.record(t, tracker.satisfaction());
        }
        total_power.record(t, cluster.total_consumed().value());
        for (std::size_t i = 0; i < n_servers; ++i) {
          if (temps[i] >
              cluster.server_at(i).thermal().params().limit.value() + 0.5) {
            thermal_violation = true;
          }
        }
        for (std::size_t i = 0; i < l1_groups.size(); ++i) {
          auto& m = switch_metrics[i];
          m.power.add(fabric.switch_power(l1_groups[i]).value());
          const auto& gs = fabric.stats(l1_groups[i]);
          m.traffic.add(gs.period_traffic);
          m.migration_cost.add(gs.period_migration_cost.value());
        }
      }
    }
    // Outside the tick span: conservation after this tick's decisions.
    const std::string v =
        budget_violation(tree, cfg, ctl.tick_count(), plenty,
                         link_check ? &*link_check : nullptr);
    if (!v.empty() && budget_failures++ == 0) {
      first_budget_failure = "tick " + std::to_string(tick) + ": " + v;
    }
  }

  // Mirror the controller's whole-run tallies as Simulation::run() does.
  auto& metrics = bus.metrics();
  const auto& cs = ctl.stats();
  metrics.counter("controller.demand_migrations")
      .increment(cs.demand_migrations);
  metrics.counter("controller.consolidation_migrations")
      .increment(cs.consolidation_migrations);
  metrics.counter("controller.local_migrations").increment(cs.local_migrations);
  metrics.counter("controller.nonlocal_migrations")
      .increment(cs.nonlocal_migrations);
  metrics.counter("controller.wakes").increment(cs.wakes);
  metrics.counter("controller.sleeps").increment(cs.sleeps);
  metrics.counter("controller.drops").increment(cs.drops);
  metrics.counter("controller.degrades").increment(cs.degrades);
  metrics.counter("controller.revivals").increment(cs.revivals);
  metrics.counter("controller.restores").increment(cs.restores);
  metrics.gauge("controller.degraded_demand_w").set(cs.degraded_demand.value());
  metrics.gauge("controller.dropped_demand_w").set(cs.dropped_demand.value());
  bus.flush();
  rep.out.metrics = metrics.snapshot();
  finish_outcome(rep.out, cs, total_power, qos, migrations, dt.value(),
                 quick_remigrations, arrivals, departures);

  checks.expect(budget_failures == 0,
                "traced run: budget conservation failed on " +
                    std::to_string(budget_failures) + " ticks, first " +
                    first_budget_failure);
  checks.expect(!thermal_violation, "traced run: thermal violation");
  checks.expect(hosted_apps(cluster) + departures == initial_apps + arrivals,
                "traced run: applications not conserved under churn");
  return rep;
}

}  // namespace perfbench
