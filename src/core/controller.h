// The Willow controller — Section IV (supply & demand side adaptation).
//
// One Controller instance drives one Cluster.  Once per demand period ΔD the
// simulator calls tick() with the currently available supply; the controller
// then executes the paper's phases at their respective granularities:
//
//   every ΔD            demand reports up the tree (Fig. 2), demand-side
//                        adaptation (deficit-driven migrations, Sec. IV-E),
//                        revival of dropped workload under surplus
//   every ΔS = η1·ΔD    supply-side adaptation: thermal/circuit hard limits
//                        recomputed, budgets divided top-down proportional to
//                        smoothed demands (Sec. IV-D)
//   every ΔA = η2·ΔD    consolidation: drain low-utilization servers and put
//                        them to sleep (Sec. IV-C, IV-E)
//
// Migration planning follows the paper's rules: local migrations (within the
// parent group) are preferred to non-local; unsatisfied demands escalate up
// the hierarchy level by level; matching demands to surpluses is the FFDLR
// bin packing of Sec. IV-F; a migration happens only if both source and
// target retain a surplus of at least P_min afterwards; migration cost is
// charged as a temporary power demand on both endpoints; demands that fit
// nowhere are dropped (degraded mode).
//
// Unidirectional rule (Sec. IV-E): migrations are triggered only by budget
// tightening, and no migration may be *destined into* a subtree whose budget
// was reduced by the triggering event.  The paper's datacenter-level case
// ("no migrations are allowed at all [into the datacenter]") concerns
// admitting additional workload from outside, which maps here to the revival
// path: dropped workload is not revived under a node whose budget shrank.
#pragma once

#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "binpack/pack.h"
#include "core/allocation.h"
#include "core/balance.h"
#include "core/capacity_index.h"
#include "core/cluster.h"
#include "fault/link_faults.h"
#include "obs/bus.h"
#include "util/units.h"

namespace willow::util {
class ThreadPool;
}

namespace willow::core {

/// How a node's budget is divided among its children (Sec. IV-D).
enum class AllocationPolicy {
  /// "proportional to their demands" — the design-section rule.  Under a
  /// global deficit every child shrinks proportionally (no surpluses), so
  /// relief comes from hard-limit capping, demand fluctuation and drops.
  kProportionalToDemand,
  /// Proportional to each child's hard capacity — the reading that matches
  /// the testbed narrative ("the available power supply is divided
  /// proportionally between the servers", three identical machines): equal
  /// shares leave low-utilization servers with surplus, which is what lets
  /// highly utilized servers migrate work away on a supply plunge (Fig. 16).
  kProportionalToCapacity,
};

/// What "utilization" is measured against when judging consolidation
/// candidates (Sec. IV-E: "When the utilization in a node is really small").
enum class UtilizationReference {
  /// Fraction of the power model's dynamic range — right when the electrical
  /// rating is the binding resource (the paper's testbed).
  kDynamicRange,
  /// Fraction of the thermally sustainable dynamic power
  /// (steady-state power limit minus the idle floor) — right when the
  /// thermal envelope binds long before the nameplate (the paper's
  /// simulation constants, where c2/c1*(T_limit - Ta) ~ 28 W per 450 W
  /// server).
  kThermalSustainable,
};

/// How unplaceable excess demand is shed (Sec. I names both mechanisms:
/// shutting down low-priority tasks, and altering the computation — "reducing
/// the resolution of video, use of coarser audio codecs, or computation of
/// answers to a lower precision").
enum class SheddingPolicy {
  /// Shut whole applications down (the behaviour Sec. IV-E describes).
  kDropWhole,
  /// First degrade applications to a reduced service level; drop whole
  /// applications only if degradation cannot cover the deficit.
  kDegradeThenDrop,
};

struct ControllerConfig {
  /// ΔD in simulation time units (thermal stepping uses this too).
  Seconds demand_period{1.0};
  /// ΔS = eta1 * ΔD (paper simulation: 4).
  int eta1 = 4;
  /// ΔA = eta2 * ΔD, eta2 > eta1 (paper simulation: 7).
  int eta2 = 7;
  /// P_min: surplus that must remain at source and target post-migration.
  Watts margin{10.0};
  /// Utilization below which a server becomes a consolidation candidate
  /// (the testbed experiment uses 20%, Sec. V-C5).
  double consolidation_threshold = 0.2;
  /// Matching algorithm (Sec. IV-F; kFfdlr is the paper's choice).
  binpack::Algorithm packing = binpack::Algorithm::kFfdlr;
  /// Budget division rule (see AllocationPolicy).
  AllocationPolicy allocation = AllocationPolicy::kProportionalToDemand;
  /// Denominator for consolidation utilization (see UtilizationReference).
  UtilizationReference utilization_reference = UtilizationReference::kDynamicRange;
  /// Prefer local (same parent) migrations before escalating.  Ablation knob;
  /// the paper argues locality reduces network overhead and reconfiguration.
  bool prefer_local = true;
  /// Temporary power demand charged to source and target per migration.
  Watts migration_cost{5.0};
  /// Demand periods the migration cost persists.
  int migration_cost_periods = 1;
  /// VM transfer time: demand periods per GiB of image.  0 (default) keeps
  /// the paper's instantaneous-placement model; > 0 makes a migration take
  /// ceil(GiB * this) periods, during which the application keeps running on
  /// (and drawing at) the source while the target holds a reservation.
  double migration_periods_per_gib = 0.0;
  /// Enforce the unidirectional no-migrations-into-reduced-subtrees rule.
  bool enforce_unidirectional = true;
  /// Allow waking sleeping servers when deficits cannot be placed.
  bool allow_wake = true;
  /// Allow dropping demand that fits nowhere (degraded mode).
  bool allow_drop = true;
  /// Fraction of a migration target's sustainable *dynamic* envelope that
  /// may be filled — Sec. I's latency-power tradeoff made explicit.  1.0
  /// packs servers completely (the Sec. IV-F intent, "we try to run every
  /// server at full utilization": best power, worst queueing); 0.8 keeps
  /// M/M/1 response-time inflation within 5x on consolidated hosts.
  double target_fill_fraction = 1.0;
  /// What shedding does when it must act (see SheddingPolicy).
  SheddingPolicy shedding = SheddingPolicy::kDropWhole;
  /// Service level degraded applications run at under kDegradeThenDrop.
  double degraded_service_level = 0.5;
  /// Incremental (change-driven) control plane: re-aggregate, re-divide and
  /// re-pack only where inputs changed bitwise since the previous decision —
  /// dirty report paths, memoized subtree divisions, epoch-stamped
  /// consolidation candidates and cached packing failures.  Semantically
  /// identical to the full recompute (same budgets, same migrations, same
  /// event trace); `shadow_diff` asserts that.  Disable to benchmark the full
  /// walk or to rule the machinery out while debugging.  Scenario key
  /// `incremental_control`.
  bool incremental = true;
  /// Dead-band (W) on demand reports: a node re-reports to its parent only
  /// when its smoothed demand moved more than this since its last report.
  /// 0 = exact (a report on every bitwise change).  Must stay below `margin`:
  /// the controller acts on reported values, so movement inside the dead-band
  /// must also be too small to trigger migrations (Property 4).
  Watts report_deadband{0.0};
  /// Debug shadow mode: every skip the incremental path takes is re-derived
  /// from scratch; any bitwise divergence throws std::logic_error.  Scenario
  /// key `shadow_diff`.
  bool shadow_diff = false;
  /// Degraded mode (docs/fault_model.md): ticks of demand-report silence
  /// after which a server is treated as dark — its last-known-good demand is
  /// decayed toward the idle floor and its budget is clamped to the safe
  /// steady-state envelope.  0 (default) disables the machinery entirely.
  int stale_timeout_ticks = 0;
  /// Per-tick geometric decay applied to the last-known-good demand once the
  /// stale timeout has tripped (in (0, 1]; 1 = hold the value forever).
  double stale_decay = 0.9;
  /// Bounded-backoff retries for budget directives lost on a faulty link
  /// (delay doubles per attempt); after this many losses the directive is
  /// abandoned and the next supply pass re-derives it.
  int directive_retry_limit = 3;

  void validate() const;
};

enum class MigrationCause { kDemand, kConsolidation };

struct MigrationRecord {
  workload::AppId app = 0;
  NodeId from = hier::kNoNode;
  NodeId to = hier::kNoNode;
  Watts size{0.0};  ///< demand moved
  MigrationCause cause = MigrationCause::kDemand;
  long tick = 0;
  bool local = false;  ///< source and target share a parent
};

struct ControllerStats {
  std::uint64_t demand_migrations = 0;
  std::uint64_t consolidation_migrations = 0;
  std::uint64_t local_migrations = 0;
  std::uint64_t nonlocal_migrations = 0;
  std::uint64_t drops = 0;
  std::uint64_t revivals = 0;
  std::uint64_t degrades = 0;
  std::uint64_t restores = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t wakes = 0;
  Watts dropped_demand{0.0};
  Watts degraded_demand{0.0};

  [[nodiscard]] std::uint64_t total_migrations() const {
    return demand_migrations + consolidation_migrations;
  }
};

class Controller {
 public:
  Controller(Cluster& cluster, ControllerConfig config);

  [[nodiscard]] const ControllerConfig& config() const { return config_; }
  [[nodiscard]] long tick_count() const { return tick_; }
  [[nodiscard]] const ControllerStats& stats() const { return stats_; }

  /// Migrations applied during the most recent tick().
  [[nodiscard]] const std::vector<MigrationRecord>& migrations_this_tick()
      const {
    return migrations_this_tick_;
  }

  /// Observer invoked for every applied migration (e.g. fabric accounting).
  void set_migration_sink(std::function<void(const MigrationRecord&)> sink) {
    sink_ = std::move(sink);
  }

  /// Attach an observability bus (not owned; may be null).  Every decision
  /// the controller takes — migrations with reason codes (supply deficit /
  /// thermal / consolidation), thermal throttles, budget directives, drops,
  /// degrades, sleeps, wakes — is emitted as a typed event, and packing
  /// attempts feed the bus's metrics registry.  The bus is the controller's
  /// only decision log: attach an obs::RingBufferSink to inspect a tick's
  /// decisions.  The controller is serial, so all emission goes through
  /// EventBus::emit.
  void set_event_bus(obs::EventBus* bus) {
    bus_ = bus;
    resolve_instruments();
  }
  [[nodiscard]] obs::EventBus* event_bus() const { return bus_; }

  /// One demand period: reports, (possibly) supply adaptation with the given
  /// available supply, demand adaptation, (possibly) consolidation, revival.
  void tick(Watts available_supply);

  /// Whether `node`'s budget was reduced by the most recent supply event.
  [[nodiscard]] bool budget_reduced(NodeId node) const;

  /// Root-level budget that no child could absorb at the last supply event.
  [[nodiscard]] Watts root_unallocated() const { return root_unallocated_; }

  /// Migrations currently in transit (only under migration latency).
  [[nodiscard]] std::size_t migrations_in_flight() const {
    return in_flight_.size();
  }

  /// Whether the given application is currently mid-transfer (callers that
  /// churn workload must not remove such apps out from under the transfer).
  [[nodiscard]] bool app_in_flight(workload::AppId app) const {
    return apps_in_flight_.contains(app);
  }

  /// Force a supply adaptation now (tests; scenario warm-up).  The plant
  /// may have moved since the last tick, so every leaf limit is re-read.
  void force_supply_adaptation(Watts available_supply) {
    leaf_limits_tick_ = -1;
    supply_adaptation(available_supply);
  }

  /// Tell the controller that state outside its own mutations changed under
  /// `node` (workload churn placed/removed an application, an ambient event
  /// re-zoned a server, a fault was injected).  The incremental path treats
  /// everything it has not been told about as unchanged, so the simulator
  /// must call this for every externally touched server.  No-op when the
  /// incremental machinery is off.
  void note_external_change(NodeId node);

  /// Tell the controller a server's availability flipped (crash or restore).
  /// Re-dirties the incremental plane exactly like the sleep/wake paths:
  /// the parent's aggregation, hard-limit roll-up and division must re-run,
  /// and the node's own report path is marked pending.  Safe in both walk
  /// modes.
  void note_availability_change(NodeId node);

  /// Attach a worker pool (not owned; may be null).  Used to shard the
  /// independent subtree-scope consolidation dry runs; results are merged in
  /// fixed candidate order and revalidated against the change epochs, so the
  /// decision stream is byte-identical for any pool size (including none).
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }

  /// Attach a link-fault model (not owned; may be null).  Installed on the
  /// tree (up-link report faults) and consulted by the budget distributor:
  /// lost directives enter a bounded-backoff retry queue instead of being
  /// applied.  Null keeps every budget path byte-identical to a fault-free
  /// build.
  void set_link_faults(const fault::LinkFaultModel* faults);

 private:
  struct PlanItem {
    workload::AppId app;
    NodeId source;
    Watts size;  ///< demand + migration cost (what a bin must absorb)
    Watts demand;
    MigrationCause cause;
    /// Fine-grained trigger for the event stream: a demand migration off a
    /// thermally clamped server is kThermal, off a supply-starved one
    /// kSupplyDeficit; consolidation drains are kConsolidation.
    obs::Reason reason = obs::Reason::kNone;
  };

  void supply_adaptation(Watts available_supply);
  /// Refresh leaf limits (once per tick: the plant does not move inside a
  /// tick, so a wake batch's re-division finds them where the tick's first
  /// pass left them), then roll dirty internal limits up.
  void update_hard_limits();
  /// Set `node`'s budget_reduced_ flag, listing it for the next clear.
  void mark_budget_reduced(NodeId node);
  /// Degrade/drop unplaceable leftovers per SheddingPolicy, lowest priority
  /// first, releasing just enough to cover each source's deficit.
  void shed_leftovers(std::vector<PlanItem>& pending);
  /// Per-ΔD local thermal throttling: clamp each active server's budget to
  /// its freshly derived thermal/circuit limit.  A clamp is a tightening
  /// event (marks the node budget-reduced), which is what drives workload
  /// out of hot zones between supply periods.
  void enforce_thermal_limits();
  void demand_adaptation();
  void consolidate();
  void revive_dropped();

  // ---- degraded mode (fault handling; docs/fault_model.md) ----------------

  /// Feed decayed last-known-good demand for servers whose reports have been
  /// silent past the stale timeout (runs between leaf observation and the
  /// report sweep; the synthetic value flows through the normal EWMA path so
  /// incremental == full holds under faults).
  void apply_stale_observations();
  /// Clamp dark servers' budgets to the always-safe steady-state envelope
  /// (fail-safe toward thermal limits, never above) — the budget-side twin
  /// of enforce_thermal_limits, with identical dirtying mechanics.
  void apply_fallback_budgets();
  /// Send one directive down `id`'s link, shared by the supply pass and the
  /// retry queue: draw the link verdict, and on loss count and trace the
  /// drop and return false; otherwise apply it with full bookkeeping (event,
  /// tree accounting, dirty marks, budget_reduced on decrease), apply a
  /// duplicate copy's accounting, add the delivered messages to `directives`
  /// and return true.  The root's assignment crosses no link: it is never
  /// lost and never counted.
  bool send_directive(NodeId id, Watts budget, std::uint64_t& directives);
  /// A directive to `id` was lost; remember it for bounded-backoff retry and
  /// keep the dividing parent dirty so supply passes re-derive it.
  void queue_directive_retry(NodeId id, Watts budget);
  /// Re-send queued directives whose backoff expired (runs every tick).
  void retry_pending_directives();

  /// Select apps on `server` whose combined demand covers `needed`;
  /// largest-demand-first, skipping dropped apps.
  std::vector<PlanItem> select_victims(NodeId server, Watts needed,
                                       MigrationCause cause,
                                       obs::Reason reason);

  /// Target eligibility under the unidirectional rule within `scope`.
  [[nodiscard]] bool eligible_target(NodeId target_server, NodeId scope) const;

  /// Pack `items` into the surpluses of `targets` and apply the resulting
  /// migrations.  Returns the item indices that could not be placed.
  std::vector<std::size_t> pack_and_apply(std::vector<PlanItem>& items,
                                          const std::vector<NodeId>& targets);
  /// As above, with the bins of every eligible server under `scope`, served
  /// by the capacity index when index_serves(scope).
  std::vector<std::size_t> pack_and_apply(std::vector<PlanItem>& items,
                                          NodeId scope);
  /// The one solve-and-apply path behind both forms: count the problem,
  /// serve it from the all-unplaced memo when it repeats, else solve it — on
  /// the capacity index when `scope` is a node, else with binpack::pack over
  /// pack_scratch_.bins — and apply the plan.
  std::vector<std::size_t> solve_and_apply(std::vector<PlanItem>& items,
                                           NodeId scope);

  void apply_migration(const PlanItem& item, NodeId target);

  /// Land in-flight migrations whose transfer completed (latency mode).
  void complete_due_migrations();

  /// Remaining spare capacity a target can still absorb this tick:
  /// surplus - margin - demand already migrated in this tick.
  [[nodiscard]] Watts target_capacity(NodeId server) const;

  /// Rebuild the membership-derived candidate caches if the tree changed
  /// shape.  Node membership is fixed after construction (only active flags
  /// and budgets change per tick), so these are computed once and reused by
  /// every tick instead of re-deriving them with per-node scans; the
  /// tree-size check invalidates them should a caller ever grow the tree.
  void ensure_topology_cache();

  // ---- incremental (change-driven) machinery -------------------------------
  // Shared invariant of every cache below: it is keyed on state that, when it
  // changes bitwise, provably marks the cache dirty (a report, a budget
  // directive, a thermal version bump, an epoch stamp).  A cache hit therefore
  // reproduces the full recomputation bit for bit; shadow_diff re-derives each
  // hit and throws on divergence.

  /// Stamp `node` and its whole root path with a fresh change epoch.  Every
  /// controller-visible mutation under a node funnels through this, so
  /// subtree_epoch_[n] answers "did anything below n change since epoch E?".
  void touch(NodeId node);

  /// min(circuit rating, thermal power limit over one demand period) for the
  /// server at `server_index`, cached on the server's thermal state version
  /// (the only moving input).  Shared by update_hard_limits and
  /// enforce_thermal_limits so both clamp to identical bits, and valid in
  /// both walk modes (it memoizes a pure function).
  [[nodiscard]] Watts leaf_limit(std::size_t server_index);

  /// Internal node `id`'s hard limit: the sum of its active children's
  /// limits, capped by the group's circuit rating.  The roll-up and its
  /// shadow check both derive it here.
  [[nodiscard]] Watts rolled_up_hard_limit(NodeId id) const;

  /// Divide `id`'s budget among its children (Sec. IV-D) from their current
  /// demands and capacities.  The supply pass and its shadow check both
  /// derive the division here.  The result lives in reused scratch, valid
  /// until the next call.
  const AllocationResult& divide(NodeId id);

  /// Shadow-diff verdict: count one audited skip, and throw std::logic_error
  /// naming `what` (and `node`, if given) when the re-derivation mismatched.
  void shadow_verify(bool mismatch, const char* what,
                     NodeId node = hier::kNoNode);

  void resolve_instruments();

  /// Per-entity change epochs (see touch()).
  std::uint64_t change_epoch_ = 0;
  std::vector<std::uint64_t> subtree_epoch_;  ///< by NodeId
  /// Internal nodes whose top-down division must re-run at the next supply
  /// pass (child demand vector, child capacities or own budget moved).
  std::vector<char> division_dirty_;  ///< by NodeId
  /// Internal nodes whose hard-limit roll-up must re-run (a descendant's
  /// leaf limit or active flag moved).
  std::vector<char> limit_dirty_;  ///< by NodeId
  /// leaf_limit() memo, keyed on the thermal state version and (for
  /// fault-injected runs) the server's sensor version.
  std::vector<double> cached_leaf_limit_;             ///< by NodeId
  std::vector<std::uint64_t> cached_limit_version_;   ///< by NodeId
  std::vector<std::uint64_t> cached_sensor_version_;  ///< by server index

  /// Consolidation-candidate index: one entry per server, refreshed only when
  /// the server's subtree epoch moved (or the fleet envelope shifted), plus
  /// the utilization-ordered candidate list reused verbatim across ΔA passes
  /// while no entry changed.
  struct ConsolEntry {
    bool eligible = false;
    double utilization = 0.0;
    double envelope = 0.0;  ///< server's own sustainable dynamic power

    bool operator==(const ConsolEntry&) const = default;
  };
  /// Judge server `i` as a consolidation candidate against `fleet_envelope`
  /// (used under the thermal utilization reference).  The index refresh and
  /// its shadow check both derive the entry here.
  [[nodiscard]] ConsolEntry judge_consol_entry(std::size_t i,
                                               double fleet_envelope) const;
  std::vector<ConsolEntry> consol_entry_;             ///< by server index
  std::vector<std::uint64_t> consol_entry_epoch_;     ///< by server index
  std::vector<double> server_envelope_;               ///< by server index
  std::vector<std::uint64_t> server_envelope_version_;///< by server index
  double cached_fleet_envelope_ =
      -1.0;  ///< impossible (envelopes are >= 0) => first pass recomputes
  std::vector<std::uint32_t> consol_order_;  ///< sorted candidate indices
  bool consol_order_valid_ = false;
  /// Cached dry-run failures: "this candidate could not be fully drained at
  /// this scope while the scope's state was at this epoch (with these items)".
  /// Valid on every pass, including while migrations are in flight: the
  /// transient absorbed/reserved watts a dry run reads are epoch-stamped at
  /// every mutation (migration start, landing, release) *and* at their
  /// per-tick reset (tick() touches the previous tick's targets before
  /// zeroing absorbed_w_), so an unchanged scope epoch proves the verdict's
  /// inputs are bitwise unchanged.
  struct ConsolFail {
    std::uint64_t epoch = 0;
    std::uint64_t item_sig = 0;
    bool valid = false;

    /// Whether this verdict answers a dry run at `scope_epoch` with items
    /// fingerprinted `sig`.
    [[nodiscard]] bool holds(std::uint64_t scope_epoch,
                             std::uint64_t sig) const {
      return valid && epoch == scope_epoch && item_sig == sig;
    }
  };
  std::vector<ConsolFail> consol_fail_local_;  ///< by server index
  std::vector<ConsolFail> consol_fail_root_;   ///< by server index

  /// Single-entry pack_and_apply memo for the all-unplaced case: when the
  /// same items meet the same bins as last time and nothing was placed then,
  /// nothing will be placed now (FFDLR is deterministic), so the pack call is
  /// skipped.  Only no-assignment results are reusable — an applied
  /// assignment mutates the very state the fingerprint hashes.
  struct PackMemo {
    std::uint64_t items_sig = 0;
    std::uint64_t bins_sig = 0;
    std::size_t item_count = 0;
    /// The unplaced-index order the packer produced (item order matters to
    /// later escalation passes, so the memo must reproduce it exactly).
    std::vector<std::size_t> unplaced;
    bool valid = false;
  } pack_memo_;

  /// Division scratch (child demand/capacity vectors, the kernel's buffers
  /// and its result, reused per node so a division allocates nothing).
  std::vector<Watts> alloc_demands_scratch_;
  std::vector<Watts> alloc_caps_scratch_;
  AllocationScratch alloc_scratch_;
  AllocationResult alloc_result_;
  /// The tick whose leaf limits update_hard_limits last refreshed (-1 =
  /// refresh on the next call).
  long leaf_limits_tick_ = -1;

  /// Instruments resolved once when the bus is attached (name lookups are a
  /// hash probe each; the skip paths fire per node per tick).
  obs::Counter* c_budget_directives_ = nullptr;
  obs::Counter* c_divisions_memoized_ = nullptr;
  obs::Counter* c_packings_reused_ = nullptr;
  obs::Counter* c_shadow_checks_ = nullptr;
  obs::Counter* c_shadow_mismatches_ = nullptr;
  /// Batched-consolidation effectiveness: per-ΔA candidates that passed the
  /// skip checks, candidates fully drained (plan applied or empty server
  /// slept), verdicts served whole by the fleet-scope failure cache, fleet
  /// verdicts produced by the capacity-index fast path, and point mutations
  /// (erase/insert) applied to that index.
  obs::Counter* c_consol_candidates_ = nullptr;
  obs::Counter* c_consol_drained_ = nullptr;
  obs::Counter* c_consol_cache_served_ = nullptr;
  obs::Counter* c_consol_batched_ = nullptr;
  obs::Counter* c_index_point_updates_ = nullptr;

  /// Sub-phase wall-clock timers (controller.phase.*; DESIGN.md §9).  Timers
  /// rather than counters or histograms: wall time is not a decision, and
  /// decision fingerprints hash every control.* / controller.* counter,
  /// gauge and histogram.  Registered by the first tick on a bus rather than
  /// when the bus is attached, so constructing a controller allocates
  /// nothing for them.
  void resolve_phase_timers();
  obs::EventBus* phase_timers_bus_ = nullptr;
  obs::Timer* t_reports_ = nullptr;
  obs::Timer* t_supply_ = nullptr;
  obs::Timer* t_thermal_clamp_ = nullptr;
  obs::Timer* t_demand_local_ = nullptr;
  obs::Timer* t_demand_escalation_ = nullptr;
  obs::Timer* t_demand_wakes_ = nullptr;
  obs::Timer* t_consolidation_ = nullptr;
  obs::Timer* t_revival_ = nullptr;

  /// Fault instruments, resolved only when a link-fault model or the stale
  /// machinery is active so fault-free runs register no extra counters.
  void resolve_fault_instruments();
  obs::Counter* c_directive_losses_ = nullptr;
  obs::Counter* c_directive_retries_ = nullptr;
  obs::Counter* c_directives_abandoned_ = nullptr;
  obs::Counter* c_stale_timeouts_ = nullptr;
  obs::Counter* c_fallback_budgets_ = nullptr;

  /// Link-fault model (not owned; null in fault-free runs).
  const fault::LinkFaultModel* link_faults_ = nullptr;
  /// Directives lost in transit, awaiting retry with exponential backoff.
  struct PendingDirective {
    NodeId node = hier::kNoNode;
    Watts budget{0.0};
    int attempts = 0;      ///< failed sends so far
    long next_retry = 0;   ///< earliest controller tick to try again
  };
  std::vector<PendingDirective> pending_directives_;

  Cluster& cluster_;
  ControllerConfig config_;
  ControllerStats stats_;
  long tick_ = 0;
  Watts last_supply_{0.0};
  std::vector<bool> budget_reduced_;
  /// The nodes whose budget_reduced_ flag is set, so the supply pass clears
  /// them without scanning the tree.
  std::vector<NodeId> reduced_nodes_;
  /// Servers whose budget this tick's thermal/circuit clamp reduced; drives
  /// the kThermal reason code on the migrations the clamp forces.
  std::vector<char> thermally_clamped_;
  Watts root_unallocated_{0.0};
  std::vector<MigrationRecord> migrations_this_tick_;
  /// Demand already accepted by each server during the current tick (so
  /// successive packing passes see shrunken surpluses).
  std::vector<double> absorbed_w_;
  /// Demand migrated *off* each server during the current tick (credited
  /// against its observed deficit before shedding).
  std::vector<double> migrated_from_w_;

  /// Latency-mode state: transfers in progress.
  struct InFlight {
    workload::AppId app;
    NodeId source;
    NodeId target;
    long completes_at;
    Watts demand;
  };
  std::vector<InFlight> in_flight_;
  std::unordered_set<workload::AppId> apps_in_flight_;
  /// Demand reserved at targets by inbound transfers (persists across ticks).
  std::vector<double> reserved_in_w_;
  /// Demand leaving each source via in-flight transfers (credited against
  /// its deficit so the same load is not shed or re-planned while moving).
  std::vector<double> outbound_in_flight_w_;
  /// Servers that received a migration this tick (never consolidation
  /// sources in the same tick — avoids intra-tick ping-pong).
  std::unordered_set<NodeId> targets_this_tick_;
  std::function<void(const MigrationRecord&)> sink_;
  obs::EventBus* bus_ = nullptr;

  /// Cached topology (see ensure_topology_cache).
  std::size_t cache_tree_size_ = 0;
  /// Internal (non-leaf) nodes bottom-up and top-down: the hard-limit
  /// roll-up and the division walk never visit leaves.
  std::vector<NodeId> internal_bottom_up_;
  std::vector<NodeId> internal_top_down_;
  /// Scopes demand escalation climbs through after the local pass: internal
  /// nodes bottom-up, group parents skipped except the root.
  std::vector<NodeId> escalation_scopes_;
  /// Internal nodes with >= 1 server child, in bottom-up order (the "level-1
  /// groups" demand adaptation plans over).
  std::vector<NodeId> group_parents_;
  std::vector<char> is_group_parent_;  ///< by NodeId
  /// Direct server children per node, in child order.
  std::vector<std::vector<NodeId>> server_children_;
  // (Per-node server-descendant lists moved into the cluster's ServerArena:
  // subtree spans over creation order — same membership, same iteration
  // order as the old `subtree_servers_` vectors, O(1) storage per node.)

  /// One packing problem's buffers: the items, the bins and each bin's
  /// server.  The serial paths reuse `pack_scratch_` (cleared per use);
  /// consolidation's parallel dry runs give each worker its own.
  struct PackBuffers {
    std::vector<binpack::Item> items;
    std::vector<binpack::Bin> bins;
    std::vector<NodeId> bin_nodes;
  };
  /// A placement plan: (item index, target server) in pack()'s emission
  /// order.
  using Assignments = std::vector<std::pair<std::size_t, NodeId>>;

  /// Fill `out` with one pack item per plan item (key = index, size).
  static void fill_pack_items(const std::vector<PlanItem>& items,
                              std::vector<binpack::Item>& out);
  /// Append `t` as a bin if its target capacity is positive.
  void add_bin(NodeId t, PackBuffers& buf) const;

  // ---- consolidation candidate preparation --------------------------------
  // Shared by the parallel local dry runs and the serial drain; const and
  // buffer-parameterized so workers can call them concurrently.

  /// Whether candidate server `ci` must sit this pass out: it received a
  /// migration this tick, or transfers in either direction touch it.
  [[nodiscard]] bool consol_skip(std::size_t ci) const;
  /// Fingerprint of what draining server `ci` would move (each hosted app's
  /// identity and live demand); also fills `items` with the drain plan's
  /// items when non-null.
  std::uint64_t consol_items(std::size_t ci,
                             std::vector<PlanItem>* items) const;
  /// Dry-run draining `items` off `exclude` into the eligible servers under
  /// `scope`.  The plan lands in `assign`; returns whether all items placed.
  bool scope_dry_run(NodeId scope, NodeId exclude,
                     const std::vector<PlanItem>& items, PackBuffers& buf,
                     Assignments& assign) const;

  PackBuffers pack_scratch_;
  std::vector<NodeId> target_scratch_;
  std::vector<const workload::Application*> victim_scratch_;
  std::vector<workload::Application*> shed_scratch_;

  // ---- the capacity index (escalation and consolidation) -----------------
  // One (capacity, slot)-ordered index over every active server with target
  // capacity, whose order is FFDLR's real-bin order for every scope (see
  // CapacityIndex).  Escalation above the rack and consolidation at fleet
  // scope query it instead of materializing bins per call.  Built lazily,
  // at most once per phase (demand escalation after the local pass;
  // consolidation), point-updated by apply_migration and sleeps, and
  // invalidated whenever a division or a wake runs.  Within a phase every
  // other input of target_capacity() and eligible_target() — budgets,
  // reported demands, budget_reduced_ flags — is frozen.

  /// Build the index if the phase has not: one top-down pass records each
  /// server's deepest banned ancestor, then every active server with
  /// capacity is loaded.
  void ensure_capacity_index();
  /// Whether the index answers packing problems at `scope`: it replays
  /// FFDLR only, in incremental mode, over a contiguous slot span.
  [[nodiscard]] bool index_serves(NodeId scope) const;
  /// The index query for `scope`'s bins, excluding server `exclude`.
  [[nodiscard]] CapacityIndex::Scope index_scope(NodeId scope,
                                                 NodeId exclude) const;
  /// Fingerprint of `q`'s bins in enumeration order, equal to the one the
  /// materialized bins would hash (the pack memo compares them).
  [[nodiscard]] std::uint64_t index_bins_sig(
      const CapacityIndex::Scope& q) const;
  /// Re-key server `t` at its current target capacity (no-op while the
  /// index is unbuilt), counting mutations of fleet-scope (root-eligible)
  /// entries into fleet_index_updates_.
  void reindex(NodeId t);
  /// Fill `buf` with every active server under `scope` (but `exclude`) that
  /// is eligible at `scope` and has capacity: the materialized bins.
  void scope_bins(NodeId scope, NodeId exclude, PackBuffers& buf) const;

  CapacityIndex cap_index_;
  bool cap_index_built_ = false;
  /// Depth of the deepest banned node on each internal node's root path.
  std::vector<int> deepest_ban_;  ///< by NodeId
  CapacityIndex::Plan index_plan_scratch_;
  std::vector<std::size_t> index_unplaced_scratch_;
  /// Point mutations of fleet-scope entries since consolidate() began (what
  /// control.index_point_updates reports).
  std::uint64_t fleet_index_updates_ = 0;
  /// A solved plan as (item, target) pairs in pack()'s emission order.
  Assignments plan_scratch_;
  Assignments fast_assign_scratch_;
  /// Shadow mode's full dry-run plan, compared against the one in use.
  Assignments shadow_assign_scratch_;
  /// Sleeping servers as (hard limit, NodeId), heap-ordered for waking.
  std::vector<std::pair<double, NodeId>> sleep_pool_scratch_;

  /// Per-candidate drain plan, one slot per consol_order_ position, reused
  /// across ΔA passes (inner vectors keep their capacity — this is also where
  /// the per-candidate PlanItem list lives, replacing a per-candidate heap
  /// allocation).  The parallel precompute phase fills slots from worker
  /// threads (disjoint writes); the serial drain consumes a slot only if the
  /// scope's epoch has not moved since the precompute, which proves a serial
  /// recompute would reproduce it bitwise.
  struct ConsolPlan {
    std::vector<PlanItem> items;
    Assignments assign;
    std::uint64_t sig = 0;
    std::uint64_t scope_epoch = 0;
    bool placed_all = false;
    bool computed = false;
  };
  std::vector<ConsolPlan> consol_plan_;

  /// Worker pool for the parallel dry-run phase (not owned; may be null).
  util::ThreadPool* pool_ = nullptr;
};

}  // namespace willow::core
