#include "sim/scenario_io.h"

#include <cmath>
#include <concepts>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "power/trace_io.h"

namespace willow::sim {

namespace {

using util::Seconds;
using util::Watts;

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("scenario line " + std::to_string(line) + ": " +
                           message);
}

/// The one floating-point conversion behind every numeric value.  Only
/// finite numbers pass: std::stod also reads "nan" and "inf", and NaN slips
/// through every range check (each comparison with it is false).
double parse_double(const std::string& text, int line) {
  double v = 0.0;
  try {
    std::size_t used = 0;
    v = std::stod(text, &used);
    if (used != text.size()) fail(line, "trailing junk in number '" + text + "'");
  } catch (const std::logic_error&) {
    fail(line, "expected a number, got '" + text + "'");
  }
  if (!std::isfinite(v)) fail(line, "expected a finite number, got '" + text + "'");
  return v;
}

/// The one integer conversion behind every integer key: the number must be
/// whole and inside T's range, checked on the double before the cast (casting
/// an out-of-range double is undefined behaviour, and a cast through a wider
/// type wraps or truncates).
template <std::integral T>
T parse_int(const std::string& text, int line) {
  const double v = parse_double(text, line);
  if (v != std::trunc(v)) fail(line, "expected an integer, got '" + text + "'");
  // [min, 2^digits) is exact in double for every integer type.
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(v >= lo && v < hi)) {
    fail(line, "integer '" + text + "' out of range [" +
                   std::to_string(std::numeric_limits<T>::min()) + ", " +
                   std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return static_cast<T>(v);
}

bool parse_bool(const std::string& text, int line) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  fail(line, "expected a boolean, got '" + text + "'");
}

std::vector<std::string> split_words(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> words;
  std::string w;
  while (is >> w) words.push_back(w);
  return words;
}

std::shared_ptr<const power::SupplyProfile> parse_supply(
    const std::string& value, int line) {
  const auto words = split_words(value);
  if (words.empty()) fail(line, "empty supply specification");
  const std::string& kind = words[0];
  auto need = [&](std::size_t n) {
    if (words.size() != n + 1) {
      fail(line, "supply '" + kind + "' takes " + std::to_string(n) +
                     " arguments");
    }
  };
  if (kind == "constant") {
    need(1);
    return std::make_shared<power::ConstantSupply>(
        Watts{parse_double(words[1], line)});
  }
  if (kind == "steps") {
    if (words.size() < 2) fail(line, "steps supply needs at least one level");
    std::vector<Watts> levels;
    for (std::size_t i = 1; i < words.size(); ++i) {
      levels.emplace_back(parse_double(words[i], line));
    }
    return std::make_shared<power::SteppedSupply>(std::move(levels),
                                                  Seconds{1.0});
  }
  if (kind == "sine") {
    need(3);
    return std::make_shared<power::SinusoidSupply>(
        Watts{parse_double(words[1], line)},
        Watts{parse_double(words[2], line)},
        Seconds{parse_double(words[3], line)});
  }
  if (kind == "solar") {
    need(5);
    return std::make_shared<power::SolarSupply>(
        Watts{parse_double(words[1], line)},
        Watts{parse_double(words[2], line)},
        Seconds{parse_double(words[3], line)}, parse_double(words[4], line),
        parse_int<unsigned long long>(words[5], line));
  }
  if (kind == "csv") {
    need(1);
    return std::shared_ptr<const power::SupplyProfile>(
        power::load_supply_csv(words[1]).release());
  }
  if (kind == "fig15") {
    need(0);
    return std::shared_ptr<const power::SupplyProfile>(
        power::paper_fig15_trace().release());
  }
  if (kind == "fig19") {
    need(0);
    return std::shared_ptr<const power::SupplyProfile>(
        power::paper_fig19_trace().release());
  }
  fail(line, "unknown supply kind '" + kind + "'");
}

// constant F | diurnal base amp period [phase] | trace f1 f2 ...
std::shared_ptr<const workload::IntensityProfile> parse_intensity(
    const std::string& value, int line) {
  const auto words = split_words(value);
  if (words.empty()) fail(line, "empty intensity specification");
  if (words[0] == "constant" && words.size() == 2) {
    return std::make_shared<workload::ConstantIntensity>(
        parse_double(words[1], line));
  }
  if (words[0] == "diurnal" && (words.size() == 4 || words.size() == 5)) {
    return std::make_shared<workload::DiurnalIntensity>(
        parse_double(words[1], line), parse_double(words[2], line),
        Seconds{parse_double(words[3], line)},
        Seconds{words.size() == 5 ? parse_double(words[4], line) : 0.0});
  }
  if (words[0] == "trace" && words.size() >= 2) {
    std::vector<double> factors;
    for (std::size_t i = 1; i < words.size(); ++i) {
      factors.push_back(parse_double(words[i], line));
    }
    return std::make_shared<workload::TraceIntensity>(std::move(factors),
                                                      Seconds{1.0});
  }
  fail(line, "intensity must be 'constant F', 'diurnal base amp period"
             " [phase]' or 'trace f...'");
}

binpack::Algorithm parse_packing(const std::string& text, int line) {
  if (text == "ffdlr") return binpack::Algorithm::kFfdlr;
  if (text == "ff") return binpack::Algorithm::kFirstFit;
  if (text == "ffd") return binpack::Algorithm::kFirstFitDecreasing;
  if (text == "bfd") return binpack::Algorithm::kBestFitDecreasing;
  if (text == "wfd") return binpack::Algorithm::kWorstFitDecreasing;
  fail(line, "unknown packing algorithm '" + text + "'");
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// A key's setter writes one field; the field's type picks the conversion.
void assign(double& field, const std::string& text, int line) {
  field = parse_double(text, line);
}
void assign(bool& field, const std::string& text, int line) {
  field = parse_bool(text, line);
}
template <std::integral T>
  requires(!std::same_as<T, bool>)
void assign(T& field, const std::string& text, int line) {
  field = parse_int<T>(text, line);
}
template <typename Tag>
void assign(util::Quantity<Tag>& field, const std::string& text, int line) {
  field = util::Quantity<Tag>{parse_double(text, line)};
}

void assign_probability(double& field, const std::string& text, int line) {
  field = parse_double(text, line);
  if (!(field >= 0.0 && field <= 1.0)) {
    fail(line, "expected a probability in [0,1], got '" + text + "'");
  }
}

const ScenarioKeyDoc* find_key(const std::string& key) {
  for (const auto& doc : scenario_keys()) {
    if (doc.key == key) return &doc;
  }
  return nullptr;
}

}  // namespace

struct ScenarioDraft {
  SimConfig cfg;
  // Hot-zone directives are applied after layout keys are known.
  std::size_t hot_zone_servers = 0;
  double hot_ambient_c = 40.0;
};

SimConfig parse_scenario(std::istream& in) {
  ScenarioDraft draft;
  SimConfig& cfg = draft.cfg;
  // Default to the paper's constants; scenario keys can override them.
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.power_model =
      power::ServerPowerModel::paper_simulation();

  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string text = trim(raw);
    if (text.empty()) continue;
    const auto eq = text.find('=');
    if (eq == std::string::npos) fail(line, "expected 'key = value'");
    const std::string key = trim(text.substr(0, eq));
    const std::string value = trim(text.substr(eq + 1));
    if (key.empty() || value.empty()) fail(line, "empty key or value");
    const ScenarioKeyDoc* doc = find_key(key);
    if (doc == nullptr) fail(line, "unknown key '" + key + "'");
    doc->set(draft, value, line);
  }

  try {
    cfg.controller.validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("scenario: ") + e.what());
  }
  if (const auto errors = cfg.validate(); !errors.empty()) {
    std::string msg = "scenario: invalid configuration:";
    for (const auto& e : errors) msg += "\n  - " + e;
    throw std::runtime_error(msg);
  }
  // After validation: the per-server override vector is sized by the layout,
  // which must be known to fit first.
  if (draft.hot_zone_servers > 0) {
    const auto total = cfg.datacenter.layout.total_servers();
    if (draft.hot_zone_servers > total) {
      throw std::runtime_error("scenario: hot_zone_servers exceeds fleet size");
    }
    cfg.datacenter.ambient_overrides.assign(
        total, cfg.datacenter.server.thermal.ambient);
    for (std::size_t i = total - draft.hot_zone_servers; i < total; ++i) {
      cfg.datacenter.ambient_overrides[i] = util::Celsius{draft.hot_ambient_c};
    }
  }
  return std::move(cfg);
}

SimConfig load_scenario_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open scenario file: " + path);
  return parse_scenario(f);
}

const std::vector<ScenarioKeyDoc>& scenario_keys() {
  // Samples are chosen so concatenating every `key = sample` line yields one
  // valid scenario (scenario_keys_roundtrip_test feeds exactly that to
  // parse_scenario).  scripts/check_docs_drift.sh compares this key set with
  // the table in docs/scenario_format.md in both directions.
  using D = ScenarioDraft;
  using V = const std::string&;
  static const std::vector<ScenarioKeyDoc> kKeys = {
      {"schema_version", "2", "optional dialect stamp (reject-if-newer)",
       [](D&, V v, int n) {
         const long version = parse_int<long>(v, n);
         if (version < 1 || version > kScenarioSchemaVersion) {
           fail(n, "unsupported schema_version " + std::to_string(version) +
                       " (this build reads versions 1.." +
                       std::to_string(kScenarioSchemaVersion) + ")");
         }
       }},
      {"utilization", "0.7",
       "offered load vs the thermally sustainable envelope",
       [](D& d, V v, int n) {
         assign(d.cfg.target_utilization, v, n);
         if (!(d.cfg.target_utilization >= 0.0 &&
               d.cfg.target_utilization <= 1.5)) {
           fail(n, "utilization out of range");
         }
       }},
      {"seed", "11", "RNG seed (workload build + demand draws)",
       [](D& d, V v, int n) { assign(d.cfg.seed, v, n); }},
      {"warmup_ticks", "10", "ticks ignored before recording",
       [](D& d, V v, int n) { assign(d.cfg.warmup_ticks, v, n); }},
      {"measure_ticks", "120", "ticks recorded",
       [](D& d, V v, int n) { assign(d.cfg.measure_ticks, v, n); }},
      {"zones", "2", "hierarchy shape: datacenter -> zones -> racks",
       [](D& d, V v, int n) { assign(d.cfg.datacenter.layout.zones, v, n); }},
      {"racks_per_zone", "3", "racks per zone",
       [](D& d, V v, int n) {
         assign(d.cfg.datacenter.layout.racks_per_zone, v, n);
       }},
      {"servers_per_rack", "3", "servers per rack",
       [](D& d, V v, int n) {
         assign(d.cfg.datacenter.layout.servers_per_rack, v, n);
       }},
      {"smoothing_alpha", "0.4", "Eq. 4 EWMA weight at every PMU",
       [](D& d, V v, int n) {
         assign(d.cfg.datacenter.smoothing_alpha, v, n);
       }},
      {"thermal_c1", "0.08", "RC heating coefficient (degC per W per period)",
       [](D& d, V v, int n) {
         assign(d.cfg.datacenter.server.thermal.c1, v, n);
       }},
      {"thermal_c2", "0.05", "RC cooling rate (1/period)",
       [](D& d, V v, int n) {
         assign(d.cfg.datacenter.server.thermal.c2, v, n);
       }},
      {"ambient_c", "25", "baseline ambient temperature",
       [](D& d, V v, int n) {
         assign(d.cfg.datacenter.server.thermal.ambient, v, n);
       }},
      {"thermal_limit_c", "60", "hard thermal ceiling",
       [](D& d, V v, int n) {
         assign(d.cfg.datacenter.server.thermal.limit, v, n);
       }},
      {"nameplate_w", "450", "electrical rating per server",
       [](D& d, V v, int n) {
         assign(d.cfg.datacenter.server.thermal.nameplate, v, n);
       }},
      {"hot_zone_servers", "4", "last N servers get the hot ambient",
       [](D& d, V v, int n) { assign(d.hot_zone_servers, v, n); }},
      {"hot_ambient_c", "40", "hot-zone ambient temperature",
       [](D& d, V v, int n) { assign(d.hot_ambient_c, v, n); }},
      {"margin_w", "1.5", "P_min post-migration surplus floor",
       [](D& d, V v, int n) { assign(d.cfg.controller.margin, v, n); }},
      {"migration_cost_w", "0.5", "temporary demand per migration endpoint",
       [](D& d, V v, int n) { assign(d.cfg.controller.migration_cost, v, n); }},
      {"eta1", "3", "supply-adaptation period multiplier (DeltaS)",
       [](D& d, V v, int n) { assign(d.cfg.controller.eta1, v, n); }},
      {"eta2", "9", "consolidation period multiplier (DeltaA)",
       [](D& d, V v, int n) { assign(d.cfg.controller.eta2, v, n); }},
      {"consolidation_threshold", "0.5",
       "utilization below which servers drain",
       [](D& d, V v, int n) {
         assign(d.cfg.controller.consolidation_threshold, v, n);
       }},
      {"packing", "ffdlr", "ffdlr | ff | ffd | bfd | wfd",
       [](D& d, V v, int n) {
         d.cfg.controller.packing = parse_packing(v, n);
       }},
      {"allocation", "demand", "demand | capacity proportional division",
       [](D& d, V v, int n) {
         if (v == "demand") {
           d.cfg.controller.allocation =
               core::AllocationPolicy::kProportionalToDemand;
         } else if (v == "capacity") {
           d.cfg.controller.allocation =
               core::AllocationPolicy::kProportionalToCapacity;
         } else {
           fail(n, "allocation must be 'demand' or 'capacity'");
         }
       }},
      {"prefer_local", "true", "local-first migration planning",
       [](D& d, V v, int n) { assign(d.cfg.controller.prefer_local, v, n); }},
      {"enforce_unidirectional", "true",
       "no migrations into reduced, deficient subtrees",
       [](D& d, V v, int n) {
         assign(d.cfg.controller.enforce_unidirectional, v, n);
       }},
      {"shedding", "degrade", "drop | degrade (degrade-then-drop)",
       [](D& d, V v, int n) {
         if (v == "drop") {
           d.cfg.controller.shedding = core::SheddingPolicy::kDropWhole;
         } else if (v == "degrade") {
           d.cfg.controller.shedding = core::SheddingPolicy::kDegradeThenDrop;
         } else {
           fail(n, "shedding must be 'drop' or 'degrade'");
         }
       }},
      {"degraded_service_level", "0.5", "service floor under degrade",
       [](D& d, V v, int n) {
         assign(d.cfg.controller.degraded_service_level, v, n);
       }},
      {"priority_levels", "3", "shedding priority classes, assigned randomly",
       [](D& d, V v, int n) { assign(d.cfg.mix.priority_levels, v, n); }},
      {"demand_quantum_w", "1", "Poisson quantum (variance knob)",
       [](D& d, V v, int n) { assign(d.cfg.demand_quantum, v, n); }},
      {"ipc_chain_fraction", "0.0",
       "fraction of each server's apps wired into an IPC chain",
       [](D& d, V v, int n) { assign(d.cfg.ipc_chain_fraction, v, n); }},
      {"ipc_flow_units", "0.25", "traffic units per IPC flow",
       [](D& d, V v, int n) { assign(d.cfg.ipc_flow_units, v, n); }},
      {"supply", "sine 420 120 48",
       "constant W | steps w... | sine base amp period | solar floor peak "
       "day cloud seed | csv path | fig15 | fig19",
       [](D& d, V v, int n) { d.cfg.supply = parse_supply(v, n); }},
      {"intensity", "constant 1.0",
       "constant F | diurnal base amp period [phase] | trace f...",
       [](D& d, V v, int n) { d.cfg.intensity = parse_intensity(v, n); }},
      {"sla_inflation", "5", "enable the QoS tracker (M/M/1 inflation SLA)",
       [](D& d, V v, int n) { assign(d.cfg.sla_inflation, v, n); }},
      {"report_loss_probability", "0.1",
       "legacy fault knob: lost demand reports per server-tick",
       [](D& d, V v, int n) {
         assign_probability(d.cfg.report_loss_probability, v, n);
       }},
      {"churn_probability", "0.05",
       "per-server chance per tick of one app departing + one arriving",
       [](D& d, V v, int n) {
         assign_probability(d.cfg.churn_probability, v, n);
       }},
      {"incremental_control", "true",
       "change-driven control plane (identical trace to full recompute)",
       [](D& d, V v, int n) { assign(d.cfg.controller.incremental, v, n); }},
      {"shadow_diff", "false",
       "re-derive every incremental skip; abort on bitwise divergence",
       [](D& d, V v, int n) { assign(d.cfg.controller.shadow_diff, v, n); }},
      {"report_deadband_w", "0.25",
       "min demand movement before a node re-reports",
       [](D& d, V v, int n) {
         assign(d.cfg.controller.report_deadband, v, n);
       }},
      {"threads", "1",
       "tick-engine workers (0 = hw concurrency, 1 = serial; bit-identical)",
       [](D& d, V v, int n) { assign(d.cfg.threads, v, n); }},
      {"migration_periods_per_gib", "0.5",
       "VM transfer latency (0 = instantaneous)",
       [](D& d, V v, int n) {
         assign(d.cfg.controller.migration_periods_per_gib, v, n);
       }},
      {"rack_circuit_w", "500", "under-designed rack feed rating (every rack)",
       [](D& d, V v, int n) {
         d.cfg.rack_circuit_limit = Watts{parse_double(v, n)};
       }},
      {"cooling_cop", "4.0", "enable the cooling plant (records PUE)",
       [](D& d, V v, int n) {
         power::CoolingConfig cool;
         assign(cool.cop_at_reference, v, n);
         d.cfg.cooling = power::CoolingModel(cool);
       }},
      {"link_up_loss_probability", "0.05",
       "demand report lost (child retries)",
       [](D& d, V v, int n) { assign(d.cfg.faults.link.up_loss, v, n); }},
      {"link_up_delay_probability", "0.05",
       "demand report deferred to the next sweep",
       [](D& d, V v, int n) { assign(d.cfg.faults.link.up_delay, v, n); }},
      {"link_up_duplicate_probability", "0.02",
       "report delivered twice (idempotent; counted)",
       [](D& d, V v, int n) { assign(d.cfg.faults.link.up_duplicate, v, n); }},
      {"link_down_loss_probability", "0.05",
       "budget directive lost (enters the retry queue)",
       [](D& d, V v, int n) { assign(d.cfg.faults.link.down_loss, v, n); }},
      {"link_down_duplicate_probability", "0.02",
       "directive delivered twice",
       [](D& d, V v, int n) {
         assign(d.cfg.faults.link.down_duplicate, v, n);
       }},
      {"power_sensor_stuck_probability", "0.01",
       "per-tick power-sensor stuck-at onset",
       [](D& d, V v, int n) {
         assign(d.cfg.faults.power_sensor.stuck_probability, v, n);
       }},
      {"power_sensor_bias_probability", "0.01",
       "per-tick power-sensor bias onset",
       [](D& d, V v, int n) {
         assign(d.cfg.faults.power_sensor.bias_probability, v, n);
       }},
      {"power_sensor_dropout_probability", "0.01",
       "per-tick power-sensor dropout onset",
       [](D& d, V v, int n) {
         assign(d.cfg.faults.power_sensor.dropout_probability, v, n);
       }},
      {"power_sensor_bias_w", "4", "offset during a power-sensor bias episode",
       [](D& d, V v, int n) { assign(d.cfg.faults.power_sensor.bias, v, n); }},
      {"temp_sensor_stuck_probability", "0.01",
       "per-tick temperature-sensor stuck-at onset",
       [](D& d, V v, int n) {
         assign(d.cfg.faults.temp_sensor.stuck_probability, v, n);
       }},
      {"temp_sensor_bias_probability", "0.01",
       "per-tick temperature-sensor bias onset",
       [](D& d, V v, int n) {
         assign(d.cfg.faults.temp_sensor.bias_probability, v, n);
       }},
      {"temp_sensor_dropout_probability", "0.01",
       "per-tick temperature-sensor dropout onset",
       [](D& d, V v, int n) {
         assign(d.cfg.faults.temp_sensor.dropout_probability, v, n);
       }},
      {"temp_sensor_bias_c", "3",
       "offset during a temperature-sensor bias episode",
       [](D& d, V v, int n) { assign(d.cfg.faults.temp_sensor.bias, v, n); }},
      {"sensor_fault_mean_ticks", "5",
       "mean episode duration: 1 + Exp(mean - 1) ticks",
       [](D& d, V v, int n) {
         assign(d.cfg.faults.sensor_fault_mean_ticks, v, n);
       }},
      {"crash_probability", "0.002",
       "per-server, per-tick fail-stop crash onset",
       [](D& d, V v, int n) { assign(d.cfg.faults.crash_probability, v, n); }},
      {"crash_down_ticks", "10", "outage length for probabilistic crashes",
       [](D& d, V v, int n) { assign(d.cfg.faults.crash_down_ticks, v, n); }},
      {"crash_event", "40 0 1 8",
       "scripted outage: tick first last [down_ticks]; repeatable",
       [](D& d, V v, int n) {
         const auto words = split_words(v);
         if (words.size() != 3 && words.size() != 4) {
           fail(n, "crash_event takes 'tick first last [down_ticks]'");
         }
         fault::CrashEvent ev;
         assign(ev.tick, words[0], n);
         assign(ev.first_server, words[1], n);
         assign(ev.last_server, words[2], n);
         if (words.size() == 4) assign(ev.down_ticks, words[3], n);
         d.cfg.faults.crash_events.push_back(ev);
       }},
      {"ups", "90000 220 160 0.8",
       "capacity_j max_discharge_w max_charge_w [initial_fraction]",
       [](D& d, V v, int n) {
         const auto words = split_words(v);
         if (words.size() != 3 && words.size() != 4) {
           fail(n, "ups takes 'capacity_j max_discharge_w max_charge_w"
                   " [initial_fraction]'");
         }
         try {
           d.cfg.ups.emplace(util::Joules{parse_double(words[0], n)},
                             Watts{parse_double(words[1], n)},
                             Watts{parse_double(words[2], n)},
                             words.size() == 4 ? parse_double(words[3], n)
                                               : 1.0);
         } catch (const std::invalid_argument& e) {
           fail(n, e.what());
         }
       }},
      {"ups_failure", "60 80",
       "battery failed open over ticks [first, last); repeatable",
       [](D& d, V v, int n) {
         const auto words = split_words(v);
         if (words.size() != 2) fail(n, "ups_failure takes 'first last'");
         fault::UpsFailureWindow w;
         assign(w.first_tick, words[0], n);
         assign(w.last_tick, words[1], n);
         d.cfg.faults.ups_failures.push_back(w);
       }},
      {"stale_timeout_ticks", "3",
       "degraded mode: reports stale after N silent ticks (0 = off)",
       [](D& d, V v, int n) {
         assign(d.cfg.controller.stale_timeout_ticks, v, n);
       }},
      {"stale_decay", "0.9",
       "per-tick decay of a stale leaf's synthetic demand",
       [](D& d, V v, int n) { assign(d.cfg.controller.stale_decay, v, n); }},
      {"directive_retry_limit", "3",
       "lost-directive retries with binary backoff before abandoning",
       [](D& d, V v, int n) {
         assign(d.cfg.controller.directive_retry_limit, v, n);
       }},
  };
  return kKeys;
}

bool is_scenario_key(const std::string& key) {
  return find_key(key) != nullptr;
}

}  // namespace willow::sim
