// Willow benchmark driver: runs one workload for a time budget and prints
// one JSON line with the checks and metrics.
//
//   willow_perfbench --workload churn_10k --seed 1 --seconds 20 --trace 0
//
// --trace 0 repeats construct + Simulation::run() and reports the
// end-to-end metrics (medians over repetitions).  --trace 1 repeats an
// untraced run and a traced run of the same seed, checks that both make the
// same decisions, and reports the per-layer metrics.  --tiny shrinks the
// fleet for the self-test; --spans PATH writes the last traced run's spans
// as JSON lines.  Each mode repeats until --seconds have passed, at least
// three times.
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "runs.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Repetitions a run makes even when --seconds is already spent, so every
/// median has at least three samples.
constexpr int kMinReps = 3;
/// Constructions timed per repetition for setup_s.
constexpr int kSetupSamples = 3;

struct Args {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why
            << "\nusage: willow_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--spans PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--spans") {
        a.spans_path = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds >= 0.0)) usage("--seconds must be >= 0");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double counter(const willow::obs::MetricsSnapshot& m, const std::string& name) {
  return static_cast<double>(m.counter_or_zero(name));
}

double timer_total(const willow::obs::MetricsSnapshot& m,
                   const std::string& name) {
  for (const auto& t : m.timers) {
    if (t.name == name) return t.total_seconds;
  }
  return 0.0;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Per-layer timings of one traced run, from its spans.
struct LayerTimes {
  std::vector<double> tick_ms;             ///< measured ticks
  std::vector<double> core_ms;             ///< measured ticks
  std::vector<double> core_ms_by_class[3]; ///< dD, dS, dA
  double self_ms = 0.0;                    ///< summed over measured ticks
  std::map<std::string, double> child_ms;  ///< summed over measured ticks
  std::map<std::string, double> all_ms;    ///< summed over every tick
  long measured = 0;
};

LayerTimes layer_times(const TracedRep& rep) {
  LayerTimes lt;
  const auto& spans = rep.tracer.spans();
  std::vector<double> children_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    lt.all_ms[s.name] += s.ms();
    if (s.parent >= 0) {
      children_ms[static_cast<std::size_t>(s.parent)] += s.ms();
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.tick < rep.warmup_ticks) continue;
    if (s.parent < 0) {
      lt.tick_ms.push_back(s.ms());
      lt.self_ms += s.ms() - children_ms[i];
      ++lt.measured;
      continue;
    }
    lt.child_ms[s.name] += s.ms();
    if (std::string(s.name) == "core.tick") {
      lt.core_ms.push_back(s.ms());
      lt.core_ms_by_class[std::clamp(s.tag, 0, 2)].push_back(s.ms());
    }
  }
  return lt;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void print_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

/// Repeats while the time budget lasts, and at least kMinReps times.
class RepeatUntil {
 public:
  explicit RepeatUntil(double seconds)
      : start_(wall_seconds()), seconds_(seconds) {}
  bool next() {
    if (reps_ >= kMinReps && wall_seconds() - start_ >= seconds_) return false;
    ++reps_;
    return true;
  }
  [[nodiscard]] int reps() const { return reps_; }
  [[nodiscard]] double start() const { return start_; }

 private:
  double start_;
  double seconds_;
  int reps_ = 0;
};

/// The first repetition's decision fingerprint; every later one must match.
class SameDecisions {
 public:
  explicit SameDecisions(Checks& checks) : checks_(checks) {}
  void check(const std::string& fp) {
    if (first_.empty()) {
      first_ = fp;
      return;
    }
    checks_.expect(fp == first_,
                   "untraced run: decision fingerprint differs from the first "
                   "repetition");
  }
  [[nodiscard]] const std::string& first() const { return first_; }

 private:
  Checks& checks_;
  std::string first_;
};

Metrics end_to_end(const willow::sim::SimConfig& cfg, RepeatUntil& repeat,
                   SameDecisions& decisions, Checks& checks) {
  std::vector<double> tps, run_s, setup_s;
  Outcome first;
  rusage first_rusage{};
  while (repeat.next()) {
    UntracedRep rep = run_untraced(cfg, checks);
    decisions.check(rep.out.fingerprint);
    tps.push_back(ratio(static_cast<double>(rep.tick_measured_count),
                        rep.tick_measured_s));
    run_s.push_back(rep.run_s);
    setup_s.push_back(rep.setup_s);
    if (repeat.reps() == 1) {
      first = std::move(rep.out);
      // The first repetition's high-water mark: later repetitions reuse
      // freed heap unevenly, so the process maximum would grow with their
      // count.
      getrusage(RUSAGE_SELF, &first_rusage);
    }
    // More set-up samples: the construction after a run released its memory
    // pays page faults that back-to-back ones do not, so one sample per
    // repetition is noisy.
    for (int i = 1; i < kSetupSamples; ++i) setup_s.push_back(time_setup(cfg));
  }
  Metrics m;
  m["ticks_per_s"] = {median(tps), "1/s"};
  m["run_s"] = {median(run_s), "s"};
  m["setup_s"] = {median(setup_s), "s"};
  m["peak_rss_mb"] = {static_cast<double>(first_rusage.ru_maxrss) / 1024.0,
                      "MB"};
  m["it_energy_kwh"] = {first.it_energy_kwh, "kWh"};
  m["sla_satisfaction"] = {first.sla_satisfaction, "fraction"};
  m["migrations_per_ktick"] = {
      ratio(first.measured_migrations * 1000.0,
            static_cast<double>(first.measured_ticks)),
      "1/ktick"};
  return m;
}

/// Per-layer counts: metric name, program counter.
constexpr std::pair<const char*, const char*> kLayerCounters[] = {
    {"core.index_point_updates", "control.index_point_updates"},
    {"core.migrations.demand", "controller.demand_migrations"},
    {"core.migrations.consolidation", "controller.consolidation_migrations"},
    {"core.sleeps", "controller.sleeps"},
    {"core.wakes", "controller.wakes"},
    {"core.degrades", "controller.degrades"},
    {"core.drops", "controller.drops"},
    {"hier.reports", "control.demand_reports"},
    {"hier.directives", "control.budget_directives"},
    {"hier.subtrees_memoized", "control.supply_subtrees_memoized"},
    {"binpack.pack_calls", "controller.pack_calls"},
    {"binpack.packings_reused", "control.packings_reused"},
    {"fault.link_drops_up", "fault.link_drops_up"},
    {"fault.directive_losses", "fault.directive_losses"},
    {"fault.directive_retries", "fault.directive_retries"},
};

/// Per-tick span time: metric name, span name.
constexpr std::pair<const char*, const char*> kLayerSpans[] = {
    {"workload.demand_ms_per_tick", "workload.demand"},
    {"workload.churn_ms_per_tick", "workload.churn"},
    {"core.level_balance_ms_per_tick", "core.level_balance"},
    {"thermal.step_ms_per_tick", "thermal.step"},
    {"net.fabric_ms_per_tick", "net.fabric"},
};

/// Whole-run span total against the untraced run's own phase timer.
struct SpanGap {
  const char* metric;
  const char* span;
  const char* timer;
};
constexpr SpanGap kSpanGaps[] = {
    {"obs.span_gap.demand", "workload.demand", "sim.phase.demand"},
    {"obs.span_gap.core", "core.tick", "sim.phase.controller"},
    {"obs.span_gap.thermal", "thermal.step", "sim.phase.thermal"},
};

Metrics per_layer(const willow::sim::SimConfig& cfg, RepeatUntil& repeat,
                  SameDecisions& decisions, Checks& checks,
                  const std::string& spans_path) {
  std::vector<LayerTimes> layers;
  std::vector<double> overhead, cpu_per_wall;
  std::map<std::string, std::vector<double>> gaps;
  willow::obs::MetricsSnapshot counts;
  std::size_t spans_recorded = 0;
  double quick = 0.0;
  while (repeat.next()) {
    const UntracedRep plain = run_untraced(cfg, checks);
    decisions.check(plain.out.fingerprint);
    const TracedRep traced = run_traced(cfg, checks);
    const bool equal = traced.out.fingerprint == plain.out.fingerprint;
    checks.expect(equal,
                  "traced run: decision fingerprint differs from the "
                  "untraced run of the same seed");
    cpu_per_wall.push_back(ratio(plain.run_cpu_s, plain.run_s));
    if (!equal) continue;  // a mismatch voids this repetition's layers
    LayerTimes lt = layer_times(traced);
    double traced_tick_s = 0.0;
    for (double ms : lt.tick_ms) traced_tick_s += ms * 1e-3;
    overhead.push_back(ratio(traced_tick_s, plain.tick_measured_s) - 1.0);
    for (const SpanGap& g : kSpanGaps) {
      gaps[g.metric].push_back(ratio(lt.all_ms[g.span] * 1e-3,
                                     timer_total(plain.out.metrics, g.timer)) -
                               1.0);
    }
    counts = traced.out.metrics;
    quick = static_cast<double>(traced.out.quick_remigrations);
    spans_recorded = traced.tracer.spans().size();
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      traced.tracer.write_jsonl(out);
      checks.expect(static_cast<bool>(out),
                    "could not write spans to " + spans_path);
    }
    layers.push_back(std::move(lt));
  }

  // Timings: the median over repetitions of each one's per-tick value;
  // percentiles pool every measured tick of the run.
  const auto per_rep = [&](auto f) {
    std::vector<double> v;
    for (const auto& lt : layers) v.push_back(f(lt));
    return median(std::move(v));
  };
  std::vector<double> tick_all, core_all;
  for (const auto& lt : layers) {
    tick_all.insert(tick_all.end(), lt.tick_ms.begin(), lt.tick_ms.end());
    core_all.insert(core_all.end(), lt.core_ms.begin(), lt.core_ms.end());
  }
  Metrics m;
  m["sim.tick_ms.p50"] = {percentile(tick_all, 0.50), "ms"};
  m["sim.tick_ms.p99"] = {percentile(tick_all, 0.99), "ms"};
  m["sim.tick_samples"] = {static_cast<double>(tick_all.size()), "count"};
  m["sim.self_ms_per_tick"] = {per_rep([](const LayerTimes& lt) {
                                 return ratio(
                                     lt.self_ms,
                                     static_cast<double>(lt.measured));
                               }),
                               "ms"};
  for (const auto& [name, span] : kLayerSpans) {
    m[name] = {per_rep([span = std::string(span)](const LayerTimes& lt) {
                 const auto it = lt.child_ms.find(span);
                 return ratio(it == lt.child_ms.end() ? 0.0 : it->second,
                              static_cast<double>(lt.measured));
               }),
               "ms"};
  }
  m["core.tick_ms.p50"] = {percentile(core_all, 0.50), "ms"};
  m["core.tick_ms.p99"] = {percentile(core_all, 0.99), "ms"};
  const char* class_names[3] = {"core.tick_ms.dD", "core.tick_ms.dS",
                                "core.tick_ms.dA"};
  for (int c = 0; c < 3; ++c) {
    m[class_names[c]] = {per_rep([c](const LayerTimes& lt) {
                           return mean(lt.core_ms_by_class[c]);
                         }),
                         "ms"};
  }

  // Counts: exact whole-run values, the same on every repetition.
  for (const auto& [name, source] : kLayerCounters) {
    m[name] = {counter(counts, source), "count"};
  }
  m["core.quick_remigrations"] = {quick, "count"};
  const double skipped = counter(counts, "control.nodes_skipped");
  m["core.skip_ratio"] = {
      ratio(skipped, skipped + counter(counts, "control.nodes_reaggregated")),
      "fraction"};
  m["core.consol_drain_ratio"] = {
      ratio(counter(counts, "control.consol_drained"),
            counter(counts, "control.consol_candidates")),
      "fraction"};
  double items = 0.0, item_calls = 0.0;
  for (const auto& h : counts.histograms) {
    if (h.name == "controller.pack_items") {
      items = h.sum;
      item_calls = static_cast<double>(h.count);
    }
  }
  m["binpack.items_per_call"] = {ratio(items, item_calls), "items"};

  m["util.cpu_per_wall"] = {median(cpu_per_wall), "ratio"};
  m["obs.trace_overhead"] = {median(overhead), "ratio"};
  m["obs.events_emitted"] = {static_cast<double>(spans_recorded), "count"};
  for (const auto& [name, values] : gaps) m[name] = {median(values), "ratio"};
  return m;
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const auto cfg = workload_config(
      args.workload, args.seed, args.tiny ? Scale::kTiny : Scale::kFull);
  if (!cfg) usage("unknown workload " + args.workload);

  const double start_cpu = process_cpu_seconds();
  Checks checks;
  SameDecisions decisions(checks);
  RepeatUntil repeat(args.seconds);
  const Metrics metrics =
      args.trace == 0
          ? end_to_end(*cfg, repeat, decisions, checks)
          : per_layer(*cfg, repeat, decisions, checks, args.spans_path);
  const double cpu = process_cpu_seconds() - start_cpu;
  const double wall = wall_seconds() - repeat.start();

  std::ostream& out = std::cout;
  out.precision(17);
  out << "{\"workload\":";
  print_json_string(out, args.workload);
  out << ",\"seed\":" << args.seed << ",\"trace\":" << args.trace
      << ",\"tiny\":" << (args.tiny ? "true" : "false")
      << ",\"reps\":" << repeat.reps()
      << ",\"attempted\":" << checks.attempted()
      << ",\"failed\":" << checks.failed() << ",\"failures\":[";
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    if (i) out << ',';
    print_json_string(out, checks.failures()[i]);
  }
  out << "],\"fingerprint\":\"" << fingerprint_hash(decisions.first())
      << "\",\"wall_s\":" << wall << ",\"cpu_s\":" << cpu
      << ",\"host\":{\"hw_threads\":" << std::thread::hardware_concurrency()
      << ",\"compiler\":";
  print_json_string(out, PERFBENCH_COMPILER);
  out << ",\"build_type\":";
  print_json_string(out, PERFBENCH_BUILD_TYPE);
#ifdef __OPTIMIZE__
  out << ",\"optimized\":true";
#else
  out << ",\"optimized\":false";
#endif
  out << "},\"metrics\":{";
  bool first_metric = true;
  for (const auto& [name, m] : metrics) {
    if (!first_metric) out << ',';
    first_metric = false;
    print_json_string(out, name);
    out << ":{\"value\":" << m.value << ",\"unit\":";
    print_json_string(out, m.unit);
    out << '}';
  }
  out << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
