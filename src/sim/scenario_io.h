// Text scenario descriptions -> SimConfig.
//
// Scenarios are small "key = value" files so experiments can be versioned
// and rerun without recompiling (the willow_cli tool consumes them):
//
//     # a hot-zone sweep point
//     utilization = 0.6
//     zones = 2
//     racks_per_zone = 3
//     servers_per_rack = 3
//     hot_zone_servers = 4        # last N servers sit in the hot zone
//     hot_ambient_c = 40
//     margin_w = 1.5
//     supply = solar 220 350 48 0.4 11
//
// Unknown keys and malformed values fail loudly with the line number.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace willow::sim {

/// Highest scenario schema version this parser understands.  A scenario may
/// declare `schema_version = N` (ideally as its first line); files without
/// the key are treated as version 1 (the original unversioned dialect, which
/// version 2 reads unchanged — 2 only added the stamp itself).  Declaring a
/// newer version than this fails loudly rather than misreading the file.
inline constexpr long kScenarioSchemaVersion = 2;

/// Parse a scenario from a stream.  Throws std::runtime_error (with the line
/// number) on unknown keys, malformed values, out-of-range settings, or an
/// unsupported schema_version.
SimConfig parse_scenario(std::istream& in);

/// A scenario under construction: the SimConfig the keys write, plus the
/// hot-zone values parse_scenario applies after the last line.  Only the
/// key setters below touch it.
struct ScenarioDraft;

/// One entry of the scenario-key registry: a key, a valid sample right-hand
/// side, a one-line description, and the setter that writes the key's value.
/// The registry is the parser: parse_scenario looks each line's key up here
/// and calls its setter, so a key exists exactly when it has an entry.  The
/// samples are mutually consistent — a file made of every `key = sample`
/// line parses and validates (scenario_keys_roundtrip_test).  willow_cli's
/// key surface reads the same table: `--keys` prints the key/sample table,
/// `--describe` renders key, sample and help, and `--set key=value`
/// overrides are validated against it.  scripts/check_docs_drift.sh diffs
/// the key set against docs/scenario_format.md.
struct ScenarioKeyDoc {
  std::string key;
  std::string sample;
  std::string help;
  /// Writes `value`, read from scenario line `line`, into the draft; throws
  /// std::runtime_error("scenario line N: ...") when the value is malformed.
  void (*set)(ScenarioDraft& draft, const std::string& value, int line);
};

/// True iff `key` is in the scenario_keys() registry (== the parser accepts
/// it).
bool is_scenario_key(const std::string& key);

/// Every key parse_scenario() accepts, in a stable order, with a valid
/// sample value each.
const std::vector<ScenarioKeyDoc>& scenario_keys();

/// Parse a scenario file; throws std::runtime_error if unreadable.
SimConfig load_scenario_file(const std::string& path);

}  // namespace willow::sim
