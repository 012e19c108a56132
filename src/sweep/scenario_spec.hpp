#pragma once
// One declarative description of a MORE-Stress query — the unit of work of
// the sweep engine and the preferred argument of
// MoreStressSimulator::simulate(). A ScenarioSpec names the scenario kind
// (standalone array or embedded sub-model), the analysis (steady-state,
// transient envelope, or cycle-resolved fatigue), the load (uniform ΔT,
// steady power map, or time-domain power trace), and every knob of the
// query — in one value type that is
//
//   * parseable from `key = value` config text (parse_scenarios below, with
//     line-numbered diagnostics and a [defaults] section),
//   * constructible programmatically (aggregate fields; optional payload
//     pointers carry pre-built PowerMaps / traces / packages past the
//     declarative schema), and
//   * serializable back to canonical config text (to_config_text) such that
//     parse(to_config_text(s)) == s round-trips exactly.

#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chiplet/package_model.hpp"
#include "chiplet/submodel.hpp"
#include "core/config.hpp"
#include "core/options.hpp"
#include "rom/load_field.hpp"
#include "thermal/power_map.hpp"
#include "thermal/power_trace.hpp"

namespace ms::sweep {

enum class ScenarioKind : int {
  kArray = 0,     ///< standalone TSV array, clamped top/bottom (scenario 1/3)
  kSubmodel = 1,  ///< array embedded in a package, dummy-ring padded (scenario 2)
};

enum class AnalysisKind : int {
  kSteady = 0,     ///< one static solve (uniform ΔT or steady power map)
  kTransient = 1,  ///< θ-stepper march, stress at the peak envelope
  kFatigue = 2,    ///< cycle-resolved history -> rainflow -> lifetime
};

enum class LoadKind : int {
  kUniform = 0,  ///< scalar ΔT (or an explicit per-block field payload)
  kPower = 1,    ///< steady power map (background + optional hotspot)
  kTrace = 2,    ///< time-domain power trace (constant hold or square wave)
};

/// Declarative power-map synthesis: a uniform background density plus an
/// optional Gaussian hotspot. For array scenarios the map covers the array
/// footprint one tile per block; hotspot_x / hotspot_y are fractions of the
/// footprint (NaN = centre) and the hotspot sigma is in pitches. Sub-model
/// scenarios reuse the demo workload (chiplet::demo_power_map): `background`
/// over the die shadow plus a `hotspot_peak` hotspot over the window centre
/// (the positional fields are array-only and must stay at their defaults).
struct PowerSpec {
  double background = 0.0;             ///< W/mm^2
  double hotspot_peak = 0.0;           ///< W/mm^2 added at the hotspot centre
  double hotspot_sigma_pitches = 1.5;  ///< Gaussian sigma in units of pitch
  double hotspot_x = std::numeric_limits<double>::quiet_NaN();  ///< fraction of width
  double hotspot_y = std::numeric_limits<double>::quiet_NaN();  ///< fraction of height
};

/// Declarative power-trace synthesis. All times are SECONDS (the config-text
/// unit too — values round-trip through to_config_text exactly).
struct TraceSpec {
  std::string shape = "square";  ///< "constant" or "square"
  double period = 6e-5;          ///< square wave: one duty cycle [s]
  double duty = 0.5;             ///< square wave: high fraction, in (0, 1)
  int cycles = 1;                ///< square wave: repetitions
  double duration = 0.0;         ///< constant hold only [s] (square derives cycles*period)
};

struct ScenarioSpec {
  std::string name = "scenario";
  ScenarioKind kind = ScenarioKind::kArray;
  AnalysisKind analysis = AnalysisKind::kSteady;
  LoadKind load = LoadKind::kUniform;

  /// Array dimensions — the full array (kArray) or the inner TSV region
  /// (kSubmodel, padded by dummy_rings per side).
  int blocks_x = 8;
  int blocks_y = 8;
  int dummy_rings = 1;  ///< kSubmodel only
  /// 1-based index into chiplet::standard_locations (loc1..loc5) placing the
  /// padded window in the demo package. Ignored when a package payload with
  /// an explicit placement is supplied.
  int location = 1;

  /// Uniform-load ΔT [°C]; NaN defers to SimulationConfig::thermal_load.
  double delta_t = std::numeric_limits<double>::quiet_NaN();
  PowerSpec power;  ///< kPower / kTrace synthesis inputs
  TraceSpec trace;  ///< kTrace synthesis inputs
  /// Transient time step override [s]; 0 defers to
  /// config.coupling.transient.time_step. An override steps (and keys its
  /// factorization) exactly like a simulator whose config carries that step.
  double time_step = 0.0;
  /// Recorded-history indices to fully reconstruct (kArray + kTransient only).
  std::vector<int> snapshot_steps;
  core::FatigueOptions fatigue;  ///< kFatigue knobs

  // --- programmatic payloads (no config-text form) ---------------------------
  // Pre-built inputs override the declarative synthesis above. Specs carrying
  // any of these cannot be serialized (to_config_text throws); the sweep
  // engine uses the package slot to share one demo package across scenarios.
  std::shared_ptr<const rom::BlockLoadField> load_field;   ///< kUniform override
  std::shared_ptr<const thermal::PowerMap> power_map;      ///< kPower override
  std::shared_ptr<const thermal::PowerTrace> power_trace;  ///< kTrace override
  std::shared_ptr<const chiplet::PackageModel> package;    ///< kSubmodel override
  /// Placement paired with `package`; blocks_x == 0 means "derive from
  /// standard_locations(location)".
  chiplet::SubmodelPlacement placement;
  /// kSubmodel + kUniform boundary data override; null derives it from the
  /// (demo) package's own coarse displacement.
  std::function<std::array<double, 3>(const mesh::Point3&)> displacement;

  /// Throws std::invalid_argument naming the offending field when the
  /// combination is not runnable (e.g. a fatigue analysis with a uniform
  /// load, duty outside (0, 1), snapshot steps on a sub-model).
  void validate() const;

  [[nodiscard]] bool has_programmatic_payload() const;

  /// True when running the spec reads a package (and placement): every
  /// sub-model except a uniform load with its own `displacement`. Only such
  /// specs get the demo package built or attached — building one is a
  /// coarse FEM solve.
  [[nodiscard]] bool reads_package() const;

  /// Canonical `[name]` config-text section: every declarative key, numbers
  /// printed with %.17g so parse(to_config_text(s)) == s exactly. Throws
  /// std::logic_error when a programmatic payload is attached.
  [[nodiscard]] std::string to_config_text() const;

  /// Declarative equality (payload slots must be pointer-equal); NaN == NaN
  /// so defaulted fields compare equal after a round-trip.
  bool operator==(const ScenarioSpec& other) const;
  bool operator!=(const ScenarioSpec& other) const { return !(*this == other); }
};

[[nodiscard]] const char* to_string(ScenarioKind kind);
[[nodiscard]] const char* to_string(AnalysisKind analysis);
[[nodiscard]] const char* to_string(LoadKind load);

/// Parse config text into specs. Grammar: `[section]` headers open one
/// scenario each (the section name becomes spec.name); `key = value` lines
/// set fields; `#`/`;` start comments; blank lines are ignored. A leading
/// `[defaults]` section sets the baseline every later scenario starts from.
/// Unknown keys, malformed values, and key-outside-section all throw
/// std::invalid_argument prefixed "line N: ...". Every parsed spec is
/// validate()d.
std::vector<ScenarioSpec> parse_scenarios(const std::string& text);

/// parse_scenarios over a file's contents; diagnostics are prefixed with the
/// path ("specs.txt line N: ...").
std::vector<ScenarioSpec> parse_scenario_file(const std::string& path);

/// Synthesize the declarative power map of an array scenario: one tile per
/// block at power.background, plus the Gaussian hotspot when hotspot_peak is
/// non-zero. Exposed so tests and benches can build the same map as a
/// power_map payload.
[[nodiscard]] thermal::PowerMap make_power_map(const ScenarioSpec& spec,
                                               const core::SimulationConfig& config);

/// Sub-model variant: the demo workload over the package plan
/// (chiplet::demo_power_map with spec.power's background / hotspot_peak).
[[nodiscard]] thermal::PowerMap make_power_map(const ScenarioSpec& spec,
                                               const core::SimulationConfig& config,
                                               const chiplet::PackageGeometry& geometry,
                                               const chiplet::SubmodelPlacement& placement);

/// Synthesize the declarative trace over `active` (the scenario's power
/// map): a constant hold of trace.duration, or a square wave between an
/// all-idle map (same tiling, zero density) and `active`.
[[nodiscard]] thermal::PowerTrace make_power_trace(const ScenarioSpec& spec,
                                                   const thermal::PowerMap& active);

}  // namespace ms::sweep
