#include "sweep/scenario_spec.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ms::sweep {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + message);
}

/// NaN-aware exact double compare: the round-trip lock needs NaN == NaN for
/// defaulted fields and bitwise equality everywhere else.
bool same(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return a == b;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// %.17g: shortest text that reparses to the identical double.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Numbers in a spec file must be finite: a literal `inf`/`nan` in the config
/// text is rejected at parse time (with the line number) instead of surfacing
/// queries later as a kNonFiniteField failure. `allow_nan` is set only for
/// the fields whose NaN default means "unset" (delta_t, power.hotspot_x/_y),
/// where an explicit `nan` restores the default; infinities are never legal.
double parse_double(const std::string& value, const std::string& key, int line,
                    bool allow_nan = false) {
  double v = 0.0;
  std::size_t used = 0;
  // fail() itself throws invalid_argument, so the diagnostics live outside
  // the catch that classifies std::stod's own errors.
  try {
    v = std::stod(value, &used);
  } catch (const std::invalid_argument&) {
    fail(line, "expected a number for " + key + ", got '" + value + "'");
  } catch (const std::out_of_range&) {
    fail(line, "number out of range for " + key + ": '" + value + "'");
  }
  if (used != value.size()) fail(line, "trailing characters in value '" + value + "' for " + key);
  if (std::isnan(v) && !allow_nan) {
    fail(line, "non-finite value '" + value + "' for " + key + " (nan is not a legal value here)");
  }
  if (std::isinf(v)) {
    fail(line, "non-finite value '" + value + "' for " + key + " (must be finite)");
  }
  return v;
}

int parse_int(const std::string& value, const std::string& key, int line) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(value, &used);
    if (used != value.size()) fail(line, "trailing characters in value '" + value + "' for " + key);
    return v;
  } catch (const std::invalid_argument&) {
    fail(line, "expected an integer for " + key + ", got '" + value + "'");
  } catch (const std::out_of_range&) {
    fail(line, "integer out of range for " + key + ": '" + value + "'");
  }
}

ScenarioKind parse_kind(const std::string& value, int line) {
  if (value == "array") return ScenarioKind::kArray;
  if (value == "submodel") return ScenarioKind::kSubmodel;
  fail(line, "unknown kind '" + value + "' (expected array | submodel)");
}

AnalysisKind parse_analysis(const std::string& value, int line) {
  if (value == "steady") return AnalysisKind::kSteady;
  if (value == "transient") return AnalysisKind::kTransient;
  if (value == "fatigue") return AnalysisKind::kFatigue;
  fail(line, "unknown analysis '" + value + "' (expected steady | transient | fatigue)");
}

LoadKind parse_load(const std::string& value, int line) {
  if (value == "uniform") return LoadKind::kUniform;
  if (value == "power") return LoadKind::kPower;
  if (value == "trace") return LoadKind::kTrace;
  fail(line, "unknown load '" + value + "' (expected uniform | power | trace)");
}

std::vector<int> parse_int_list(const std::string& value, const std::string& key, int line) {
  std::vector<int> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (item.empty()) fail(line, "empty entry in list for " + key);
    out.push_back(parse_int(item, key, line));
  }
  return out;
}

/// Apply one `key = value` line to `spec`. Every declarative field of the
/// schema is reachable here; to_config_text emits exactly these keys.
void apply_key(ScenarioSpec& spec, const std::string& key, const std::string& value, int line) {
  if (key == "kind") {
    spec.kind = parse_kind(value, line);
  } else if (key == "analysis") {
    spec.analysis = parse_analysis(value, line);
  } else if (key == "load") {
    spec.load = parse_load(value, line);
  } else if (key == "blocks_x") {
    spec.blocks_x = parse_int(value, key, line);
  } else if (key == "blocks_y") {
    spec.blocks_y = parse_int(value, key, line);
  } else if (key == "dummy_rings") {
    spec.dummy_rings = parse_int(value, key, line);
  } else if (key == "location") {
    spec.location = parse_int(value, key, line);
  } else if (key == "delta_t") {
    spec.delta_t = parse_double(value, key, line, /*allow_nan=*/true);
  } else if (key == "time_step") {
    spec.time_step = parse_double(value, key, line);
  } else if (key == "snapshot_steps") {
    spec.snapshot_steps = parse_int_list(value, key, line);
  } else if (key == "power.background") {
    spec.power.background = parse_double(value, key, line);
  } else if (key == "power.hotspot_peak") {
    spec.power.hotspot_peak = parse_double(value, key, line);
  } else if (key == "power.hotspot_sigma_pitches") {
    spec.power.hotspot_sigma_pitches = parse_double(value, key, line);
  } else if (key == "power.hotspot_x") {
    spec.power.hotspot_x = parse_double(value, key, line, /*allow_nan=*/true);
  } else if (key == "power.hotspot_y") {
    spec.power.hotspot_y = parse_double(value, key, line, /*allow_nan=*/true);
  } else if (key == "trace.shape") {
    if (value != "constant" && value != "square") {
      fail(line, "unknown trace.shape '" + value + "' (expected constant | square)");
    }
    spec.trace.shape = value;
  } else if (key == "trace.period") {
    spec.trace.period = parse_double(value, key, line);
  } else if (key == "trace.duty") {
    spec.trace.duty = parse_double(value, key, line);
  } else if (key == "trace.cycles") {
    spec.trace.cycles = parse_int(value, key, line);
  } else if (key == "trace.duration") {
    spec.trace.duration = parse_double(value, key, line);
  } else if (key == "fatigue.record_stride") {
    spec.fatigue.record_stride = parse_int(value, key, line);
  } else if (key == "fatigue.range_bins") {
    spec.fatigue.range_bins = parse_int(value, key, line);
  } else if (key == "fatigue.mean_bins") {
    spec.fatigue.mean_bins = parse_int(value, key, line);
  } else if (key == "fatigue.solder_shear_modulus") {
    spec.fatigue.solder_shear_modulus = parse_double(value, key, line);
  } else if (key == "fatigue.solder_mean_temperature") {
    spec.fatigue.solder_mean_temperature = parse_double(value, key, line);
  } else if (key == "fatigue.solder_shear_modulus_slope") {
    spec.fatigue.solder_shear_modulus_slope = parse_double(value, key, line);
  } else if (key == "fatigue.cycles_per_day") {
    spec.fatigue.cycles_per_day = parse_double(value, key, line);
  } else {
    fail(line, "unknown key '" + key + "'");
  }
}

}  // namespace

const char* to_string(ScenarioKind kind) {
  return kind == ScenarioKind::kArray ? "array" : "submodel";
}

const char* to_string(AnalysisKind analysis) {
  switch (analysis) {
    case AnalysisKind::kSteady: return "steady";
    case AnalysisKind::kTransient: return "transient";
    case AnalysisKind::kFatigue: return "fatigue";
  }
  return "?";
}

const char* to_string(LoadKind load) {
  switch (load) {
    case LoadKind::kUniform: return "uniform";
    case LoadKind::kPower: return "power";
    case LoadKind::kTrace: return "trace";
  }
  return "?";
}

bool ScenarioSpec::has_programmatic_payload() const {
  return load_field != nullptr || power_map != nullptr || power_trace != nullptr ||
         package != nullptr || static_cast<bool>(displacement) || placement.blocks_x != 0 ||
         placement.blocks_y != 0;
}

void ScenarioSpec::validate() const {
  const auto reject = [this](const std::string& message) {
    throw std::invalid_argument("scenario '" + name + "': " + message);
  };
  if (blocks_x < 1 || blocks_y < 1) reject("blocks_x / blocks_y must be >= 1");
  if (kind == ScenarioKind::kSubmodel) {
    if (dummy_rings < 0) reject("dummy_rings must be >= 0");
    if (location < 1 || location > 5) reject("location must be in 1..5 (loc1..loc5)");
  }
  switch (analysis) {
    case AnalysisKind::kSteady:
      if (load == LoadKind::kTrace) reject("steady analysis takes load = uniform | power");
      break;
    case AnalysisKind::kTransient:
    case AnalysisKind::kFatigue:
      if (load != LoadKind::kTrace) {
        reject(std::string(to_string(analysis)) + " analysis requires load = trace");
      }
      break;
  }
  if (load == LoadKind::kTrace && power_trace == nullptr) {
    if (trace.shape == "square") {
      if (trace.period <= 0.0) reject("trace.period must be > 0");
      if (trace.duty <= 0.0 || trace.duty >= 1.0) reject("trace.duty must be in (0, 1)");
      if (trace.cycles < 1) reject("trace.cycles must be >= 1");
    } else if (trace.shape == "constant") {
      if (trace.duration <= 0.0) reject("trace.duration must be > 0 for a constant trace");
    } else {
      reject("unknown trace.shape '" + trace.shape + "'");
    }
  }
  if (!snapshot_steps.empty() &&
      (kind != ScenarioKind::kArray || analysis != AnalysisKind::kTransient)) {
    reject("snapshot_steps apply to array transient scenarios only");
  }
  if (time_step < 0.0) reject("time_step must be >= 0 (0 = config default)");
  if (kind == ScenarioKind::kSubmodel && load != LoadKind::kUniform &&
      (!std::isnan(power.hotspot_x) || !std::isnan(power.hotspot_y))) {
    reject("power.hotspot_x/y are array-only (sub-model hotspots sit at the window centre)");
  }
}

bool ScenarioSpec::reads_package() const {
  return kind == ScenarioKind::kSubmodel && !(load == LoadKind::kUniform && displacement);
}

std::string ScenarioSpec::to_config_text() const {
  if (has_programmatic_payload()) {
    throw std::logic_error("scenario '" + name +
                           "': programmatic payloads have no config-text form");
  }
  std::ostringstream out;
  out << "[" << name << "]\n";
  out << "kind = " << to_string(kind) << "\n";
  out << "analysis = " << to_string(analysis) << "\n";
  out << "load = " << to_string(load) << "\n";
  out << "blocks_x = " << blocks_x << "\n";
  out << "blocks_y = " << blocks_y << "\n";
  out << "dummy_rings = " << dummy_rings << "\n";
  out << "location = " << location << "\n";
  out << "delta_t = " << fmt(delta_t) << "\n";
  out << "time_step = " << fmt(time_step) << "\n";
  if (!snapshot_steps.empty()) {
    out << "snapshot_steps = ";
    for (std::size_t i = 0; i < snapshot_steps.size(); ++i) {
      out << (i != 0 ? "," : "") << snapshot_steps[i];
    }
    out << "\n";
  }
  out << "power.background = " << fmt(power.background) << "\n";
  out << "power.hotspot_peak = " << fmt(power.hotspot_peak) << "\n";
  out << "power.hotspot_sigma_pitches = " << fmt(power.hotspot_sigma_pitches) << "\n";
  out << "power.hotspot_x = " << fmt(power.hotspot_x) << "\n";
  out << "power.hotspot_y = " << fmt(power.hotspot_y) << "\n";
  out << "trace.shape = " << trace.shape << "\n";
  out << "trace.period = " << fmt(trace.period) << "\n";
  out << "trace.duty = " << fmt(trace.duty) << "\n";
  out << "trace.cycles = " << trace.cycles << "\n";
  out << "trace.duration = " << fmt(trace.duration) << "\n";
  out << "fatigue.record_stride = " << fatigue.record_stride << "\n";
  out << "fatigue.range_bins = " << fatigue.range_bins << "\n";
  out << "fatigue.mean_bins = " << fatigue.mean_bins << "\n";
  out << "fatigue.solder_shear_modulus = " << fmt(fatigue.solder_shear_modulus) << "\n";
  out << "fatigue.solder_mean_temperature = " << fmt(fatigue.solder_mean_temperature) << "\n";
  out << "fatigue.solder_shear_modulus_slope = " << fmt(fatigue.solder_shear_modulus_slope)
      << "\n";
  out << "fatigue.cycles_per_day = " << fmt(fatigue.cycles_per_day) << "\n";
  return out.str();
}

bool ScenarioSpec::operator==(const ScenarioSpec& other) const {
  return name == other.name && kind == other.kind && analysis == other.analysis &&
         load == other.load && blocks_x == other.blocks_x && blocks_y == other.blocks_y &&
         dummy_rings == other.dummy_rings && location == other.location &&
         same(delta_t, other.delta_t) && same(time_step, other.time_step) &&
         snapshot_steps == other.snapshot_steps &&
         same(power.background, other.power.background) &&
         same(power.hotspot_peak, other.power.hotspot_peak) &&
         same(power.hotspot_sigma_pitches, other.power.hotspot_sigma_pitches) &&
         same(power.hotspot_x, other.power.hotspot_x) &&
         same(power.hotspot_y, other.power.hotspot_y) && trace.shape == other.trace.shape &&
         same(trace.period, other.trace.period) && same(trace.duty, other.trace.duty) &&
         trace.cycles == other.trace.cycles && same(trace.duration, other.trace.duration) &&
         fatigue.record_stride == other.fatigue.record_stride &&
         fatigue.range_bins == other.fatigue.range_bins &&
         fatigue.mean_bins == other.fatigue.mean_bins &&
         same(fatigue.solder_shear_modulus, other.fatigue.solder_shear_modulus) &&
         same(fatigue.solder_mean_temperature, other.fatigue.solder_mean_temperature) &&
         same(fatigue.solder_shear_modulus_slope, other.fatigue.solder_shear_modulus_slope) &&
         same(fatigue.cycles_per_day, other.fatigue.cycles_per_day) &&
         load_field == other.load_field && power_map == other.power_map &&
         power_trace == other.power_trace && package == other.package;
}

std::vector<ScenarioSpec> parse_scenarios(const std::string& text) {
  std::vector<ScenarioSpec> specs;
  ScenarioSpec defaults;
  bool in_defaults = false;
  bool have_section = false;

  std::stringstream stream(text);
  std::string raw;
  int line = 0;
  while (std::getline(stream, raw)) {
    ++line;
    // Strip comments (# or ;) and whitespace.
    const std::size_t comment = raw.find_first_of("#;");
    std::string content = trim(comment == std::string::npos ? raw : raw.substr(0, comment));
    if (content.empty()) continue;

    if (content.front() == '[') {
      if (content.back() != ']') fail(line, "unterminated section header " + content);
      const std::string section = trim(content.substr(1, content.size() - 2));
      if (section.empty()) fail(line, "empty section name");
      if (section == "defaults") {
        if (have_section) fail(line, "[defaults] must precede every scenario section");
        in_defaults = true;
        continue;
      }
      in_defaults = false;
      have_section = true;
      specs.push_back(defaults);
      specs.back().name = section;
      continue;
    }

    const std::size_t eq = content.find('=');
    if (eq == std::string::npos) fail(line, "expected 'key = value', got '" + content + "'");
    const std::string key = trim(content.substr(0, eq));
    const std::string value = trim(content.substr(eq + 1));
    if (key.empty()) fail(line, "empty key");
    if (value.empty()) fail(line, "empty value for key '" + key + "'");
    if (in_defaults) {
      apply_key(defaults, key, value, line);
    } else if (!specs.empty()) {
      apply_key(specs.back(), key, value, line);
    } else {
      fail(line, "key '" + key + "' outside any [scenario] section");
    }
  }

  for (const ScenarioSpec& spec : specs) spec.validate();
  return specs;
}

std::vector<ScenarioSpec> parse_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open scenario file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_scenarios(buffer.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + " " + e.what());
  }
}

thermal::PowerMap make_power_map(const ScenarioSpec& spec,
                                 const core::SimulationConfig& config) {
  const double pitch = config.geometry.pitch;
  thermal::PowerMap map = thermal::PowerMap::per_block(spec.blocks_x, spec.blocks_y, pitch,
                                                       spec.power.background);
  if (spec.power.hotspot_peak != 0.0) {
    const double cx =
        (std::isnan(spec.power.hotspot_x) ? 0.5 : spec.power.hotspot_x) * map.width();
    const double cy =
        (std::isnan(spec.power.hotspot_y) ? 0.5 : spec.power.hotspot_y) * map.height();
    map.add_gaussian_hotspot(cx, cy, spec.power.hotspot_sigma_pitches * pitch,
                             spec.power.hotspot_peak);
  }
  return map;
}

thermal::PowerMap make_power_map(const ScenarioSpec& spec, const core::SimulationConfig& config,
                                 const chiplet::PackageGeometry& geometry,
                                 const chiplet::SubmodelPlacement& placement) {
  return chiplet::demo_power_map(geometry, placement, config.geometry.pitch,
                                 spec.power.background, spec.power.hotspot_peak);
}

thermal::PowerTrace make_power_trace(const ScenarioSpec& spec, const thermal::PowerMap& active) {
  if (spec.trace.shape == "constant") {
    return thermal::PowerTrace::constant(active, spec.trace.duration);
  }
  // Square wave between all-idle (same tiling, zero density) and the active
  // map: the standard duty-cycled accelerator workload.
  const thermal::PowerMap idle(active.tiles_x(), active.tiles_y(), active.width(),
                               active.height(), 0.0);
  return thermal::PowerTrace::square_wave(idle, active, spec.trace.period, spec.trace.duty,
                                          spec.trace.cycles);
}

}  // namespace ms::sweep
