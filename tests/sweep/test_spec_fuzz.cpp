// Seeded mutation fuzz of the spec parser. Every mutated config text must
// either parse into specs that round-trip exactly through their canonical
// text, or be rejected with std::invalid_argument; any other exception, or
// a parsed spec its own canonical text does not reproduce, fails the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/scenario_spec.hpp"

namespace ms::sweep {
namespace {

/// The example sweep file plus the canonical text of two specs that set the
/// fields it leaves at their defaults (sub-model placement, ΔT, snapshots,
/// hotspot position, constant traces, fatigue knobs).
std::vector<std::string> seed_texts() {
  const std::filesystem::path example =
      std::filesystem::path(__FILE__).parent_path().parent_path().parent_path() / "examples" /
      "duty_sweep.txt";
  std::ifstream in(example);
  std::ostringstream file;
  file << in.rdbuf();

  ScenarioSpec transient;
  transient.name = "transient_snapshots";
  transient.analysis = AnalysisKind::kTransient;
  transient.load = LoadKind::kTrace;
  transient.snapshot_steps = {0, 3, 7};
  transient.power.hotspot_peak = 312.5;
  transient.power.hotspot_x = 0.25;
  transient.power.hotspot_y = 1.0 / 3.0;
  transient.trace.shape = "constant";
  transient.trace.duration = 4e-5;
  transient.time_step = 2.5e-6;

  ScenarioSpec submodel;
  submodel.name = "submodel_fatigue";
  submodel.kind = ScenarioKind::kSubmodel;
  submodel.analysis = AnalysisKind::kFatigue;
  submodel.load = LoadKind::kTrace;
  submodel.blocks_x = 5;
  submodel.blocks_y = 3;
  submodel.dummy_rings = 2;
  submodel.location = 4;
  submodel.delta_t = -180.0;
  submodel.power.background = 15.0;
  submodel.trace.duty = 0.3;
  submodel.trace.cycles = 4;
  submodel.fatigue.record_stride = 3;
  submodel.fatigue.cycles_per_day = 86400.0 / 7.0;
  submodel.fatigue.solder_shear_modulus_slope = 0.0;
  return {file.str(), transient.to_config_text(), submodel.to_config_text()};
}

/// One random edit: erase a run of bytes, splice in a grammar token or an
/// edge-case value, overwrite a byte with any 7-bit character, or copy a
/// whole line elsewhere.
void mutate(std::string& text, std::mt19937_64& rng) {
  static const char* const kTokens[] = {
      "[", "]", "=", "#", ";", "\n", " ", ",", "[defaults]", "[s]", "kind", "submodel",
      "analysis", "fatigue", "load", "uniform", "power", "trace", "blocks_x", "location",
      "dummy_rings", "delta_t", "time_step", "snapshot_steps", "trace.shape", "constant",
      "trace.duty", "trace.cycles", "power.hotspot_x", "fatigue.record_stride", "nan", "-nan",
      "inf", "-1", "0", "-0", "1e-320", "1e308", "1e999", "0x1p-3", "2147483648",
      "-2147483649", "99999999999999999999", "0.5", "3,4", "1,,2"};
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::size_t pos = pick(text.size() + 1);
  switch (pick(4)) {
    case 0:
      if (pos < text.size()) text.erase(pos, 1 + pick(12));
      break;
    case 1:
      text.insert(pos, kTokens[pick(std::size(kTokens))]);
      break;
    case 2:
      if (pos < text.size()) text[pos] = static_cast<char>(pick(128));
      break;
    default: {
      // Copy the line holding `pos` to the start of a random line.
      const std::size_t nl = pos == 0 ? std::string::npos : text.rfind('\n', pos - 1);
      const std::size_t start = nl == std::string::npos ? 0 : nl + 1;
      const std::size_t end = std::min(text.find('\n', start), text.size());
      const std::string line = text.substr(start, end - start) + "\n";
      const std::size_t to = text.rfind('\n', pick(text.size() + 1));
      text.insert(to == std::string::npos ? 0 : to + 1, line);
      break;
    }
  }
}

TEST(ScenarioSpecFuzz, MutatedTextRoundTripsOrIsRejected) {
  const std::vector<std::string> seeds = seed_texts();
  ASSERT_FALSE(seeds.front().empty()) << "examples/duty_sweep.txt not found";
  std::mt19937_64 rng(20261018);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) mutate(text, rng);
    std::vector<ScenarioSpec> specs;
    try {
      specs = parse_scenarios(text);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++parsed;
    for (const ScenarioSpec& spec : specs) {
      const std::string canonical = spec.to_config_text();
      const std::vector<ScenarioSpec> again = parse_scenarios(canonical);
      ASSERT_EQ(again.size(), 1u) << canonical;
      ASSERT_TRUE(again.front() == spec) << "input:\n" << text << "\ncanonical:\n" << canonical;
    }
  }
  // Both outcomes must occur, or the mutations stopped exercising one side.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace ms::sweep
