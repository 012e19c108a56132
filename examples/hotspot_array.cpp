// Hotspot array: operational thermal stress of a TSV array under a
// non-uniform workload power map (scenario 3).
//
//   ./hotspot_array [--blocks 8] [--background 20] [--peak 400] [--sigma 1.5]
//
// Solves steady-state conduction for the power map (background + one
// Gaussian hotspot over the array centre), reduces the temperature field to
// per-block ΔT, and runs the ROM stress path with that non-uniform load.
// Prints the per-block ΔT and von Mises maps, and validates the degenerate
// case: a uniform power map must reproduce the scalar-ΔT path to 1e-8.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/simulator.hpp"
#include "obs/obs_cli.hpp"
#include "sweep/scenario_result.hpp"
#include "util/cli.hpp"

namespace {

/// Coarse ASCII rendering of a per-block map (one cell per block).
void print_block_map(const char* title, const std::vector<double>& values, int blocks_x,
                     int blocks_y) {
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  std::printf("%s (min %.3g, max %.3g):\n", title, lo, hi);
  static const char kShades[] = " .:-=+*#%@";
  for (int by = blocks_y - 1; by >= 0; --by) {
    std::printf("  ");
    for (int bx = 0; bx < blocks_x; ++bx) {
      const double v = values[static_cast<std::size_t>(by) * blocks_x + bx];
      const int shade =
          (hi > lo) ? static_cast<int>(9.0 * (v - lo) / (hi - lo) + 0.5) : 0;
      std::printf("%c%c", kShades[shade], kShades[shade]);
    }
    std::printf("\n");
  }
}

/// Per-block peak of a samples-per-block field (y-major over blocks).
std::vector<double> block_peaks(const std::vector<double>& field, int blocks_x, int blocks_y,
                                int s) {
  std::vector<double> peaks(static_cast<std::size_t>(blocks_x) * blocks_y, 0.0);
  const int width = blocks_x * s;
  for (int by = 0; by < blocks_y; ++by) {
    for (int bx = 0; bx < blocks_x; ++bx) {
      double peak = 0.0;
      for (int my = 0; my < s; ++my) {
        for (int mx = 0; mx < s; ++mx) {
          peak = std::max(peak, field[static_cast<std::size_t>(by * s + my) * width + bx * s + mx]);
        }
      }
      peaks[static_cast<std::size_t>(by) * blocks_x + bx] = peak;
    }
  }
  return peaks;
}

}  // namespace

int main(int argc, char** argv) {
  ms::util::CliParser cli("hotspot_array", "Operational hotspot stress on a TSV array");
  cli.add_int("blocks", 8, "array edge length in blocks");
  cli.add_int("nodes", 4, "Lagrange interpolation nodes per axis");
  cli.add_int("samples", 30, "plane samples per block");
  cli.add_double("background", 20.0, "background power density [W/mm^2]");
  cli.add_double("peak", 400.0, "hotspot peak power density [W/mm^2]");
  cli.add_double("sigma", 1.5, "hotspot radius in pitches");
  ms::obs::add_cli_flags(cli);
  cli.parse(argc, argv);
  ms::obs::apply_cli_flags(cli);

  const int blocks = static_cast<int>(cli.get_int("blocks"));
  ms::core::SimulationConfig config = ms::core::SimulationConfig::paper_default();
  config.mesh_spec = {8, 6};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z =
      static_cast<int>(cli.get_int("nodes"));
  config.local.samples_per_block = static_cast<int>(cli.get_int("samples"));
  config.local.sample_displacements = false;
  config.global.method = "direct";  // removes iterative noise from the validation
  config.coupling.solve.method = "direct";

  const double pitch = config.geometry.pitch;
  ms::thermal::PowerMap power =
      ms::thermal::PowerMap::per_block(blocks, blocks, pitch, cli.get_double("background"));
  const double mid = 0.5 * blocks * pitch;
  power.add_gaussian_hotspot(mid, mid, cli.get_double("sigma") * pitch,
                             cli.get_double("peak"));

  std::printf("hotspot array: %dx%d blocks, %.2f W total (peak %.0f W/mm^2)\n\n", blocks,
              blocks, power.total_power(), power.peak_density());

  ms::core::MoreStressSimulator sim(config);
  ms::sweep::ScenarioSpec spec;
  spec.load = ms::sweep::LoadKind::kPower;
  spec.blocks_x = spec.blocks_y = blocks;
  spec.power_map = std::make_shared<const ms::thermal::PowerMap>(power);
  const ms::core::ThermalResult result = *sim.simulate(spec).thermal;

  std::printf("thermal solve:   %d dofs in %.3f s\n", static_cast<int>(result.thermal_stats.num_dofs),
              result.thermal_stats.total_seconds());
  std::printf("global stage:    %.3f s (%d dofs)\n", result.stats.global_seconds(),
              static_cast<int>(result.stats.solve.num_dofs));
  std::printf("die temperature: %.2f .. %.2f C\n\n", result.temperature.min(),
              result.temperature.max());

  print_block_map("per-block dT [C]", result.load.values(), blocks, blocks);
  std::printf("\n");
  const std::vector<double> peaks =
      block_peaks(result.von_mises, blocks, blocks, result.samples_per_block);
  print_block_map("per-block peak von Mises [MPa]", peaks, blocks, blocks);

  // Degenerate-case validation: a uniform power map must reproduce the
  // scalar-DT scenario at the same DT (the shared simulator's cached local
  // stage is reused).
  spec.power_map = std::make_shared<const ms::thermal::PowerMap>(
      ms::thermal::PowerMap::per_block(blocks, blocks, pitch, cli.get_double("background")));
  const ms::core::ThermalResult coupled = *sim.simulate(spec).thermal;
  spec.load = ms::sweep::LoadKind::kUniform;
  spec.delta_t = coupled.load.values().front();
  const ms::core::ArrayResult scalar = *sim.simulate(spec).array;
  double peak = 0.0, max_diff = 0.0;
  for (std::size_t i = 0; i < scalar.von_mises.size(); ++i) {
    peak = std::max(peak, std::abs(scalar.von_mises[i]));
    max_diff = std::max(max_diff, std::abs(scalar.von_mises[i] - coupled.von_mises[i]));
  }
  const double rel = max_diff / peak;
  std::printf("\nuniform-map check vs scalar-dT path: max rel diff %.2e (%s)\n", rel,
              rel <= 1e-8 ? "OK" : "FAIL");
  ms::obs::write_cli_outputs(cli);
  return rel <= 1e-8 ? 0 : 1;
}
