// Scenario-2 walkthrough (paper Fig. 5(b) / Table 2): solve a coarse chiplet
// package once, then drop a TSV array at the five standard locations and
// compute its stress through the sub-modeling path — coarse displacement
// boundary conditions + dummy-block padding + the ROM global stage. A final
// thermally coupled run puts an operational hotspot over the loc1 window and
// reruns it as a steady power-map scenario (package conduction solve with
// TSV-aware per-block conductivity -> per-block ΔT -> same ROM path).
//
//   ./chiplet_submodel [--array 5] [--rings 2] [--pitch 15] [--power 30]

#include <algorithm>
#include <cstdio>

#include "chiplet/package_model.hpp"
#include "chiplet/submodel.hpp"
#include "core/simulator.hpp"
#include "obs/obs_cli.hpp"
#include "sweep/scenario_result.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  ms::util::CliParser cli("chiplet_submodel", "TSV array embedded in a chiplet (sub-modeling)");
  cli.add_int("array", 5, "TSV array edge length");
  cli.add_int("rings", 2, "dummy-block padding rings");
  cli.add_double("pitch", 15.0, "TSV pitch in micrometres");
  cli.add_int("samples", 40, "plane samples per block");
  // The ideal sink sits below the low-k organic substrate, so a few W/mm^2
  // already produces reflow-scale ΔT.
  cli.add_double("power", 2.0, "die power density for the thermal run [W/mm^2]");
  ms::obs::add_cli_flags(cli);
  cli.parse(argc, argv);
  ms::obs::apply_cli_flags(cli);

  const int array = static_cast<int>(cli.get_int("array"));
  const int rings = static_cast<int>(cli.get_int("rings"));
  const int padded = array + 2 * rings;

  ms::core::SimulationConfig config = ms::core::SimulationConfig::paper_default();
  config.geometry.pitch = cli.get_double("pitch");
  config.mesh_spec = {8, 6};
  config.local.samples_per_block = static_cast<int>(cli.get_int("samples"));

  // Package: substrate + interposer + die, interposer hosting the TSVs.
  const ms::chiplet::PackageGeometry geom =
      ms::chiplet::demo_package_geometry(config.geometry.pitch, padded, config.geometry.height);

  std::printf("solving coarse package model (%gx%g um substrate)...\n", geom.substrate_x,
              geom.substrate_y);
  ms::util::WallTimer timer;
  const auto package = std::make_shared<const ms::chiplet::PackageModel>(
      geom, ms::chiplet::demo_coarse_spec(), config.thermal_load);
  std::printf("coarse solve: %.1f s (%d dofs)\n\n", timer.seconds(),
              static_cast<int>(package->stats().num_dofs));

  ms::core::MoreStressSimulator sim(config);
  const double local_seconds = sim.prepare_local_stage(/*with_dummy=*/rings > 0);
  std::printf("one-shot local stages (TSV + dummy): %.1f s\n\n", local_seconds);

  const auto locations =
      ms::chiplet::standard_locations(geom, config.geometry.pitch, padded, padded);

  ms::util::TextTable table(
      {"location", "origin (um)", "global time", "iters", "peak vM [MPa]", "mean vM [MPa]"});
  ms::sweep::ScenarioSpec spec;
  spec.kind = ms::sweep::ScenarioKind::kSubmodel;
  spec.blocks_x = spec.blocks_y = array;
  spec.dummy_rings = rings;
  for (const auto& loc : locations) {
    // Boundary data: the coarse package displacement in the window's frame.
    spec.displacement = [&](const ms::mesh::Point3& p) {
      return package->displacement_at(
          {p.x + loc.origin.x, p.y + loc.origin.y, p.z + loc.origin.z});
    };
    const ms::core::ArrayResult result = *sim.simulate(spec).array;
    double peak = 0.0, mean = 0.0;
    for (double v : result.von_mises) {
      peak = std::max(peak, v);
      mean += v;
    }
    mean /= static_cast<double>(result.von_mises.size());
    table.add_row({loc.label, ms::util::strf("(%.0f, %.0f)", loc.origin.x, loc.origin.y),
                   ms::util::format_seconds(result.stats.global_seconds()),
                   ms::util::strf("%d", static_cast<int>(result.stats.solve.iterations)),
                   ms::util::strf("%.0f", peak), ms::util::strf("%.0f", mean)});
    std::fflush(stdout);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nNote how peak stress varies with location: the array couples with the\n"
      "package warpage field, which is what the sub-modeling path captures.\n");

  // --- operational heat: hotspot over the loc1 window ----------------------
  const ms::chiplet::SubmodelPlacement& loc = locations[0];
  const ms::thermal::PowerMap power = ms::chiplet::demo_power_map(
      geom, loc, config.geometry.pitch, cli.get_double("power"), 10.0 * cli.get_double("power"));

  spec.load = ms::sweep::LoadKind::kPower;
  spec.displacement = nullptr;  // boundary data now comes from the package itself
  spec.package = package;
  spec.placement = loc;
  spec.power_map = std::make_shared<const ms::thermal::PowerMap>(power);
  const ms::core::ThermalResult thermal = *sim.simulate(spec).thermal;
  double peak = 0.0;
  for (double v : thermal.von_mises) peak = std::max(peak, v);
  std::printf(
      "\nthermal run at %s: conduction %.2f s (%d dofs), dT in [%.1f, %.1f] C,\n"
      "global stage %.2f s, peak von Mises %.0f MPa\n",
      loc.label.c_str(), thermal.thermal_stats.total_seconds(),
      static_cast<int>(thermal.thermal_stats.num_dofs), thermal.load.min(), thermal.load.max(),
      thermal.stats.global_seconds(), peak);
  ms::obs::write_cli_outputs(cli);
  return 0;
}
