// Reproduces Table 2 of the paper: a TSV array embedded at five locations
// (loc1..loc5, Fig. 5(b)) in a chiplet package, exercised through the
// sub-modeling path (Sec. 4.4). A coarse package model supplies boundary
// displacements; two rings of dummy blocks pad the array. Compared methods:
// fine-mesh FEM of the padded sub-model (ANSYS substitute), linear
// superposition over the coarse background stress, and MORE-Stress.

#include <cstdio>

#include "chiplet/package_model.hpp"
#include "chiplet/submodel.hpp"
#include "common.hpp"
#include "obs/obs_cli.hpp"
#include "sweep/scenario_result.hpp"
#include "util/timer.hpp"

namespace {

/// Package sized so the interposer comfortably hosts the largest sub-model.
ms::chiplet::PackageGeometry bench_package(double pitch, int submodel_blocks) {
  ms::chiplet::PackageGeometry g;
  const double footprint = submodel_blocks * pitch;
  g.interposer_x = g.interposer_y = std::max(600.0, 2.5 * footprint);
  g.interposer_z = 50.0;  // equals the TSV height
  g.substrate_x = g.substrate_y = g.interposer_x + 400.0;
  g.substrate_z = 150.0;
  g.die_x = g.die_y = 0.5 * g.interposer_x;
  g.die_z = 80.0;
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  ms::util::CliParser cli("table2_submodel", "Paper Table 2: embedded array via sub-modeling");
  ms::bench::add_common_flags(cli);
  cli.add_int("array", 5, "TSV array edge (paper: 15)");
  cli.add_int("rings", 2, "dummy-block padding rings");
  cli.add_string("pitches", "15,10", "comma-separated pitches in um");
  cli.parse(argc, argv);

  const int array = static_cast<int>(cli.get_int("array"));
  const int rings = static_cast<int>(cli.get_int("rings"));
  const int padded = array + 2 * rings;
  const std::vector<int> pitches = ms::bench::parse_int_list(cli.get_string("pitches"));

  std::printf("=== Table 2: %dx%d TSV array (+%d dummy rings) embedded in a chiplet ===\n\n",
              array, array, rings);

  for (int pitch : pitches) {
    ms::bench::BenchSetup setup = ms::bench::default_setup(pitch);
    ms::bench::apply_common_flags(cli, setup);

    // Coarse package model (solved once per pitch; ANSYS does this step in
    // the paper's flow as well).
    const ms::chiplet::PackageGeometry package_geom = bench_package(pitch, padded);
    ms::util::WallTimer coarse_timer;
    const ms::chiplet::PackageModel package(package_geom, {20, 20, 3, 2, 2},
                                            setup.config.thermal_load);
    std::printf("p=%d um: coarse package solve %.1f s (%d dofs)\n", pitch,
                coarse_timer.seconds(), static_cast<int>(package.stats().num_dofs));

    ms::core::MoreStressSimulator simulator(setup.config);
    const double local_seconds = simulator.prepare_local_stage(/*with_dummy=*/true);

    ms::baseline::SuperpositionModel::BuildOptions sp_options;
    sp_options.window_blocks = setup.superposition_window;
    sp_options.samples_per_block = setup.config.local.samples_per_block;
    sp_options.thermal_load = setup.config.thermal_load;
    sp_options.fem = setup.reference_fem;
    const auto superposition = ms::baseline::SuperpositionModel::build(
        setup.config.geometry, setup.config.mesh_spec, setup.config.materials, sp_options);
    std::printf("one-shot: local stages %.1f s, superposition build %.1f s\n\n", local_seconds,
                superposition.build_seconds());

    const auto locations =
        ms::chiplet::standard_locations(package_geom, setup.config.geometry.pitch, padded, padded);

    std::vector<std::string> header{"method", "metric"};
    for (const auto& loc : locations) header.push_back(loc.label);
    ms::util::TextTable table(header);

    struct LocResult {
      double ref_seconds = 0.0;
      std::size_t ref_bytes = 0;
      double sp_seconds = 0.0;
      std::size_t sp_bytes = 0;
      double sp_error = 0.0;
      double rom_seconds = 0.0;
      std::size_t rom_bytes = 0;
      double rom_error = 0.0;
    };
    std::vector<LocResult> results;

    for (const auto& loc : locations) {
      LocResult r;
      // Boundary data in the sub-model local frame.
      const auto displacement = [&](const ms::mesh::Point3& p) {
        return package.displacement_at(
            {p.x + loc.origin.x, p.y + loc.origin.y, p.z + loc.origin.z});
      };
      ms::sweep::ScenarioSpec spec;
      spec.kind = ms::sweep::ScenarioKind::kSubmodel;
      spec.blocks_x = spec.blocks_y = array;
      spec.dummy_rings = rings;
      spec.displacement = displacement;

      // MORE-Stress.
      const ms::core::ArrayResult rom = *simulator.simulate(spec).array;
      r.rom_seconds = rom.stats.global_seconds();
      r.rom_bytes = rom.stats.memory_bytes;

      // Linear superposition: coarse background stress + per-via deltas over
      // the *inner* array region.
      ms::util::WallTimer sp_timer;
      const std::function<ms::fem::Stress6(const ms::mesh::Point3&)> background =
          [&](const ms::mesh::Point3& p) {
            return package.stress_at({p.x + loc.origin.x + rings * setup.config.geometry.pitch,
                                      p.y + loc.origin.y + rings * setup.config.geometry.pitch,
                                      p.z + loc.origin.z});
          };
      const auto sp_stress = superposition.estimate(array, array, {}, &background);
      const auto sp_vm = ms::fem::to_von_mises(sp_stress);
      r.sp_seconds = sp_timer.seconds();
      r.sp_bytes = superposition.memory_bytes() + sp_stress.size() * sizeof(ms::fem::Stress6);

      // Reference fine FEM of the padded sub-model.
      if (setup.run_reference) {
        const ms::core::ReferenceResult ref = ms::core::reference_submodel(
            setup.config, array, array, rings, displacement, setup.reference_fem);
        r.ref_seconds = ref.stats.total_seconds();
        r.ref_bytes = ref.stats.total_bytes();
        r.rom_error = ms::core::field_error(ref, rom.von_mises);
        r.sp_error = ms::core::field_error(ref, sp_vm);
      }
      results.push_back(r);
      std::fflush(stdout);
    }

    auto add_row = [&](const std::string& method, const std::string& metric, auto cell_of) {
      std::vector<std::string> cells{method, metric};
      for (const auto& r : results) cells.push_back(cell_of(r));
      table.add_row(std::move(cells));
    };
    if (setup.run_reference) {
      add_row("FEM reference", "time",
              [](const LocResult& r) { return ms::util::format_seconds(r.ref_seconds); });
      add_row("(ANSYS subst.)", "memory",
              [](const LocResult& r) { return ms::util::format_bytes(r.ref_bytes); });
    }
    add_row("Linear", "time",
            [](const LocResult& r) { return ms::util::format_seconds(r.sp_seconds); });
    add_row("superposition", "memory",
            [](const LocResult& r) { return ms::util::format_bytes(r.sp_bytes); });
    if (setup.run_reference) {
      add_row("", "error", [](const LocResult& r) { return ms::util::percent_cell(r.sp_error); });
    }
    add_row("MORE-Stress", "time",
            [](const LocResult& r) { return ms::util::format_seconds(r.rom_seconds); });
    add_row("(ours)", "memory",
            [](const LocResult& r) { return ms::util::format_bytes(r.rom_bytes); });
    if (setup.run_reference) {
      add_row("", "error", [](const LocResult& r) { return ms::util::percent_cell(r.rom_error); });
      add_row("improvement", "time", [](const LocResult& r) {
        return ms::util::ratio_cell(r.ref_seconds, r.rom_seconds);
      });
      add_row("over reference", "memory", [](const LocResult& r) {
        return ms::util::ratio_cell(static_cast<double>(r.ref_bytes),
                                    static_cast<double>(r.rom_bytes));
      });
      add_row("improvement over", "accuracy", [](const LocResult& r) {
        return ms::util::ratio_cell(r.sp_error, r.rom_error);
      });
    }
    std::printf("p = %d um\n%s\n", pitch, table.render().c_str());
  }
  std::printf("peak RSS: %s\n", ms::util::format_bytes(ms::util::peak_rss_bytes()).c_str());
  ms::obs::write_cli_outputs(cli);
  return 0;
}
