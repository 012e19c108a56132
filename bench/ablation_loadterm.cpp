// Ablation/verification A1 (DESIGN.md): the element-load term of Eq. 19.
//
// The paper writes b_i = f_i^T b_local. A cautious reading suggests a
// Galerkin "reaction correction" b_i = f_i^T (b_local - A_local f_T) — but
// the two are *identical*: every displacement basis f_i is A-harmonic in the
// block interior (its interior residual is zero) and the thermal basis f_T
// vanishes on the block boundary, so a(f_i, f_T) = 0 exactly. This bench
// verifies that orthogonality numerically (to machine precision) and shows
// the resulting fields agree, confirming the paper's formula is strict.

#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "obs/obs_cli.hpp"
#include "rom/local_stage.hpp"
#include "sweep/scenario_result.hpp"

int main(int argc, char** argv) {
  ms::util::CliParser cli("ablation_loadterm",
                          "verify Eq. 19 load == Galerkin reaction-corrected load");
  ms::bench::add_common_flags(cli);
  cli.add_string("sizes", "4,8", "comma-separated array edge lengths");
  cli.parse(argc, argv);

  const std::vector<int> sizes = ms::bench::parse_int_list(cli.get_string("sizes"));

  std::printf("=== Verification: literal Eq. 19 load vs Galerkin-corrected load ===\n\n");

  ms::bench::BenchSetup setup = ms::bench::default_setup(15.0);
  ms::bench::apply_common_flags(cli, setup);

  // 1. Element-load vectors of both forms, both block kinds.
  for (const auto kind : {ms::rom::BlockKind::Tsv, ms::rom::BlockKind::Dummy}) {
    ms::rom::LocalStageOptions literal = setup.config.local;
    literal.uncorrected_eq19_load = true;
    const ms::rom::RomModel corrected = ms::rom::run_local_stage(
        setup.config.geometry, setup.config.mesh_spec, setup.config.materials, kind,
        setup.config.local);
    const ms::rom::RomModel paper = ms::rom::run_local_stage(
        setup.config.geometry, setup.config.mesh_spec, setup.config.materials, kind, literal);
    double max_load = 0.0, max_diff = 0.0;
    for (std::size_t i = 0; i < corrected.element_load.size(); ++i) {
      max_load = std::max(max_load, std::fabs(corrected.element_load[i]));
      max_diff = std::max(max_diff,
                          std::fabs(corrected.element_load[i] - paper.element_load[i]));
    }
    std::printf("%-6s block: max|b_elem| = %.4g, max|corrected - literal| = %.3g (relative %.1e)\n",
                kind == ms::rom::BlockKind::Tsv ? "TSV" : "dummy", max_load, max_diff,
                max_diff / max_load);
  }

  // 2. End-to-end field errors agree for both forms.
  std::printf("\n");
  ms::util::TextTable table({"array", "error (corrected)", "error (literal Eq. 19)", "ratio"});
  for (int size : sizes) {
    const ms::core::ReferenceResult ref =
        ms::core::reference_array(setup.config, size, size, setup.reference_fem);

    ms::sweep::ScenarioSpec spec;
    spec.blocks_x = spec.blocks_y = size;
    ms::core::MoreStressSimulator sim_corrected(setup.config);
    const double err_corrected =
        ms::core::field_error(ref, sim_corrected.simulate(spec).array->von_mises);

    ms::core::SimulationConfig literal = setup.config;
    literal.local.uncorrected_eq19_load = true;
    ms::core::MoreStressSimulator sim_literal(literal);
    const double err_literal =
        ms::core::field_error(ref, sim_literal.simulate(spec).array->von_mises);

    table.add_row({ms::util::strf("%dx%d", size, size), ms::util::percent_cell(err_corrected),
                   ms::util::percent_cell(err_literal),
                   ms::util::ratio_cell(err_literal, err_corrected)});
    std::fflush(stdout);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nConclusion: a(f_i, f_T) = 0 (harmonic bases x boundary-supported reactions),\n"
      "so the paper's Eq. 19 is already the exact Galerkin load. See DESIGN.md.\n");
  ms::obs::write_cli_outputs(cli);
  return 0;
}
