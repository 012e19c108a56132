// Ablation A2 (DESIGN.md): the global-stage solver. The paper solves the
// reduced system with GMRES (Sec. 4.3); its free block is SPD, so
// CG applies (GMRES, measured slower than CG with the same preconditioner,
// was removed), and for moderate sizes a sparse direct factorization is also
// viable. This bench compares wall time and iteration counts, and verifies
// the solvers agree on the field.

#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "obs/obs_cli.hpp"
#include "sweep/scenario_result.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  ms::util::CliParser cli("ablation_solvers", "global-stage solver comparison (CG/direct)");
  ms::bench::add_common_flags(cli);
  cli.add_int("array", 12, "array edge length");
  cli.parse(argc, argv);

  const int array = static_cast<int>(cli.get_int("array"));

  std::printf("=== Ablation: global-stage solvers on a %dx%d array, p=15 um ===\n\n", array,
              array);

  ms::bench::BenchSetup setup = ms::bench::default_setup(15.0);
  ms::bench::apply_common_flags(cli, setup);

  struct Case {
    const char* method;
    const char* precond;
  };
  const Case cases[] = {{"cg", "jacobi"}, {"cg", "none"}, {"direct", "-"}};

  ms::util::TextTable table({"solver", "preconditioner", "solve time", "iterations",
                             "max |field diff| vs direct"});

  std::vector<double> reference_field;
  std::vector<std::pair<Case, ms::core::ArrayResult>> runs;
  ms::sweep::ScenarioSpec spec;
  spec.blocks_x = spec.blocks_y = array;
  for (const Case& c : cases) {
    ms::core::SimulationConfig config = setup.config;
    config.global.method = c.method;
    if (std::string(c.precond) != "-") config.global.precond = c.precond;
    ms::core::MoreStressSimulator simulator(config);
    const ms::core::ArrayResult result = *simulator.simulate(spec).array;
    if (std::string(c.method) == "direct") reference_field = result.von_mises;
    runs.emplace_back(c, result);
  }

  for (const auto& [c, result] : runs) {
    double max_diff = 0.0;
    for (std::size_t i = 0; i < result.von_mises.size(); ++i) {
      max_diff = std::max(max_diff, std::fabs(result.von_mises[i] - reference_field[i]));
    }
    table.add_row({c.method, c.precond,
                   ms::util::format_seconds(result.stats.solve.solve_seconds),
                   ms::util::strf("%d", static_cast<int>(result.stats.solve.iterations)),
                   ms::util::strf("%.2e MPa", max_diff)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nglobal dofs: %d\n", static_cast<int>(runs.front().second.stats.solve.num_dofs));
  ms::obs::write_cli_outputs(cli);
  return 0;
}
