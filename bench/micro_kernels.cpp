// Micro-benchmarks (google-benchmark) of the kernels the two stages spend
// their time in: CSR matvec, AMD ordering, sparse Cholesky factor+solve
// (single-RHS vs panel), CG iterations, hex8
// element integration, FEM assembly, and the local-stage / global-stage
// building blocks at unit-block scale.
//
// Besides the google-benchmark cases, `--solver-json PATH` runs a fixed
// direct-solver suite (block + package matrices) with wall timers and
// emits a bench_gate-compatible BENCH_solver.json, so the direct-solver
// stack is covered by the CI regression gate:
//
//   ./bench_micro_kernels --benchmark_filter='^$' --solver-json BENCH_solver.json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "chiplet/package_model.hpp"
#include "fem/assembler.hpp"
#include "fem/dirichlet.hpp"
#include "fem/hex8.hpp"
#include "la/cg.hpp"
#include "la/cholesky.hpp"
#include "la/ordering.hpp"
#include "mesh/tsv_block.hpp"
#include "rom/local_stage.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace ms;

const mesh::TsvGeometry kGeometry{15.0, 5.0, 0.5, 50.0};
const mesh::BlockMeshSpec kSpec{8, 6};

const fem::MaterialTable& materials() {
  static const fem::MaterialTable table = fem::MaterialTable::standard();
  return table;
}

const fem::AssembledSystem& block_system() {
  static const fem::AssembledSystem sys = [] {
    const mesh::HexMesh block = mesh::build_tsv_block_mesh(kGeometry, kSpec);
    return fem::assemble_system(block, materials());
  }();
  return sys;
}

/// Interior (free-dof) block stiffness: what the local stage factors.
const la::CsrMatrix& block_matrix() {
  static const la::CsrMatrix a = [] {
    const mesh::HexMesh block = mesh::build_tsv_block_mesh(kGeometry, kSpec);
    const auto& sys = block_system();
    return fem::DirichletSplit(sys.num_dofs, fem::DirichletBc::clamp_nodes(block.boundary_nodes()))
        .free_block(sys.stiffness);
  }();
  return a;
}

/// Free block of the bottom-clamped coarse package stiffness: what the
/// scenario-2 direct solve factors at the demo bench size (the matrix behind
/// package_solve_seconds).
const la::CsrMatrix& package_matrix() {
  static const la::CsrMatrix a = [] {
    const chiplet::PackageGeometry geom = chiplet::demo_package_geometry(kGeometry.pitch, 6,
                                                                         kGeometry.height);
    const mesh::HexMesh mesh =
        chiplet::build_package_coarse_mesh(geom, chiplet::demo_coarse_spec());
    const fem::AssembledSystem sys = fem::assemble_system(mesh, chiplet::package_materials());
    std::vector<la::idx_t> bottom;
    for (la::idx_t id = 0; id < mesh.nodes_x() * mesh.nodes_y(); ++id) bottom.push_back(id);
    return fem::DirichletSplit(sys.num_dofs, fem::DirichletBc::clamp_nodes(bottom))
        .free_block(sys.stiffness);
  }();
  return a;
}

void BM_Hex8Stiffness(benchmark::State& state) {
  const fem::Material mat = fem::silicon();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fem::hex8_stiffness(mat, 1.2, 1.4, 5.0));
  }
}
BENCHMARK(BM_Hex8Stiffness);

void BM_Hex8ThermalLoad(benchmark::State& state) {
  const fem::Material mat = fem::copper();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fem::hex8_thermal_load(mat, 1.2, 1.4, 5.0));
  }
}
BENCHMARK(BM_Hex8ThermalLoad);

void BM_AssembleTsvBlock(benchmark::State& state) {
  const mesh::HexMesh block = mesh::build_tsv_block_mesh(kGeometry, kSpec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fem::assemble_system(block, materials()));
  }
  state.SetItemsProcessed(state.iterations() * block.num_elems());
}
BENCHMARK(BM_AssembleTsvBlock);

void BM_CsrMatvec(benchmark::State& state) {
  const auto& sys = block_system();
  la::Vec x(sys.num_dofs, 1.0), y;
  for (auto _ : state) {
    sys.stiffness.mul(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(sys.stiffness.nnz()) *
                          (sizeof(double) + sizeof(la::idx_t)));
}
BENCHMARK(BM_CsrMatvec);

void BM_AmdOrdering(benchmark::State& state) {
  const la::CsrMatrix& a = block_matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::amd_ordering(a).perm.data());
  }
}
BENCHMARK(BM_AmdOrdering);

/// Factorization of the local-stage block matrix.
void BM_SparseCholeskyFactor(benchmark::State& state) {
  const la::CsrMatrix& a = block_matrix();
  for (auto _ : state) {
    la::SparseCholesky chol(a);
    benchmark::DoNotOptimize(chol.factor_nnz());
  }
}
BENCHMARK(BM_SparseCholeskyFactor);

/// Triangular solves on the factored block matrix. The arg is the RHS panel
/// width (1 = the one-at-a-time path). Reported time is per panel, so
/// divide by the width for per-RHS cost.
void BM_SparseCholeskySolve(benchmark::State& state) {
  const la::CsrMatrix& a = block_matrix();
  const la::SparseCholesky chol(a);
  const la::idx_t nrhs = static_cast<la::idx_t>(state.range(0));
  la::Vec b(static_cast<std::size_t>(a.rows()) * nrhs, 1.0);
  la::Vec x(b.size());
  la::Vec work;  // reused across iterations, like a solver's scratch
  for (auto _ : state) {
    chol.solve_multi_with(b.data(), x.data(), nrhs, work);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * nrhs);
}
BENCHMARK(BM_SparseCholeskySolve)->Arg(1)->Arg(8);

void BM_CgUnitBlock(benchmark::State& state) {
  // CG with SSOR on the free block of the top/bottom-clamped unit block
  // (reference-solver inner loop).
  const mesh::HexMesh block = mesh::build_tsv_block_mesh(kGeometry, kSpec);
  const auto& sys = block_system();
  const fem::DirichletSplit split(sys.num_dofs,
                                  fem::DirichletBc::clamp_nodes(block.top_bottom_nodes()));
  const la::CsrMatrix a = split.free_block(sys.stiffness);
  la::Vec load = sys.thermal_load;
  la::scale(load, -250.0);
  la::Vec rhs(static_cast<std::size_t>(split.num_free()));
  split.lift(split.coupling(sys.stiffness), split.values().data(), rhs.data());
  split.reduce(load.data(), rhs.data(), rhs.data());
  const la::SsorPreconditioner precond(a);
  la::IterativeOptions options;
  options.rel_tol = 1e-7;
  for (auto _ : state) {
    la::Vec x;
    const auto result = la::conjugate_gradient(a, rhs, x, &precond, options);
    benchmark::DoNotOptimize(result.iterations);
  }
}
BENCHMARK(BM_CgUnitBlock);

void BM_LocalStage(benchmark::State& state) {
  // The full one-shot local stage at (n,n,n) nodes; arg is n.
  rom::LocalStageOptions options;
  options.nodes_x = options.nodes_y = options.nodes_z = static_cast<int>(state.range(0));
  options.samples_per_block = 20;
  options.sample_displacements = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rom::run_local_stage(kGeometry, kSpec, materials(), rom::BlockKind::Tsv, options));
  }
}
BENCHMARK(BM_LocalStage)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

// --- bench_gate solver suite (BENCH_solver.json) ----------------------------

/// Best-of-`reps` wall time of `fn` (minimum is the most repeatable
/// statistic for the gate's machine-scale normalization).
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    ms::util::WallTimer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

/// One matrix's record: factor and triangular-solve wall times (solve times
/// per RHS, single and in an 8-wide panel) plus the factor's size.
ms::util::JsonObject solver_case(const char* scenario, const la::CsrMatrix& a, int factor_reps) {
  const double factor_seconds = best_seconds(factor_reps, [&] {
    la::SparseCholesky chol(a);
    benchmark::DoNotOptimize(chol.factor_nnz());
  });

  const la::SparseCholesky chol(a);
  const la::idx_t n = a.rows();
  la::Vec b1(n, 1.0), x1(n);
  la::Vec work;  // one scratch buffer reused across repetitions
  const int solve_reps = 5;
  const double solve_seconds = best_seconds(solve_reps, [&] {
    chol.solve_multi_with(b1.data(), x1.data(), 1, work);
    benchmark::DoNotOptimize(x1.data());
  });
  const la::idx_t panel = 8;
  la::Vec b8(static_cast<std::size_t>(n) * panel, 1.0), x8(b8.size());
  const double panel_seconds = best_seconds(solve_reps, [&] {
    chol.solve_multi_with(b8.data(), x8.data(), panel, work);
    benchmark::DoNotOptimize(x8.data());
  });

  std::printf("%-16s n=%6d nnz(L) %9lld (fill %.2fx)  factor: %8.4fs  solve/rhs: %.6fs "
              "(panel8 %.6fs)\n",
              scenario, static_cast<int>(n), static_cast<long long>(chol.factor_nnz()),
              chol.fill_ratio(), factor_seconds, solve_seconds, panel_seconds / panel);

  return ms::util::JsonObject()
      .set("scenario", scenario)
      .set("edge", static_cast<std::int64_t>(n))
      .set("amd_supernodal_factor_seconds", factor_seconds)
      .set("amd_supernodal_solve_seconds", solve_seconds)
      .set("amd_supernodal_panel8_per_rhs_seconds", panel_seconds / panel)
      .set("amd_factor_nnz", static_cast<std::int64_t>(chol.factor_nnz()))
      .set("amd_fill_ratio", chol.fill_ratio())
      .set("num_supernodes", static_cast<std::int64_t>(chol.num_supernodes()));
}

void run_solver_suite(const std::string& json_path) {
  std::printf("=== direct-solver suite (AMD + supernodal) ===\n");
  std::vector<ms::util::JsonObject> records;
  records.push_back(solver_case("solver_block", block_matrix(), 5));
  records.push_back(solver_case("solver_package", package_matrix(), 3));
  ms::util::write_bench_json(json_path, "solver_micro", records);
  std::printf("wrote %s (%d cases)\n", json_path.c_str(), static_cast<int>(records.size()));
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --solver-json[=PATH] before google-benchmark sees the arguments.
  std::string solver_json;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--solver-json=", 14) == 0) {
      solver_json = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--solver-json") == 0 && i + 1 < argc) {
      solver_json = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!solver_json.empty()) run_solver_suite(solver_json);
  return 0;
}
