#include "rom/local_stage.hpp"

#include <algorithm>
#include <stdexcept>

#include "fem/assembler.hpp"
#include "fem/dirichlet.hpp"
#include "fem/hex8.hpp"
#include "fem/stress.hpp"
#include "la/cholesky.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace ms::rom {
namespace {

using fem::kHexDofs;
using fem::kHexNodes;
using fem::kVoigt;
using la::CsrMatrix;
using la::SparseCholesky;

/// Basis right-hand sides per multi-RHS panel solve: the widest fixed-width
/// kernel of the supernodal triangular solves.
constexpr idx_t kPanelWidth = 8;

/// Node-level interpolation weights: W(b, m) = L3D(position of boundary mesh
/// node b; surface node m). Stored dense — both dimensions are small.
DenseMatrix boundary_weights(const mesh::HexMesh& mesh, const std::vector<idx_t>& bnodes,
                             const SurfaceNodeSet& sns) {
  DenseMatrix w(static_cast<idx_t>(bnodes.size()), sns.count());
  for (idx_t b = 0; b < static_cast<idx_t>(bnodes.size()); ++b) {
    const mesh::Point3 p = mesh.node_pos(bnodes[b]);
    const Lagrange3d::Factors f = sns.lagrange().factors(p);
    for (idx_t m = 0; m < sns.count(); ++m) {
      const auto& [i, j, k] = sns.node_ijk(m);
      w(b, m) = f.wx[i] * f.wy[j] * f.wz[k];
    }
  }
  return w;
}

}  // namespace

RomModel run_local_stage(const mesh::TsvGeometry& geometry, const mesh::BlockMeshSpec& spec,
                         const fem::MaterialTable& materials, BlockKind kind,
                         const LocalStageOptions& options) {
  obs::ScopedSpan stage_span("rom.local.stage",
                             obs::MetricRegistry::global().histogram("rom.local.stage_seconds"));
  util::WallTimer timer;
  if (options.nodes_x < 2 || options.nodes_y < 2 || options.nodes_z < 2) {
    throw std::invalid_argument("run_local_stage: need >= 2 interpolation nodes per axis");
  }

  obs::ScopedSpan assemble_span("rom.local.assemble");
  const mesh::HexMesh block = (kind == BlockKind::Tsv)
                                  ? mesh::build_tsv_block_mesh(geometry, spec)
                                  : mesh::build_dummy_block_mesh(geometry, spec);
  const fem::AssembledSystem sys = fem::assemble_system(block, materials);
  const idx_t num_dofs = sys.num_dofs;

  // Split fine-mesh dofs into boundary (prescribed) and free sets.
  const std::vector<idx_t> bnodes = block.boundary_nodes();
  const fem::DirichletSplit split(num_dofs, fem::DirichletBc::clamp_nodes(bnodes));
  const fem::DofPartition& part = split.partition();

  const SurfaceNodeSet sns(options.nodes_x, options.nodes_y, options.nodes_z, geometry.pitch,
                           geometry.pitch, geometry.height);
  const idx_t n = sns.num_dofs();

  const DenseMatrix weights = boundary_weights(block, bnodes, sns);

  const CsrMatrix a_ff = split.free_block(sys.stiffness);
  const CsrMatrix a_fb = split.coupling(sys.stiffness);

  assemble_span.end();

  // One factorization under the block mesh's order, n+1 solves (paper
  // Sec. 4.2). The right-hand sides are batched into column panels of
  // kPanelWidth and solved through solve_multi_with, so the factor streams
  // through the cache once per panel instead of once per solve; panels only
  // share the immutable factor, so they parallelize embarrassingly with
  // per-thread workspaces.
  const SparseCholesky chol(a_ff, split.free_order(fem::stiffness_order(block)));

  // Basis fields F = [f_0 ... f_{n-1}, f_T] as full fine-mesh vectors.
  const idx_t total_rhs = n + 1;  // interpolation bases + the thermal basis
  const idx_t num_panels = (total_rhs + kPanelWidth - 1) / kPanelWidth;
  obs::count("rom.local.panels", num_panels);
  std::vector<Vec> basis(static_cast<std::size_t>(total_rhs));
  const Vec no_load(static_cast<std::size_t>(num_dofs), 0.0);
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    Vec rhs_block, bc_panel, x_panel, chol_work;
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
    for (idx_t panel = 0; panel < num_panels; ++panel) {
      MS_TRACE_SCOPE("rom.local.panel_solve");
      const idx_t i0 = panel * kPanelWidth;
      const idx_t cols = std::min(kPanelWidth, total_rhs - i0);
      rhs_block.assign(static_cast<std::size_t>(part.num_free) * cols, 0.0);
      bc_panel.assign(static_cast<std::size_t>(part.num_bc) * cols, 0.0);
      for (idx_t col = 0; col < cols; ++col) {
        const idx_t i = i0 + col;
        double* u_col = bc_panel.data() + static_cast<std::size_t>(col) * part.num_bc;
        // Basis i < n: no load, and the i-th surface-node unit displacement
        // interpolated to every boundary mesh node (component c only) as
        // boundary data. Thermal basis: unit thermal load, zero boundary
        // motion (Eq. 15).
        if (i < n) {
          const idx_t m = i / 3;
          const int c = static_cast<int>(i % 3);
          for (idx_t b = 0; b < static_cast<idx_t>(bnodes.size()); ++b) {
            const double w = weights(b, m);
            if (w != 0.0) u_col[part.bc_map[fem::dof_of(bnodes[b], c)]] = w;
          }
        }
        split.reduce(a_fb, (i < n ? no_load : sys.thermal_load).data(), u_col,
                     rhs_block.data() + static_cast<std::size_t>(col) * part.num_free);
      }
      x_panel.resize(static_cast<std::size_t>(part.num_free) * cols);
      chol.solve_multi_with(rhs_block.data(), x_panel.data(), cols, chol_work);
      for (idx_t col = 0; col < cols; ++col) {
        Vec& f = basis[i0 + col];
        f.resize(static_cast<std::size_t>(num_dofs));
        split.expand(x_panel.data() + static_cast<std::size_t>(col) * part.num_free,
                     bc_panel.data() + static_cast<std::size_t>(col) * part.num_bc, f.data());
      }
    }
  }

  RomModel model;
  model.kind = kind;
  model.geometry = geometry;
  model.mesh_spec = spec;
  model.nodes_x = options.nodes_x;
  model.nodes_y = options.nodes_y;
  model.nodes_z = options.nodes_z;
  model.samples_per_block = options.samples_per_block;
  model.fine_mesh_dofs = num_dofs;

  // Reduced element stiffness A_elem(i,j) = f_i^T A_local f_j (Eq. 18).
  // Column j touches only entries (i,j) with i <= j and their mirrors (j,i),
  // which are disjoint across distinct j, so columns parallelize cleanly.
  MS_TRACE_SCOPE("rom.local.reduce");
  model.element_stiffness = DenseMatrix(n, n);
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    Vec af(num_dofs);
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
    for (idx_t j = 0; j < n; ++j) {
      sys.stiffness.mul(basis[j], af);
      for (idx_t i = 0; i <= j; ++i) {
        const double v = la::dot(basis[i], af);
        model.element_stiffness(i, j) = v;
        model.element_stiffness(j, i) = v;
      }
    }
  }
  {
    // Reaction-corrected element load b_i = f_i^T (b_local - A_local f_T)
    // per unit thermal load (see DESIGN.md note on Eq. 19). The uncorrected
    // variant (paper's literal Eq. 19) is kept as an ablation switch.
    Vec af(num_dofs);
    sys.stiffness.mul(basis[n], af);
    model.element_load.resize(n);
    Vec g(num_dofs);
    for (idx_t d = 0; d < num_dofs; ++d) {
      g[d] = sys.thermal_load[d] - (options.uncorrected_eq19_load ? 0.0 : af[d]);
    }
    for (idx_t i = 0; i < n; ++i) model.element_load[i] = la::dot(basis[i], g);
  }

  // Per-basis field samples on a horizontal cut plane (Eq. 15 applied at
  // reconstruction time). Thermal column includes the eigenstrain term.
  // `voigt_rows` selects which stress components are stored (num_rows per
  // sample point); displacements are sampled only when disp_out is non-null.
  const auto sample_plane = [&](double z, const int* voigt_rows, int num_rows, DenseMatrix& out,
                                DenseMatrix* disp_out) {
    const int s = options.samples_per_block;
    const fem::PlaneGrid grid = fem::make_block_plane_grid(geometry.pitch, 1, 1, s, z);
    const idx_t npts = static_cast<idx_t>(grid.size());
    out = DenseMatrix(num_rows * npts, n + 1);
    if (disp_out != nullptr) *disp_out = DenseMatrix(3 * npts, n + 1);

    const idx_t nxs = static_cast<idx_t>(grid.xs.size());
    // Each sample point writes its own disjoint rows, so points parallelize.
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
    for (idx_t pt = 0; pt < npts; ++pt) {
      const double x = grid.xs[pt % nxs];
      const double y = grid.ys[pt / nxs];
      const mesh::Point3 p{x, y, grid.z};
      const auto loc = block.locate(p);
      const mesh::Point3 lo = block.elem_min(loc.elem);
      const mesh::Point3 hi = block.elem_max(loc.elem);
      const fem::BMatrix b = fem::hex8_b_matrix(loc.xi, loc.eta, loc.zeta, hi.x - lo.x,
                                                hi.y - lo.y, hi.z - lo.z);
      const fem::Material& mat = materials.at(block.material(loc.elem));
      const auto d = mat.d_matrix();
      const auto sigma_th = mat.thermal_stress_unit();
      // db = D * B (6 x 24), shared across all bases at this point.
      std::array<std::array<double, kHexDofs>, kVoigt> db{};
      for (int r = 0; r < kVoigt; ++r) {
        for (int q = 0; q < kVoigt; ++q) {
          const double drq = d[r * kVoigt + q];
          if (drq == 0.0) continue;
          for (int cdof = 0; cdof < kHexDofs; ++cdof) db[r][cdof] += drq * b[q][cdof];
        }
      }
      const auto nodes = block.elem_nodes(loc.elem);
      const auto shapes = fem::hex8_shape(loc.xi, loc.eta, loc.zeta);
      for (idx_t col = 0; col <= n; ++col) {
        std::array<double, kHexDofs> fe;
        for (int a = 0; a < kHexNodes; ++a) {
          for (int c = 0; c < 3; ++c) fe[3 * a + c] = basis[col][fem::dof_of(nodes[a], c)];
        }
        for (int ri = 0; ri < num_rows; ++ri) {
          const int r = voigt_rows[ri];
          double sum = 0.0;
          for (int cdof = 0; cdof < kHexDofs; ++cdof) sum += db[r][cdof] * fe[cdof];
          if (col == n) sum -= sigma_th[r];  // thermal basis, unit load
          out(num_rows * pt + ri, col) = sum;
        }
        if (disp_out != nullptr) {
          for (int c = 0; c < 3; ++c) {
            double sum = 0.0;
            for (int a = 0; a < kHexNodes; ++a) sum += shapes[a] * fe[3 * a + c];
            (*disp_out)(3 * pt + c, col) = sum;
          }
        }
      }
    }
  };

  constexpr int kAllVoigt[kVoigt] = {0, 1, 2, 3, 4, 5};
  sample_plane(0.5 * geometry.height, kAllVoigt, kVoigt, model.stress_samples,
               options.sample_displacements ? &model.displacement_samples : nullptr);
  // Bump-plane tractions for the bump-shear fatigue channel: the centre of
  // the bottom element layer, z = h / (2 elems_z) — cell-centred so the
  // plane sits inside elements (never on a material interface) and clear of
  // the clamped z = 0 face.
  constexpr int kShearVoigt[2] = {3, 4};  // s_yz, s_xz
  sample_plane(0.5 * geometry.height / spec.elems_z, kShearVoigt, 2, model.bump_shear_samples,
               nullptr);

  model.local_stage_seconds = timer.seconds();
  MS_LOG_DEBUG("local stage (%s): %d fine dofs -> %d element dofs in %.2fs",
               kind == BlockKind::Tsv ? "tsv" : "dummy", static_cast<int>(num_dofs),
               static_cast<int>(n), model.local_stage_seconds);
  return model;
}

std::uint64_t local_stage_fingerprint(const mesh::TsvGeometry& geometry,
                                      const mesh::BlockMeshSpec& spec,
                                      const fem::MaterialTable& materials, BlockKind kind,
                                      const LocalStageOptions& options) {
  using util::fnv1a_value;
  std::uint64_t h = util::kFnvOffsetBasis;
  for (double v : {geometry.pitch, geometry.diameter, geometry.liner_thickness, geometry.height}) {
    h = fnv1a_value(v, h);
  }
  for (int v : {spec.elems_xy, spec.elems_z, options.nodes_x, options.nodes_y, options.nodes_z,
                options.samples_per_block}) {
    h = fnv1a_value(v, h);
  }
  for (bool v : {options.sample_displacements, options.uncorrected_eq19_load}) {
    h = fnv1a_value(v, h);
  }
  h = fnv1a_value(kind, h);
  h = fnv1a_value(materials.size(), h);
  for (std::size_t id = 0; id < materials.size(); ++id) {
    const fem::Material& m = materials.at(static_cast<mesh::MaterialId>(id));
    h = fnv1a_value(m.name.size(), h);
    h = util::fnv1a_bytes(m.name.data(), m.name.size(), h);
    for (double v : {m.youngs_modulus, m.poisson_ratio, m.cte, m.conductivity,
                     m.volumetric_heat_capacity, m.fatigue_strength, m.fatigue_strength_exponent,
                     m.fatigue_ductility, m.fatigue_ductility_exponent, m.ultimate_strength}) {
      h = fnv1a_value(v, h);
    }
  }
  return h;
}

}  // namespace ms::rom
