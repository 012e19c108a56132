#include "reliability/channel_extract.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ms::reliability {
namespace {

using la::idx_t;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Squared von Mises stress: the argument of the sqrt in fem::von_mises,
/// term for term, so taking sqrt of the running maximum afterwards yields
/// the exact same double as maximizing fem::von_mises itself.
inline double von_mises_sq(double sxx, double syy, double szz, double syz, double sxz,
                           double sxy) {
  const double dxy = sxx - syy;
  const double dyz = syy - szz;
  const double dzx = szz - sxx;
  return 0.5 * (dxy * dxy + dyz * dyz + dzx * dzx) + 3.0 * (syz * syz + sxz * sxz + sxy * sxy);
}

/// Per-sample-point pruning data shared by every block using one model:
/// Cauchy-Schwarz factors for the residual bound (full-row Frobenius norms,
/// so any coefficient-space residual d gives |channel shift| <= a_ch ||d||
/// via channel subadditivity: vm(e) <= sqrt(3)||e_voigt||, sigma_1(e) <=
/// sqrt(2)||e_voigt||, shear(e) <= ||e||), and a visit order by the
/// thermal-load column's exact channel values so the per-step peaks climb
/// within the first few points.
struct PruneOrder {
  std::vector<double> a_vm;  ///< sqrt(3) * ||S6_pt||_F (all nk columns)
  std::vector<double> a_p1;  ///< sqrt(2) * ||S6_pt||_F
  std::vector<double> a_sh;  ///< ||S2_pt||_F
  std::vector<idx_t> order;  ///< points, descending load-column channels
};

PruneOrder build_prune_order(const rom::RomModel& model) {
  const idx_t n = model.num_element_dofs();
  const idx_t nk = n + 1;
  const idx_t npts =
      static_cast<idx_t>(model.samples_per_block) * model.samples_per_block;
  PruneOrder po;
  po.a_vm.resize(npts);
  po.a_p1.resize(npts);
  po.a_sh.resize(npts);
  std::vector<double> key(npts);
  const double* s6 = model.stress_samples.data().data();
  const double* s2 = model.bump_shear_samples.data().data();
  for (idx_t pt = 0; pt < npts; ++pt) {
    const double* rows6 = s6 + static_cast<std::size_t>(6) * pt * nk;
    double f6 = 0.0;
    for (idx_t i = 0; i < 6 * nk; ++i) f6 += rows6[i] * rows6[i];
    const double* rows2 = s2 + static_cast<std::size_t>(2) * pt * nk;
    double f2 = 0.0;
    for (idx_t i = 0; i < 2 * nk; ++i) f2 += rows2[i] * rows2[i];
    po.a_vm[pt] = std::sqrt(3.0 * f6);
    po.a_p1[pt] = std::sqrt(2.0 * f6);
    po.a_sh[pt] = std::sqrt(f2);
    const double vm_l = von_mises_sq(rows6[n], rows6[nk + n], rows6[2 * nk + n],
                                     rows6[3 * nk + n], rows6[4 * nk + n], rows6[5 * nk + n]);
    const double sh_l = rows2[n] * rows2[n] + rows2[nk + n] * rows2[nk + n];
    key[pt] = std::max(vm_l, sh_l);
  }
  po.order.resize(npts);
  std::iota(po.order.begin(), po.order.end(), idx_t{0});
  std::stable_sort(po.order.begin(), po.order.end(),
                   [&key](idx_t a, idx_t b) { return key[a] > key[b]; });
  return po;
}

/// Largest reduced-basis rank worth carrying: past this the projected
/// screen costs as much as evaluating the panel outright.
constexpr idx_t kMaxBasisRank = 24;
/// Per-column residual target relative to the column norm. The screen's
/// uncertainty band is a_ch * eps * ||c_t|| in stress space, and a_ch (the
/// sample-matrix Frobenius norm) runs ~1e4-1e5 MPa per unit coefficient, so
/// the target must sit well below 1e-4 for the band to shrink under the
/// block-internal channel spread that pruning feeds on.
constexpr double kBasisTol = 1e-6;

}  // namespace

void extract_channel_history(const rom::BlockGrid& grid, const rom::RomModel& tsv_model,
                             const rom::RomModel* dummy_model, const rom::BlockMask& mask,
                             const std::vector<rom::Vec>& solutions,
                             const std::vector<rom::BlockLoadField>& loads,
                             const rom::BlockRange& range, StressHistory& history) {
  obs::ScopedSpan span(
      "reliability.channel_extract",
      obs::MetricRegistry::global().histogram("reliability.channel_extract_seconds"));
  const bool any_dummy =
      rom::validate_block_inputs("extract_channel_history", grid, tsv_model, dummy_model, mask,
                                 range, solutions.data(), solutions.size());
  if (solutions.size() != loads.size() || solutions.size() != history.num_steps()) {
    throw std::invalid_argument(
        "extract_channel_history: need one solution and load field per history step");
  }
  if (history.blocks_x() != range.width() || history.blocks_y() != range.height()) {
    throw std::invalid_argument("extract_channel_history: history extent must match the range");
  }
  // build_prune_order and the screen index the sample matrices by their
  // expected shape, so check it before either reads them.
  const rom::RomModel* used_dummy = any_dummy ? dummy_model : nullptr;
  rom::require_samples("extract_channel_history", tsv_model, used_dummy,
                       &rom::RomModel::stress_samples, fem::kVoigt, "mid-plane stress");
  rom::require_samples("extract_channel_history", tsv_model, used_dummy,
                       &rom::RomModel::bump_shear_samples, 2, "bump-plane shear");
  for (const rom::BlockLoadField& load : loads) {
    load.validate_extent(grid.blocks_x(), grid.blocks_y());
  }

  const int s = tsv_model.samples_per_block;
  const idx_t n = tsv_model.num_element_dofs();
  const idx_t nk = n + 1;
  const idx_t num_steps = static_cast<idx_t>(solutions.size());
  const int bw = range.width();
  const int num_blocks = bw * range.height();
  const idx_t rcap = std::min(num_steps, kMaxBasisRank);

  const PruneOrder tsv_order = build_prune_order(tsv_model);
  const PruneOrder dummy_order = any_dummy ? build_prune_order(*dummy_model) : PruneOrder{};

  // Point-steps the screen let through to a full evaluation, against the
  // num_blocks * s^2 * num_steps a screen-less extraction would touch.
  long long evaluated = 0;

#ifdef _OPENMP
#pragma omp parallel reduction(+ : evaluated)
#endif
  {
    std::vector<double> coefs(static_cast<std::size_t>(nk) * num_steps);
    std::vector<double> resid(static_cast<std::size_t>(nk) * num_steps);
    std::vector<double> qbasis(static_cast<std::size_t>(nk) * rcap);
    std::vector<double> gcoef(static_cast<std::size_t>(rcap) * num_steps);  // [t * rcap + j]
    std::vector<double> cn(static_cast<std::size_t>(num_steps));
    std::vector<double> dn(static_cast<std::size_t>(num_steps));
    std::vector<double> val_vm(static_cast<std::size_t>(num_steps));
    std::vector<double> val_p1(static_cast<std::size_t>(num_steps));
    std::vector<double> val_sh(static_cast<std::size_t>(num_steps));
    std::vector<double> p6(static_cast<std::size_t>(6) * rcap);
    std::vector<double> p2(static_cast<std::size_t>(2) * rcap);
    std::vector<double> scratch(static_cast<std::size_t>(nk) * num_steps);
    std::vector<double> vals6(static_cast<std::size_t>(6) * num_steps);
    std::vector<double> vals2(static_cast<std::size_t>(2) * num_steps);
    std::vector<double> peaks(static_cast<std::size_t>(kNumChannels) * num_steps);
    std::vector<idx_t> sel(static_cast<std::size_t>(num_steps));
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
    for (int b = 0; b < num_blocks; ++b) {
      const int bx = range.bx0 + b % bw;
      const int by = range.by0 + b / bw;
      const bool is_tsv =
          mask.empty() || mask[static_cast<std::size_t>(by) * grid.blocks_x() + bx] != 0;
      const rom::RomModel* model = is_tsv ? &tsv_model : dummy_model;
      const PruneOrder& po = is_tsv ? tsv_order : dummy_order;
      const std::vector<idx_t> dofs = grid.block_dofs(bx, by);
      for (idx_t t = 0; t < num_steps; ++t) {
        double* col = coefs.data() + static_cast<std::size_t>(t) * nk;
        const rom::Vec& u = solutions[t];
        for (idx_t i = 0; i < n; ++i) col[i] = u[dofs[i]];
        col[n] = loads[t].at(bx, by);
        double norm_sq = 0.0;
        for (idx_t k = 0; k < nk; ++k) norm_sq += col[k] * col[k];
        cn[t] = std::sqrt(norm_sq);
      }

      // Reduced basis of the coefficient panel: pivoted Gram-Schmidt until
      // every column's residual is below kBasisTol * ||c_t||. The screen
      // below only needs the bookkeeping identity c_t = Q g_t + d_t (held
      // to machine rounding by construction), not orthogonality, so plain
      // MGS is enough. A transient's columns are strongly correlated, so
      // the rank is typically a handful; if kMaxBasisRank is not enough the
      // block falls back to evaluating every point in full.
      std::copy(coefs.begin(), coefs.end(), resid.begin());
      std::fill(gcoef.begin(), gcoef.end(), 0.0);
      idx_t rank = 0;
      bool converged = false;
      while (!converged && rank < rcap) {
        idx_t worst = 0;
        double worst_norm = -1.0;
        converged = true;
        for (idx_t t = 0; t < num_steps; ++t) {
          const double* d = resid.data() + static_cast<std::size_t>(t) * nk;
          double norm_sq = 0.0;
          for (idx_t k = 0; k < nk; ++k) norm_sq += d[k] * d[k];
          dn[t] = std::sqrt(norm_sq);
          if (dn[t] > kBasisTol * cn[t]) converged = false;
          if (dn[t] > worst_norm) {
            worst_norm = dn[t];
            worst = t;
          }
        }
        if (converged || worst_norm <= 0.0) break;
        double* q = qbasis.data() + static_cast<std::size_t>(rank) * nk;
        const double* dw = resid.data() + static_cast<std::size_t>(worst) * nk;
        const double inv = 1.0 / worst_norm;
        for (idx_t k = 0; k < nk; ++k) q[k] = dw[k] * inv;
        for (idx_t t = 0; t < num_steps; ++t) {
          double* d = resid.data() + static_cast<std::size_t>(t) * nk;
          double w = 0.0;
          for (idx_t k = 0; k < nk; ++k) w += q[k] * d[k];
          gcoef[static_cast<std::size_t>(t) * rcap + rank] = w;
          for (idx_t k = 0; k < nk; ++k) d[k] -= w * q[k];
        }
        ++rank;
      }
      if (!converged) {
        // Final residual norms for the screen's uncertainty band.
        converged = true;
        for (idx_t t = 0; t < num_steps; ++t) {
          const double* d = resid.data() + static_cast<std::size_t>(t) * nk;
          double norm_sq = 0.0;
          for (idx_t k = 0; k < nk; ++k) norm_sq += d[k] * d[k];
          dn[t] = std::sqrt(norm_sq);
          if (dn[t] > kBasisTol * cn[t]) converged = false;
        }
      }
      const bool use_screen = converged;
      // Slack on top of the residual norm covering every floating-point
      // rounding in the basis bookkeeping and the projected channels; the
      // screen is conservative, never optimistic.
      for (idx_t t = 0; t < num_steps; ++t) dn[t] += 1e-11 * cn[t];

      // Von Mises and bump shear track the *squared* value (sqrt applied
      // once per step at the end — max and sqrt commute, bit for bit);
      // first principal tracks the value itself.
      std::fill(peaks.begin(), peaks.end(), -kInf);
      double* pk_vm = peaks.data();
      double* pk_p1 = peaks.data() + num_steps;
      double* pk_sh = peaks.data() + 2 * static_cast<std::size_t>(num_steps);
      const auto shave = [](double v) { return v - 1e-12 * std::abs(v); };
      bool thresholds_stale = true;
      if (!use_screen) {
        std::iota(sel.begin(), sel.end(), idx_t{0});
      }
      for (idx_t oi = 0; oi < static_cast<idx_t>(s) * s; ++oi) {
        const idx_t pt = po.order[oi];
        if (thresholds_stale) {
          for (idx_t t = 0; t < num_steps; ++t) {
            val_vm[t] = shave(std::sqrt(std::max(pk_vm[t], 0.0)));
            val_p1[t] = shave(pk_p1[t]);
            val_sh[t] = shave(std::sqrt(std::max(pk_sh[t], 0.0)));
          }
          thresholds_stale = false;
        }
        idx_t m = num_steps;
        if (use_screen) {
          // Projected responses of this point's eight rows to the basis,
          // then per step the projected channels plus the residual band
          // decide whether the exact column can possibly set a peak.
          la::rows_times_cols(model->stress_samples, 6 * pt, 6, qbasis.data(), rank, p6.data());
          la::rows_times_cols(model->bump_shear_samples, 2 * pt, 2, qbasis.data(), rank,
                              p2.data());
          const double avm = po.a_vm[pt], ap1 = po.a_p1[pt], ash = po.a_sh[pt];
          m = 0;
          for (idx_t t = 0; t < num_steps; ++t) {
            const double* g = gcoef.data() + static_cast<std::size_t>(t) * rcap;
            double st[8];
            for (int c = 0; c < 6; ++c) {
              const double* pc = p6.data() + static_cast<std::size_t>(c) * rank;
              double acc = 0.0;
              for (idx_t j = 0; j < rank; ++j) acc += pc[j] * g[j];
              st[c] = acc;
            }
            for (int c = 0; c < 2; ++c) {
              const double* pc = p2.data() + static_cast<std::size_t>(c) * rank;
              double acc = 0.0;
              for (idx_t j = 0; j < rank; ++j) acc += pc[j] * g[j];
              st[6 + c] = acc;
            }
            const double band = dn[t];
            const double rv = val_vm[t] - avm * band;
            const double vmsq = von_mises_sq(st[0], st[1], st[2], st[3], st[4], st[5]);
            bool skip = rv >= 0.0 && vmsq <= rv * rv;
            if (skip) {
              // sigma_1 <= q + 2 p on the projected stress, squared to
              // dodge the sqrt, plus the residual band.
              const double q = (st[0] + st[1] + st[2]) / 3.0;
              const double p2s = (st[0] - q) * (st[0] - q) + (st[1] - q) * (st[1] - q) +
                                 (st[2] - q) * (st[2] - q) +
                                 2.0 * (st[5] * st[5] + st[4] * st[4] + st[3] * st[3]);
              const double rp = val_p1[t] - ap1 * band - q;
              skip = rp >= 0.0 && (2.0 / 3.0) * p2s <= rp * rp;
            }
            if (skip) {
              const double rs = val_sh[t] - ash * band;
              const double shsq = st[6] * st[6] + st[7] * st[7];
              skip = rs >= 0.0 && shsq <= rs * rs;
            }
            if (!skip) sel[m++] = t;
          }
          if (m == 0) continue;
          for (idx_t j = 0; j < m; ++j) {
            std::copy_n(coefs.data() + static_cast<std::size_t>(sel[j]) * nk, nk,
                        scratch.data() + static_cast<std::size_t>(j) * nk);
          }
        }
        evaluated += m;
        const double* panel = use_screen ? scratch.data() : coefs.data();
        la::rows_times_cols(model->stress_samples, 6 * pt, 6, panel, m, vals6.data());
        la::rows_times_cols(model->bump_shear_samples, 2 * pt, 2, panel, m, vals2.data());
        for (idx_t j = 0; j < m; ++j) {
          const idx_t t = use_screen ? sel[j] : j;
          const double sxx = vals6[j];
          const double syy = vals6[static_cast<std::size_t>(m) + j];
          const double szz = vals6[2 * static_cast<std::size_t>(m) + j];
          const double syz = vals6[3 * static_cast<std::size_t>(m) + j];
          const double sxz = vals6[4 * static_cast<std::size_t>(m) + j];
          const double sxy = vals6[5 * static_cast<std::size_t>(m) + j];
          pk_vm[t] = std::max(pk_vm[t], von_mises_sq(sxx, syy, szz, syz, sxz, sxy));
          // First principal is q + 2 p cos(phi) with cos(phi) <= 1, so
          // q + 2 p bounds it from above: 2 p > pk - q, squared to dodge
          // the sqrt, decides whether the acos/cos in first_principal can
          // possibly beat the running peak.
          const double q = (sxx + syy + szz) / 3.0;
          const double p2s = (sxx - q) * (sxx - q) + (syy - q) * (syy - q) +
                             (szz - q) * (szz - q) +
                             2.0 * (sxy * sxy + sxz * sxz + syz * syz);
          const double d = pk_p1[t] - q;
          if (d < 0.0 || (2.0 / 3.0) * p2s > d * d) {
            pk_p1[t] = std::max(pk_p1[t], first_principal({sxx, syy, szz, syz, sxz, sxy}));
          }
          const double byz = vals2[j];
          const double bxz = vals2[static_cast<std::size_t>(m) + j];
          pk_sh[t] = std::max(pk_sh[t], byz * byz + bxz * bxz);
        }
        thresholds_stale = true;
      }
      for (int c = 0; c < kNumChannels; ++c) {
        const bool squared = c != static_cast<int>(StressChannel::kFirstPrincipal);
        for (idx_t t = 0; t < num_steps; ++t) {
          const double peak = peaks[static_cast<std::size_t>(c) * num_steps + t];
          history.set_value(static_cast<std::size_t>(t), static_cast<StressChannel>(c),
                            static_cast<std::size_t>(b), squared ? std::sqrt(peak) : peak);
        }
      }
    }
  }

  obs::count("reliability.screen.evaluated_point_steps", evaluated);
  obs::count("reliability.screen.total_point_steps",
             static_cast<long long>(num_blocks) * s * s * num_steps);
}

}  // namespace ms::reliability
