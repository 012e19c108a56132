#include "reliability/damage.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "mesh/hex_mesh.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ms::reliability {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

double miner_damage(const std::vector<Cycle>& cycles, const FatigueModel& model) {
  MS_TRACE_SCOPE("reliability.miner");
  double damage = 0.0;
  for (const Cycle& c : cycles) {
    const double nf = model.cycles_to_failure(c.range, c.mean);
    if (std::isfinite(nf)) damage += c.count / nf;
  }
  return damage;
}

FatigueModelSet standard_model_set(const fem::MaterialTable& materials,
                                   double solder_shear_modulus, double mean_temperature_c,
                                   double cycles_per_day, double solder_shear_modulus_slope) {
  const fem::Material& copper = materials.at(mesh::MaterialId::Copper);
  FatigueModelSet set;
  set.set(StressChannel::kVonMises, basquin_from_material(copper));
  set.set(StressChannel::kFirstPrincipal, coffin_manson_from_material(copper));
  set.set(StressChannel::kBumpShear,
          engelmaier_solder(solder_shear_modulus, mean_temperature_c, cycles_per_day,
                            solder_shear_modulus_slope));
  return set;
}

const ChannelAssessment* ReliabilityReport::assessment(StressChannel channel) const {
  for (const ChannelAssessment& a : channels) {
    if (a.channel == channel) return &a;
  }
  return nullptr;
}

ReliabilityReport assess_history(const StressHistory& history, const FatigueModelSet& models,
                                 double trace_duration, const ReliabilityOptions& options) {
  if (history.num_steps() == 0) {
    throw std::invalid_argument("assess_history: empty stress history");
  }
  obs::ScopedSpan span("reliability.assess",
                       obs::MetricRegistry::global().histogram("reliability.assess_seconds"));
  ReliabilityReport report;
  report.blocks_x = history.blocks_x();
  report.blocks_y = history.blocks_y();
  report.trace_duration = trace_duration;
  report.min_life_cycles = kInf;

  const std::size_t num_blocks = history.num_blocks();
  for (int c = 0; c < kNumChannels; ++c) {
    const StressChannel channel = static_cast<StressChannel>(c);
    const FatigueModel* model = models.at(channel);
    if (model == nullptr) continue;

    MS_TRACE_SCOPE("reliability.channel");
    ChannelAssessment a;
    a.channel = channel;
    a.model_name = model->name();
    a.damage.assign(num_blocks, 0.0);
    a.cycles_to_failure.assign(num_blocks, kInf);
    a.half_cycle_counts.assign(num_blocks, 0.0);
    a.min_life_cycles = kInf;
    std::vector<Cycle> min_life_cycles_set;
    obs::Counter& rainflow_series = obs::MetricRegistry::global().counter("reliability.rainflow_series");
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const std::vector<Cycle> cycles = rainflow_count(history.series(channel, b));
      rainflow_series.add(1);
      for (const Cycle& cyc : cycles) a.half_cycle_counts[b] += cyc.count;
      a.damage[b] = miner_damage(cycles, *model);
      if (a.damage[b] > 0.0) a.cycles_to_failure[b] = 1.0 / a.damage[b];
      if (a.cycles_to_failure[b] < a.min_life_cycles) {
        a.min_life_cycles = a.cycles_to_failure[b];
        a.min_life_block = static_cast<int>(b);
        min_life_cycles_set = cycles;
      }
    }
    if (a.min_life_block >= 0) {
      a.min_life_matrix = bin_cycles(min_life_cycles_set, options.range_bins, options.mean_bins);
    }
    if (a.min_life_cycles < report.min_life_cycles) {
      report.min_life_cycles = a.min_life_cycles;
      report.min_life_block = a.min_life_block;
      report.min_life_channel = channel;
    }
    report.channels.push_back(std::move(a));
  }
  report.min_life_seconds = std::isfinite(report.min_life_cycles)
                                ? report.min_life_cycles * trace_duration
                                : kInf;
  return report;
}

}  // namespace ms::reliability
