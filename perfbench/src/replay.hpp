#pragma once
// The traced run: each workload's query shapes are replayed through the
// public functions of the layers (rom, thermal, reliability, chiplet) on the
// same generated inputs, with a span around every call. Spans are kept in
// memory and written when the run ends; a layer's number is the self time of
// its spans (duration minus the part its child spans cover).
//
// The la layer is not called directly: the solver entry points
// (rom::solve_global_multi, thermal::solve_power_map,
// thermal::solve_power_trace) factor and solve inside the library, which
// times its own ordering, symbolic, numeric and triangular phases
// (la.cholesky.*_seconds). The seconds a call records there are moved out of
// its span's self time into the la metrics.
//
// The replay makes the calls MoreStressSimulator::simulate(spec) makes, so
// its headline outputs must equal simulate(spec) bitwise. A disagreement
// fails the run: it would mean the ledger measures a different program.

#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "la/factor_cache.hpp"
#include "rom/global_assembler.hpp"
#include "rom/rom_model.hpp"
#include "sweep/scenario_spec.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One recorded span. Times are seconds since the tracer started.
struct Span {
  std::string name;    ///< the public function called, e.g. "rom::solve_global_multi"
  std::string metric;  ///< the per-layer metric its self time feeds
  double start = 0.0;
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  int query = -1;      ///< replayed query id; -1 during set-up
  /// Seconds of this span moved to other metrics: library work inside the
  /// call that the library timed itself (metric, seconds).
  std::vector<std::pair<std::string, double>> charged;
};

class Tracer {
 public:
  Tracer();
  int open(const char* name, const char* metric);
  void close(int id);
  /// Moves `seconds` of span `id`'s self time to `metric`.
  void charge(int id, const char* metric, double seconds);
  /// Spans opened from now on belong to query `id` (-1 = set-up).
  void set_query(int id) { query_ = id; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time summed per metric over set-up spans (query -1) or over
  /// replayed-query spans (query >= 0).
  [[nodiscard]] std::map<std::string, double> self_seconds(bool setup) const;
  /// Summed duration of the replayed queries' root spans.
  [[nodiscard]] double root_seconds() const;
  [[nodiscard]] std::string to_json() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int query_ = -1;
};

/// RAII span.
class Traced {
 public:
  Traced(Tracer& tracer, const char* name, const char* metric)
      : tracer_(tracer), id_(tracer.open(name, metric)) {}
  ~Traced() { tracer_.close(id_); }
  [[nodiscard]] int id() const { return id_; }
  Traced(const Traced&) = delete;
  Traced& operator=(const Traced&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Work counts of the replayed solver calls: factorizations run, their
/// computed flops (sum of squared column counts of L) and factor nonzeros,
/// and the triangular solves' right-hand sides and computed factor bytes
/// streamed.
struct LaCounts {
  long long factorizations = 0;
  double flops = 0.0;
  double factor_nnz = 0.0;
  long long rhs = 0;
  double solve_bytes = 0.0;
  long long max_global_dofs = 0;
};

/// Headline outputs of one query.
struct Outcome {
  double peak_von_mises = 0.0;
  double min_life_log10 = std::numeric_limits<double>::quiet_NaN();
};

class LaClock;

/// Replays scenario queries through the layers' public functions. Supports
/// the three workload shapes: array + steady + uniform dT, array + fatigue
/// + trace, sub-model + steady + power map (with a package payload).
class Replayer {
 public:
  /// Runs the local stage(s) under set-up spans. `cache_operators` mirrors
  /// a simulator wired to a factor cache (the engine workloads): the global
  /// and conduction operators go through the replay's own la::FactorCache,
  /// so an operator is factored once per key and later queries assemble
  /// right-hand sides only. The theta-stepper always uses that cache.
  Replayer(const ms::core::SimulationConfig& config, Tracer& tracer, bool with_dummy,
           bool cache_operators);

  Outcome replay(const ms::sweep::ScenarioSpec& spec);
  /// Adds the computed flops and nonzeros of the factors the replayed
  /// queries built since the last call. Untraced work: call it outside every
  /// span (an uncached operator is factored once more here to be counted).
  void count_factors();
  [[nodiscard]] const LaCounts& la_counts() const { return la_; }

 private:
  Outcome array_uniform(const ms::sweep::ScenarioSpec& spec);
  Outcome array_fatigue(const ms::sweep::ScenarioSpec& spec);
  Outcome submodel_power(const ms::sweep::ScenarioSpec& spec);

  std::vector<ms::la::Vec> global_stage(const ms::rom::BlockGrid& grid,
                                        const ms::rom::RomModel* dummy,
                                        const ms::rom::BlockMask& mask,
                                        const ms::fem::DirichletBc& bc,
                                        const ms::rom::BlockLoadField& primary,
                                        const std::vector<ms::rom::BlockLoadField>& extras,
                                        const std::string& key);
  std::vector<double> reconstruct_von_mises(const ms::rom::BlockGrid& grid,
                                            const ms::rom::RomModel* dummy,
                                            const ms::rom::BlockMask& mask, const ms::la::Vec& u,
                                            const ms::rom::BlockLoadField& load,
                                            const ms::rom::BlockRange& range);
  /// Moves the la.cholesky seconds recorded since `before` out of `span`
  /// into the la metrics and counts the right-hand sides and computed bytes
  /// of the solves (`factor_nnz`: nnz(L) of the factor solved with).
  /// Returns the factorizations run since `before`.
  long long charge_la(const Traced& span, const LaClock& before, ms::la::offset_t factor_nnz);
  void count_factor(const ms::la::SparseCholesky& factor);
  [[nodiscard]] ms::rom::BlockGrid block_grid(int blocks_x, int blocks_y) const;

  ms::core::SimulationConfig config_;
  Tracer& tracer_;
  bool cache_operators_;
  std::shared_ptr<const ms::rom::RomModel> tsv_;
  std::shared_ptr<const ms::rom::RomModel> dummy_;
  ms::la::FactorCache cache_;
  std::vector<ms::la::CsrMatrix> uncached_;  ///< lifted operators factored but not kept
  std::vector<std::string> built_keys_;      ///< cache keys factored since count_factors()
  LaCounts la_;
};

/// The traced run: every per-layer metric of the workload.
RunOutput run_traced(const RunOptions& options);

}  // namespace perfbench
