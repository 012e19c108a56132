// perfbench — the MORE-Stress benchmark of record.
//
//   perfbench --workload paper_arrays|fatigue_sweep|package_locations
//             --seed N --seconds S --trace 0|1 [--out-dir DIR] [--git-commit SHA]
//
// --trace 0 measures the end-to-end metrics (tracing off); --trace 1 runs the
// traced replay and reports the per-layer metrics. Human-readable lines
// (environment stamp, metric table, ledger) start with '#'; the last line is
// the JSON result. Exits 1 when any query failed or any output check
// disagreed, 2 on a usage or set-up error.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <thread>

#include "bench_util.hpp"
#include "replay.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  ms::util::CliParser cli("perfbench", "MORE-Stress benchmark of record");
  cli.add_string("workload", "", "paper_arrays, fatigue_sweep or package_locations");
  cli.add_int("seed", 1, "input seed");
  cli.add_double("seconds", 10.0, "length of the timed region [s]");
  cli.add_int("trace", 0, "1 = traced replay with per-layer metrics");
  cli.add_string("out-dir", "", "directory for the run's specs and trace (empty skips)");
  cli.add_string("git-commit", "unknown", "source commit recorded in the environment stamp");
  cli.parse(argc, argv);
  ms::util::set_log_level(ms::util::LogLevel::Warn);

  try {
    perfbench::RunOptions options;
    options.workload = perfbench::parse_workload(cli.get_string("workload"));
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    options.seconds = cli.get_double("seconds");
    options.workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    options.out_dir = cli.get_string("out-dir");
    options.git_commit = cli.get_string("git-commit");
    const bool traced = cli.get_int("trace") != 0;

    const perfbench::RunOutput out =
        traced ? perfbench::run_traced(options) : perfbench::run_untraced(options);
    std::printf("# env %s\n",
                perfbench::environment_json(options.workers, options.seed, options.git_commit)
                    .c_str());
    std::printf("# %s %s\n", perfbench::workload_name(options.workload),
                traced ? "traced (per-layer)" : "untraced (end-to-end)");
    for (const std::string& line : out.report) std::printf("# %s\n", line.c_str());
    std::printf("%s\n",
                perfbench::result_json(out.correct, out.attempted, out.failed, out.metrics)
                    .c_str());
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
