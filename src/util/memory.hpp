#pragma once
// Process memory readouts (/proc) and the byte formatting the benchmark
// tables use. Per-solve analytic figures live on the stats records
// (fem::FemSolveStats::matrix_bytes / solver_bytes, RunStats::memory_bytes).

#include <cstddef>
#include <string>

namespace ms::util {

/// Peak resident set size of this process in bytes (VmHWM), 0 if unavailable.
std::size_t peak_rss_bytes();

/// Current resident set size of this process in bytes (VmRSS), 0 if unavailable.
std::size_t current_rss_bytes();

/// "12.3 MB" / "1.24 GB" formatting used by the benchmark tables.
std::string format_bytes(std::size_t bytes);

}  // namespace ms::util
