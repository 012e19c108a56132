#pragma once
// The calling thread's place in the innermost OpenMP team, for parallel
// regions that split work by hand or index per-thread buffers sized before
// the region. Builds without OpenMP see a team of one.

#include <cstdint>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "la/types.hpp"

namespace ms::la {

/// The calling thread's place in the innermost OpenMP team.
struct TeamMember {
  std::int64_t rank = 0, size = 1;

  /// This member's contiguous share [first, second) of [lo, hi).
  [[nodiscard]] std::pair<idx_t, idx_t> slice(idx_t lo, idx_t hi) const {
    const std::int64_t len = hi - lo;
    return {static_cast<idx_t>(lo + len * rank / size),
            static_cast<idx_t>(lo + len * (rank + 1) / size)};
  }
};

inline TeamMember team_member() {
  TeamMember m;
#ifdef _OPENMP
  m.rank = omp_get_thread_num();
  m.size = omp_get_num_threads();
#endif
  return m;
}

/// Upper bound on the team a parallel region forked next by the calling
/// thread gets: the count to size per-thread buffers with.
inline int max_team_size() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace ms::la
