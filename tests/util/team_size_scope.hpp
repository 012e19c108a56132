#pragma once
// Sets the OpenMP team size for a scope, for tests that lock a parallel
// result bit for bit at several team sizes.

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ms::testutil {

/// Sets the OpenMP team size for its scope and restores the previous one.
class TeamSizeScope {
 public:
  explicit TeamSizeScope([[maybe_unused]] int threads) {
#ifdef _OPENMP
    saved_ = omp_get_max_threads();
    omp_set_num_threads(threads);
#endif
  }
  ~TeamSizeScope() {
#ifdef _OPENMP
    omp_set_num_threads(saved_);
#endif
  }
  TeamSizeScope(const TeamSizeScope&) = delete;
  TeamSizeScope& operator=(const TeamSizeScope&) = delete;

 private:
  int saved_ = 1;
};

}  // namespace ms::testutil
