// Thin wrappers around the OpenMP runtime queries, a scoped thread-count
// override, and the even split of a range into contiguous parts.
#pragma once

#include <algorithm>
#include <cstddef>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "javelin/support/types.hpp"

namespace javelin {

/// Number of threads an upcoming parallel region will use.
inline int max_threads() noexcept {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Calling thread's id inside a parallel region (0 outside).
inline int thread_id() noexcept {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Team size inside a parallel region (1 outside).
inline int team_size() noexcept {
#ifdef _OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

/// RAII override of the global thread count (used by benches to sweep p).
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(max_threads()) {
#ifdef _OPENMP
    omp_set_num_threads(std::max(1, threads));
#else
    (void)threads;
#endif
  }
  ~ThreadCountGuard() {
#ifdef _OPENMP
    omp_set_num_threads(saved_);
#endif
  }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

/// Evenly split [0, n) into `parts` contiguous chunks; returns [begin, end)
/// of chunk `part`. Remainder rows are distributed to the leading chunks, so
/// chunk sizes differ by at most one.
struct Range {
  index_t begin = 0;
  index_t end = 0;
  index_t size() const noexcept { return end - begin; }
};

inline Range partition_range(index_t n, int parts, int part) noexcept {
  const index_t q = n / parts;
  const index_t r = n % parts;
  const index_t lo = static_cast<index_t>(part) * q + std::min<index_t>(part, r);
  const index_t hi = lo + q + (part < r ? 1 : 0);
  return {lo, hi};
}

}  // namespace javelin
