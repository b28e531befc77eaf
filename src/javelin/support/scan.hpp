// Prefix-scan utilities: exclusive/inclusive scans (serial and OpenMP
// two-pass) and a segmented sum/scan (paper §II cites CSR5 / Blelloch et
// al. [13], [14] as the foundation for these kernels).
#pragma once

#include <cassert>
#include <numeric>
#include <span>
#include <vector>

#include "javelin/support/parallel.hpp"
#include "javelin/support/types.hpp"

namespace javelin {

/// In-place exclusive prefix sum; returns the total. data[i] becomes
/// sum(data[0..i)). Classic CSR rowptr construction helper.
template <class T>
T exclusive_scan_inplace(std::span<T> data) {
  T running{};
  for (auto& v : data) {
    T next = running + v;
    v = running;
    running = next;
  }
  return running;
}

/// In-place inclusive prefix sum; returns the total.
template <class T>
T inclusive_scan_inplace(std::span<T> data) {
  T running{};
  for (auto& v : data) {
    running += v;
    v = running;
  }
  return running;
}

/// Two-pass parallel exclusive scan. Falls back to serial for short inputs
/// where the parallel constant costs more than it saves.
template <class T>
T parallel_exclusive_scan_inplace(std::span<T> data) {
  const std::size_t n = data.size();
  const int p = max_threads();
  if (n < 1u << 14 || p == 1) return exclusive_scan_inplace(data);

  std::vector<T> partial(static_cast<std::size_t>(p) + 1, T{});
#pragma omp parallel num_threads(p)
  {
    const int t = thread_id();
    const auto r = partition_range(static_cast<index_t>(n), team_size(), t);
    T local{};
    for (index_t i = r.begin; i < r.end; ++i) local += data[static_cast<std::size_t>(i)];
    partial[static_cast<std::size_t>(t) + 1] = local;
#pragma omp barrier
#pragma omp single
    {
      for (int i = 1; i <= p; ++i) partial[static_cast<std::size_t>(i)] += partial[static_cast<std::size_t>(i) - 1];
    }
    T running = partial[static_cast<std::size_t>(t)];
    for (index_t i = r.begin; i < r.end; ++i) {
      T next = running + data[static_cast<std::size_t>(i)];
      data[static_cast<std::size_t>(i)] = running;
      running = next;
    }
  }
  return partial.back();
}

/// Segmented sum: given values[0..nnz) and segment boundaries seg_ptr
/// (CSR-style, seg_ptr.size() == nseg+1), writes per-segment totals into
/// out[0..nseg). This is the reduction at the heart of a segmented-scan
/// spmv: each matrix row is one segment.
template <class T>
void segmented_sum(std::span<const T> values, std::span<const index_t> seg_ptr,
                   std::span<T> out) {
  assert(seg_ptr.size() >= 1);
  const std::size_t nseg = seg_ptr.size() - 1;
  assert(out.size() >= nseg);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t s = 0; s < static_cast<std::ptrdiff_t>(nseg); ++s) {
    T acc{};
    for (index_t k = seg_ptr[static_cast<std::size_t>(s)]; k < seg_ptr[static_cast<std::size_t>(s) + 1]; ++k) {
      acc += values[static_cast<std::size_t>(k)];
    }
    out[static_cast<std::size_t>(s)] = acc;
  }
}

/// Flag-based inclusive segmented scan (Blelloch-style), serial reference.
/// flags[i] == true marks the first element of a segment. Exposed mainly for
/// the property tests that validate the tiled spmv against it.
template <class T>
void segmented_inclusive_scan(std::span<const T> values,
                              std::span<const bool> flags, std::span<T> out) {
  assert(values.size() == flags.size());
  assert(out.size() >= values.size());
  T running{};
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (flags[i]) running = T{};
    running += values[i];
    out[i] = running;
  }
}

}  // namespace javelin
