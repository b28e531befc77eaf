// Machine ceilings, measured in a process of their own so their memory
// never counts toward a workload's peak RSS: the STREAM triad bandwidth at
// one and two threads (the denominators of the *_roof_frac metrics), and
// the synchronization constants a level-scheduled sweep pays — an empty
// OpenMP region, one cross-core ProgressCounters hand-off, one SpinBarrier
// crossing at two threads.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include <omp.h>

#include "javelin/support/spinwait.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace ilubench {

/// Last-level cache size in bytes as the C library reports it (CPUID on
/// x86; the same figure sysfs lists), 0 when unknown.
inline std::size_t llc_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

/// Best-of-reps triad a[i] = b[i] + s * c[i] at `threads`, in GB/s counted
/// the STREAM way (three 8-byte streams per element).
inline double triad_gbs(double* a, const double* b, const double* c,
                        std::size_t n, int threads, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    best = std::min(best, static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return 24.0 * static_cast<double>(n) / best * 1e-9;
}

/// Median over `batches` of the mean cost of `per_batch` back-to-back calls
/// of `fn`, in microseconds.
template <class Fn>
double batched_us(int batches, long per_batch, Fn&& fn) {
  std::vector<double> us;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    fn(per_batch);
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                 static_cast<double>(per_batch));
  }
  return median(us);
}

inline Result run_machine() {
  Result res;
  const std::size_t llc = llc_bytes();
  // The three arrays together are four times the last-level cache (32 MB
  // when the size is unknown), so every pass streams from DRAM. On a VM the
  // reported LLC is the whole host's; four times it per array would hold
  // gigabytes of memory for a ceiling that reads the same.
  const std::size_t array_bytes =
      4 * (llc > 0 ? llc : (std::size_t{32} << 20)) / 3;
  const std::size_t n = array_bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
#pragma omp parallel for num_threads(2) schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0;
    b[i] = 1;
    c[i] = 2;
  }
  res.add("machine.llc_mb", static_cast<double>(llc) / (1 << 20), "MB");
  res.add("machine.triad_array_mb", static_cast<double>(array_bytes) / (1 << 20),
          "MB");
  res.add("machine.triad_gbs_t1", triad_gbs(a.get(), b.get(), c.get(), n, 1, 5),
          "GB/s");
  res.add("machine.triad_gbs_t2", triad_gbs(a.get(), b.get(), c.get(), n, 2, 5),
          "GB/s");
  res.correct = a[n / 2] == 7.0;  // 1 + 3 * 2
  a.reset();
  b.reset();
  c.reset();

  // The compiler barrier keeps an otherwise empty region from being elided.
  res.add("machine.region_us", batched_us(21, 2000, [](long reps) {
            for (long i = 0; i < reps; ++i) {
#pragma omp parallel num_threads(2)
              asm volatile("" ::: "memory");
            }
          }),
          "us");

  // One hand-off = one publish observed by a waiter on the other core; a
  // round trip is two of them.
  res.add("machine.handoff_us", batched_us(21, 20000, [](long reps) {
            javelin::ProgressCounters pc(2);
#pragma omp parallel num_threads(2)
            {
              // A smaller team would wait forever on its missing partner.
              const int t = omp_get_thread_num();
              for (index_t i = 1; omp_get_num_threads() == 2 &&
                                  i <= static_cast<index_t>(reps);
                   ++i) {
                if (t == 0) {
                  pc.publish(0, i);
                  pc.wait_for(1, i);
                } else {
                  pc.wait_for(0, i);
                  pc.publish(1, i);
                }
              }
            }
          }) / 2,
          "us");

  res.add("machine.barrier_us", batched_us(21, 20000, [](long reps) {
            javelin::SpinBarrier bar(2);
#pragma omp parallel num_threads(2)
            {
              for (long i = 0; omp_get_num_threads() == 2 && i < reps; ++i) {
                bar.arrive_and_wait();
              }
            }
          }),
          "us");
  res.attempted = 1;
  res.failed = res.correct ? 0 : 1;
  return res;
}

}  // namespace ilubench
