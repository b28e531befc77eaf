// Shared helpers of the benchmark program: order statistics, seeded inputs,
// the true-residual check every operation passes through, and the result
// object printed as the last line of standard output.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "javelin/sparse/spmv.hpp"

namespace ilubench {

using javelin::index_t;
using javelin::value_t;

/// Median of `v` (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Process high-water resident set in MB (Linux reports ru_maxrss in KiB).
inline double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// SplitMix64: a stateless hash, so input k of stream s under seed `seed`
/// is the same value however many inputs were drawn before it.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform value in [0, 1) for key (seed, stream, k).
inline double uniform01(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t k) {
  const std::uint64_t h = mix(mix(seed ^ mix(stream)) + k);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Right-hand side `stream` of a run: entries uniform in [-1, 1).
inline void fill_rhs(std::span<value_t> b, std::uint64_t seed,
                     std::uint64_t stream) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 2.0 * uniform01(seed, stream, i) - 1.0;
  }
}

/// Every solve's output passes this gate: ||b - A x|| / ||b|| recomputed
/// here with the serial reference SpMV, independent of what the solver
/// reported. A non-finite residual fails too.
inline constexpr double kTolerance = 1e-8;

inline bool residual_ok(const javelin::CsrMatrix& a, std::span<const value_t> b,
                        std::span<const value_t> x,
                        std::vector<value_t>& scratch) {
  scratch.resize(b.size());
  javelin::spmv_serial(a, x, scratch);
  double rr = 0, bb = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = b[i] - scratch[i];
    rr += d * d;
    bb += b[i] * b[i];
  }
  const double rel = std::sqrt(rr) / std::sqrt(bb);
  return std::isfinite(rel) && rel <= kTolerance;
}

/// The result object: {"correct", "attempted", "failed", "metrics"}. Values
/// print with 17 significant digits, i.e. exactly as measured.
struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, vu] = metrics[i];
      // JSON has no NaN/Inf; a non-finite value prints as null, which the
      // runner rejects.
      if (std::isfinite(vu.first)) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", name.c_str(), vu.first, vu.second.c_str());
      } else {
        std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                    i ? ", " : "", name.c_str(), vu.second.c_str());
      }
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

}  // namespace ilubench
