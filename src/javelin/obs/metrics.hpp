// Metrics registry: named monotone counters and fixed-bucket (power-of-two)
// histograms with a deterministic merge and export order.
//
// The registry is the flat, named export of the instrumented layers:
// regions accumulate into per-thread or per-region structures
// (obs/exec_obs.hpp), ExecObs::export_metrics copies them here, and
// `export_json` serializes the result. The bench's
// `stall_profile` JSON block does not go through the registry: it is
// written from ExecStats itself. Determinism matters because exported
// counters are compared run-to-run:
//   * counters merge by addition (commutative), histograms bucket-wise —
//     merging per-thread registries in any order yields the same state;
//   * export iterates std::map, so field order is name-sorted regardless
//     of insertion order or thread count.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace javelin::obs {

/// Log2-bucket histogram over non-negative integer samples: bucket 0 counts
/// value 0, bucket b >= 1 counts values in [2^(b-1), 2^b). 33 buckets cover
/// the full index_t range (and 64-bit nanosecond durations saturate into
/// the last bucket), so two histograms always have the same shape and merge
/// bucket-wise without negotiation.
class FixedHistogram {
 public:
  static constexpr int kBuckets = 33;

  static int bucket_of(std::uint64_t v) noexcept {
    // 0 for v==0, floor(log2 v)+1 otherwise; bit_width of a uint64 is <= 64.
    const int b = static_cast<int>(std::bit_width(v));
    return b < kBuckets ? b : kBuckets - 1;
  }

  void record(std::uint64_t v) noexcept {
    counts_[static_cast<std::size_t>(bucket_of(v))] += 1;
    total_ += 1;
    sum_ += v;
  }

  void merge(const FixedHistogram& o) noexcept {
    for (int b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    total_ += o.total_;
    sum_ += o.sum_;
  }

  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t count(int bucket) const noexcept {
    return counts_[static_cast<std::size_t>(bucket)];
  }
  /// Highest non-empty bucket + 1 (0 when empty) — lets exports trim the
  /// constant tail of empty buckets.
  int used_buckets() const noexcept;

  bool operator==(const FixedHistogram&) const = default;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
};

/// Named counters + histograms. Not thread-safe: each thread (or region)
/// accumulates privately and the owner merges in a fixed order.
class MetricsRegistry {
 public:
  void add(const std::string& name, std::uint64_t delta) {
    counters_[name] += delta;
  }
  void record(const std::string& name, std::uint64_t value) {
    hists_[name].record(value);
  }

  /// Merge another registry in: addition on counters, bucket-wise on
  /// histograms. Commutative and associative, so any merge order over a set
  /// of registries produces the same state.
  void merge(const MetricsRegistry& o);

  const std::map<std::string, std::uint64_t>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, FixedHistogram>& histograms() const noexcept {
    return hists_;
  }

  /// JSON object {"counters": {...}, "histograms": {name: {"total":..,
  /// "sum":.., "buckets":[...]}}} with name-sorted keys (std::map order)
  /// and trailing empty buckets trimmed.
  void export_json(std::ostream& out) const;

  bool operator==(const MetricsRegistry&) const = default;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, FixedHistogram> hists_;
};

}  // namespace javelin::obs
