// Core scalar and index types used throughout Javelin.
//
// Javelin stores sparse matrices with 32-bit indices by default: every matrix
// in the paper's test suite (Table I) fits comfortably, and halving index
// width roughly halves pattern bandwidth, which matters for the memory-bound
// kernels (spmv / stri / up-looking ILU) the framework co-optimizes.
#pragma once

#include <cstdint>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

namespace javelin {

/// Index type for rows, columns and nonzero counts inside one matrix.
using index_t = std::int32_t;

/// Wide type for global nonzero offsets (CSR row pointers of large matrices).
using offset_t = std::int64_t;

/// Floating-point value type. The library is written against double; the
/// templated kernels also instantiate float where it is cheap to do so.
using value_t = double;

/// Sentinel for "no vertex / not assigned".
inline constexpr index_t kInvalidIndex = -1;

/// Throwing narrow-cast used at API boundaries (e.g. file I/O can produce
/// 64-bit counts that must fit index_t).
template <class To, class From>
To checked_cast(From v, const char* what = "index") {
  if (v < static_cast<From>(std::numeric_limits<To>::lowest()) ||
      v > static_cast<From>(std::numeric_limits<To>::max())) {
    throw std::overflow_error(std::string("javelin: ") + what +
                              " out of range for target type");
  }
  return static_cast<To>(v);
}

/// Library error type: thrown for structural problems (non-square input,
/// missing diagonal, unsorted rows where sorted are required, ...).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& msg) : std::runtime_error("javelin: " + msg) {}
};

#define JAVELIN_CHECK(cond, msg)            \
  do {                                      \
    if (!(cond)) throw ::javelin::Error(msg); \
  } while (0)

}  // namespace javelin
