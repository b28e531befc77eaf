// Serial prefix-scan utilities: the exclusive and inclusive in-place scans
// behind every CSR row-pointer and level-pointer construction.
#pragma once

#include <span>

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

}  // namespace javelin
