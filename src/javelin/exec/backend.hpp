// Execution-backend selector for the level-scheduled sweeps (paper §VI).
//
// Kept as a tiny standalone header so option structs (IluOptions,
// AmgOptions) can name a backend without pulling in the schedule machinery.
#pragma once

namespace javelin {

/// How a built schedule synchronizes at run time. Both backends execute the
/// SAME (level, thread) row slices in the same per-row order, so they are
/// bitwise-interchangeable; only the synchronization strategy differs.
enum class ExecBackend {
  /// Point-to-point sparsified spin-waits on per-thread progress counters —
  /// the paper's contribution (§III-A): threads speed ahead of each other,
  /// no global synchronization.
  kP2P,
  /// Barrier-synchronized level-set sweep (CSR-LS): every thread processes
  /// its slice of level l, then the whole team barriers before level l+1 —
  /// the classic baseline the paper's §VI compares against.
  kBarrier,
};

inline const char* exec_backend_name(ExecBackend b) {
  switch (b) {
    case ExecBackend::kP2P:
      return "p2p";
    case ExecBackend::kBarrier:
      return "barrier";
  }
  return "?";
}

}  // namespace javelin
