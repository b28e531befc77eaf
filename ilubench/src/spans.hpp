// In-memory span log of the traced run. Spans are recorded by the benchmark
// around its own calls into each library layer (ilu, sparse, solver), on the
// calling thread only: name, start, end, the enclosing span, and the id of
// the operation (solve, step or batch) they belong to. Nothing is written
// until the run ends; then the log becomes one Chrome trace_event file.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <string>
#include <vector>

namespace ilubench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // a literal
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  int parent = -1;  // index of the enclosing span, -1 at top level
  int op = -1;      // operation id, -1 outside any operation

  double seconds() const { return static_cast<double>(t1 - t0) * 1e-9; }
  bool is(const char* n) const { return std::strcmp(name, n) == 0; }
};

class SpanLog {
 public:
  /// Starts an operation: spans opened until the next call carry `op`.
  void set_op(int op) { op_ = op; }

  int begin(const char* name) {
    spans_.push_back({name, now_ns(), 0, open_, op_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now_ns();
    open_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Seconds of every finished span named `name`, in recording order.
  std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.is(name)) out.push_back(s.seconds());
    }
    return out;
  }

  /// Chrome trace_event JSON: one complete ('X') event per span, with the
  /// operation id and parent index as arguments.
  bool write_chrome(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
         << static_cast<double>(s.t0 - base) * 1e-3
         << ", \"dur\": " << s.seconds() * 1e6
         << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
         << ", \"op\": " << s.op << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
  int op_ = -1;
};

/// RAII span; a null log records nothing (the untraced path).
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name)
      : log_(log), id_(log ? log->begin(name) : -1) {}
  ~Scoped() {
    if (log_) log_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace ilubench
