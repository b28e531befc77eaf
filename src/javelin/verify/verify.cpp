#include "javelin/verify/verify.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace javelin::verify {

namespace {

constexpr std::size_t uz(std::int64_t i) noexcept {
  return static_cast<std::size_t>(i);
}

/// Capped diagnostic sink: a schedule with every wait dropped has O(deps)
/// findings; storing the first `cap` and counting the rest keeps
/// verification allocation-bounded while still reporting totals.
class Sink {
 public:
  Sink(VerifyReport& rep, index_t cap) : rep_(rep), cap_(cap) {}

  void add(DiagKind kind, index_t consumer_row, index_t producer_row,
           int consumer_thread, int producer_thread, index_t level,
           index_t item, std::string detail) {
    if (static_cast<index_t>(rep_.diagnostics.size()) < cap_) {
      rep_.diagnostics.push_back({kind, consumer_row, producer_row,
                                  consumer_thread, producer_thread, level,
                                  item, std::move(detail)});
    } else {
      ++rep_.suppressed;
    }
  }

  void structural(std::string detail) {
    add(DiagKind::kMalformed, kInvalidIndex, kInvalidIndex, -1, -1,
        kInvalidIndex, kInvalidIndex, std::move(detail));
  }

  bool has(DiagKind kind) const {
    for (const ScheduleDiagnostic& d : rep_.diagnostics) {
      if (d.kind == kind) return true;
    }
    return false;
  }

 private:
  VerifyReport& rep_;
  index_t cap_;
};

template <class Seq>
bool monotone(const Seq& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1]) return false;
  }
  return true;
}

/// What the happens-before phase proved about a schedule, for analyses of
/// phases that run after it (verify_tail): the producer maps and the
/// per-item vector clocks. `valid` only when every item was enumerated.
struct ScheduleClocks {
  bool valid = false;
  std::vector<index_t> owner;        ///< row -> executing thread
  std::vector<index_t> posn;         ///< row -> item position in its thread
  std::vector<index_t> clock;        ///< [item][thread]
};

}  // namespace

const char* diag_kind_name(DiagKind k) noexcept {
  switch (k) {
    case DiagKind::kMalformed: return "malformed";
    case DiagKind::kPartition: return "partition";
    case DiagKind::kLevelOrder: return "level_order";
    case DiagKind::kLevelDependency: return "level_dependency";
    case DiagKind::kWaitMetadata: return "wait_metadata";
    case DiagKind::kDeadlock: return "deadlock";
    case DiagKind::kUncoveredDependency: return "uncovered_dependency";
    case DiagKind::kStatsMismatch: return "stats_mismatch";
    case DiagKind::kRunLayout: return "run_layout";
  }
  return "unknown";
}

std::string ScheduleDiagnostic::to_string() const {
  std::ostringstream os;
  os << '[' << diag_kind_name(kind) << ']';
  if (consumer_row != kInvalidIndex) {
    os << " row " << consumer_row;
    if (consumer_thread >= 0) os << " (thread " << consumer_thread;
    if (consumer_thread >= 0 && item != kInvalidIndex) os << ", item " << item;
    if (consumer_thread >= 0 && level != kInvalidIndex)
      os << ", level " << level;
    if (consumer_thread >= 0) os << ')';
  }
  if (producer_row != kInvalidIndex) {
    os << " <- row " << producer_row;
    if (producer_thread >= 0) os << " (thread " << producer_thread << ')';
  }
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  if (ok()) {
    os << "ok: " << stats.deps_cross_thread << " cross-thread deps ("
       << stats.deps_covered_direct << " direct, "
       << stats.deps_covered_transitive << " transitive), "
       << stats.waits_total << " waits, " << stats.items
       << " items, " << stats.levels << " levels";
    return os.str();
  }
  os << diagnostics.size() + static_cast<std::size_t>(suppressed)
     << " diagnostic(s)";
  const std::size_t show = std::min<std::size_t>(diagnostics.size(), 4);
  for (std::size_t i = 0; i < show; ++i) {
    os << (i == 0 ? ": " : "; ") << diagnostics[i].to_string();
  }
  if (diagnostics.size() + static_cast<std::size_t>(suppressed) > show) {
    os << "; ...";
  }
  return os.str();
}

namespace {

/// verify_schedule, optionally exporting what it proved to `out`.
VerifyReport analyze_schedule(const ExecSchedule& s, const DepsFn& deps,
                              index_t max_diagnostics, ScheduleClocks* out) {
  VerifyReport rep;
  Sink sink(rep, max_diagnostics);

  // ---- Phase 0: shape. Everything downstream indexes through these
  // arrays, so a shape violation aborts the analysis (one diagnostic, no
  // undefined behavior) instead of limping on.
  const index_t n_rows = static_cast<index_t>(s.rows.size());
  const index_t n_serial = static_cast<index_t>(s.serial_order.size());

  if (s.thread_ptr.empty()) {
    // Default-constructed schedule: acceptable only if it schedules nothing
    // (the numeric phase's retarget cache keeps an empty backward one).
    if (n_rows != 0 || n_serial != 0) {
      sink.structural("thread_ptr empty but rows are scheduled");
    }
    return rep;
  }

  const int T = s.threads;
  if (T < 1) {
    sink.structural("threads < 1");
    return rep;
  }
  if (static_cast<index_t>(s.thread_ptr.size()) !=
          static_cast<index_t>(T) + 1 ||
      s.thread_ptr.front() != 0 || !monotone(s.thread_ptr)) {
    sink.structural("thread_ptr is not a monotone (threads+1)-pointer array");
    return rep;
  }
  const index_t n_items = s.thread_ptr.back();
  if (n_items > 0 &&
      (static_cast<index_t>(s.item_ptr.size()) != n_items + 1 ||
       s.item_ptr.front() != 0 || !monotone(s.item_ptr) ||
       s.item_ptr.back() != n_rows)) {
    sink.structural("item_ptr does not partition rows into items");
    return rep;
  }
  if (s.level_ptr.empty() || s.level_ptr.front() != 0 ||
      !monotone(s.level_ptr) || s.level_ptr.back() != n_serial) {
    sink.structural("level_ptr does not partition serial_order into levels");
    return rep;
  }
  const index_t n_levels = static_cast<index_t>(s.level_ptr.size()) - 1;
  if (s.num_levels != n_levels) {
    sink.add(DiagKind::kStatsMismatch, kInvalidIndex, kInvalidIndex, -1, -1,
             kInvalidIndex, kInvalidIndex,
             "stored num_levels disagrees with level_ptr");
  }
  for (index_t k = 0; k < n_rows; ++k) {
    const index_t r = s.rows[uz(k)];
    if (r < 0 || r >= s.n_total) {
      sink.structural("rows[] entry out of [0, n_total)");
      return rep;
    }
  }
  for (index_t k = 0; k < n_serial; ++k) {
    const index_t r = s.serial_order[uz(k)];
    if (r < 0 || r >= s.n_total) {
      sink.structural("serial_order[] entry out of [0, n_total)");
      return rep;
    }
  }
  // Wait arrays: a shape violation here only disables the happens-before
  // phase — partition and level analysis do not read them.
  bool waits_ok = true;
  if (n_items > 0) {
    if (static_cast<index_t>(s.wait_ptr.size()) != n_items + 1 ||
        s.wait_ptr.front() != 0 || !monotone(s.wait_ptr) ||
        static_cast<index_t>(s.wait_thread.size()) != s.wait_ptr.back() ||
        static_cast<index_t>(s.wait_count.size()) != s.wait_ptr.back()) {
      sink.structural("wait_ptr/wait_thread/wait_count shapes disagree");
      waits_ok = false;
    } else if (s.deps_kept != s.wait_ptr.back()) {
      sink.add(DiagKind::kStatsMismatch, kInvalidIndex, kInvalidIndex, -1, -1,
               kInvalidIndex, kInvalidIndex,
               "stored deps_kept disagrees with wait_ptr");
    }
  }

  // ---- Phase 1: partition — the items and the retained level structure
  // must name the same row set, each row exactly once on both sides. Along
  // the way record the producer maps the happens-before phase consumes
  // (owner thread, item position, global rows[] position).
  std::vector<index_t> owner(uz(s.n_total), kInvalidIndex);
  std::vector<index_t> posn(uz(s.n_total), kInvalidIndex);
  std::vector<index_t> item_at(uz(s.n_total), kInvalidIndex);
  std::vector<index_t> first_pos(uz(s.n_total), kInvalidIndex);
  for (int t = 0; t < T; ++t) {
    for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1]; ++i) {
      for (index_t k = s.item_ptr[uz(i)]; k < s.item_ptr[uz(i) + 1]; ++k) {
        const index_t r = s.rows[uz(k)];
        if (first_pos[uz(r)] != kInvalidIndex) {
          sink.add(DiagKind::kPartition, r, kInvalidIndex, t,
                   static_cast<int>(owner[uz(r)]), kInvalidIndex, i,
                   "row executed by more than one item");
        } else {
          first_pos[uz(r)] = k;
        }
        owner[uz(r)] = static_cast<index_t>(t);
        posn[uz(r)] = i - s.thread_ptr[uz(t)];
        item_at[uz(r)] = i;
      }
    }
  }
  std::vector<index_t> level_of(uz(s.n_total), kInvalidIndex);
  for (index_t l = 0; l < n_levels; ++l) {
    for (index_t k = s.level_ptr[uz(l)]; k < s.level_ptr[uz(l) + 1]; ++k) {
      const index_t r = s.serial_order[uz(k)];
      if (level_of[uz(r)] != kInvalidIndex) {
        sink.add(DiagKind::kPartition, r, kInvalidIndex, -1, -1, l,
                 kInvalidIndex, "row listed twice in the level structure");
      }
      level_of[uz(r)] = l;
    }
  }
  for (index_t r = 0; r < s.n_total; ++r) {
    const bool in_items = first_pos[uz(r)] != kInvalidIndex;
    const bool in_levels = level_of[uz(r)] != kInvalidIndex;
    if (in_levels && !in_items) {
      sink.add(DiagKind::kPartition, r, kInvalidIndex, -1, -1, level_of[uz(r)],
               kInvalidIndex, "row in the level structure is never executed");
    } else if (in_items && !in_levels) {
      sink.add(DiagKind::kPartition, r, kInvalidIndex,
               static_cast<int>(owner[uz(r)]), -1, kInvalidIndex,
               item_at[uz(r)],
               "executed row is absent from the level structure");
    }
  }
  const bool partition_clean = !sink.has(DiagKind::kPartition);

  // ---- Phase 2: level soundness. (a) Items must not mix levels and each
  // thread's item sequence must be level-monotone — the P2P pruning
  // argument ("dependencies live in strictly earlier items on every
  // thread") rests on exactly this. (b) The stored item_level the barrier
  // executor walks must name each item's level. (c) Every scheduled
  // dependency must live in a STRICTLY earlier level: the barrier backend
  // synchronizes only between levels, so a same-or-later-level dependency
  // is a data race under kBarrier no matter what the wait lists say.
  auto item_head_row = [&](index_t i) {
    return s.item_ptr[uz(i)] < s.item_ptr[uz(i) + 1]
               ? s.rows[uz(s.item_ptr[uz(i)])]
               : kInvalidIndex;
  };
  std::vector<index_t> item_level(uz(n_items), kInvalidIndex);
  for (int t = 0; t < T; ++t) {
    index_t prev_level = kInvalidIndex;
    for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1]; ++i) {
      for (index_t k = s.item_ptr[uz(i)]; k < s.item_ptr[uz(i) + 1]; ++k) {
        const index_t r = s.rows[uz(k)];
        const index_t lv = level_of[uz(r)];
        if (lv == kInvalidIndex) continue;  // partition already flagged it
        if (item_level[uz(i)] == kInvalidIndex) {
          item_level[uz(i)] = lv;
        } else if (item_level[uz(i)] != lv) {
          sink.add(DiagKind::kLevelOrder, r, kInvalidIndex, t, -1, lv, i,
                   "item mixes rows of different levels");
        }
      }
      if (item_level[uz(i)] != kInvalidIndex) {
        if (prev_level != kInvalidIndex && item_level[uz(i)] < prev_level) {
          sink.add(DiagKind::kLevelOrder, item_head_row(i), kInvalidIndex, t,
                   -1, item_level[uz(i)], i,
                   "thread's items are not in level order");
        }
        prev_level = item_level[uz(i)];
      }
    }
  }
  // (b) The barrier executor runs thread t's items tagged l between level
  // l's barriers, advancing while the tags match: a tag that is not the
  // level of the item's rows runs them between the wrong barriers, and an
  // out-of-range or descending tag leaves the item (and the thread's later
  // ones) never run.
  if (s.item_level.size() != uz(n_items)) {
    sink.add(DiagKind::kLevelOrder, kInvalidIndex, kInvalidIndex, -1, -1,
             kInvalidIndex, kInvalidIndex,
             "item_level does not hold one entry per item");
  } else {
    for (int t = 0; t < T; ++t) {
      index_t prev_tag = 0;
      for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1]; ++i) {
        const index_t tag = s.item_level[uz(i)];
        const char* what = nullptr;
        if (tag < 0 || tag >= n_levels) {
          what = "stored item level out of range";
        } else if (tag < prev_tag) {
          what = "stored item levels descend within the thread";
        } else if (item_level[uz(i)] != kInvalidIndex &&
                   tag != item_level[uz(i)]) {
          what = "stored item level is not the level of the item's rows";
        }
        if (what != nullptr) {
          sink.add(DiagKind::kLevelOrder, item_head_row(i), kInvalidIndex, t,
                   -1, item_level[uz(i)], i, what);
        } else {
          prev_tag = tag;
        }
      }
    }
  }
  for (index_t l = 0; l < n_levels; ++l) {
    for (index_t k = s.level_ptr[uz(l)]; k < s.level_ptr[uz(l) + 1]; ++k) {
      const index_t r = s.serial_order[uz(k)];
      deps(r, [&](index_t d) {
        if (d < 0 || d >= s.n_total) {
          sink.structural("dependency row out of [0, n_total)");
          return;
        }
        if (level_of[uz(d)] == kInvalidIndex) return;  // outside the set
        if (level_of[uz(d)] >= l) {
          sink.add(DiagKind::kLevelDependency, r, d,
                   static_cast<int>(owner[uz(r)]),
                   static_cast<int>(owner[uz(d)]), l, item_at[uz(r)],
                   "dependency is not in a strictly earlier level (barrier "
                   "backend would race)");
        }
      });
    }
  }

  rep.stats.items = n_items;
  rep.stats.levels = n_levels;
  if (!waits_ok) return rep;
  rep.stats.waits_total = n_items > 0 ? s.wait_ptr.back() : 0;

  // ---- Phase 3: wait metadata. Invalid edges are diagnosed and excluded
  // from the graph phases (they cannot be given a meaning).
  const index_t n_waits = rep.stats.waits_total;
  std::vector<char> wait_valid(uz(n_waits), 1);
  auto items_of = [&](index_t p) {
    return s.thread_ptr[uz(p) + 1] - s.thread_ptr[uz(p)];
  };
  for (int t = 0; t < T; ++t) {
    for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1]; ++i) {
      for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
        const index_t pt = s.wait_thread[uz(w)];
        const index_t cnt = s.wait_count[uz(w)];
        const char* what = nullptr;
        if (pt < 0 || pt >= static_cast<index_t>(T)) {
          what = "wait names a thread outside the team";
        } else if (pt == static_cast<index_t>(t)) {
          what = "item waits on its own thread";
        } else if (cnt < 1) {
          what = "wait count < 1 is a no-op (dependency effectively dropped)";
        } else if (cnt > items_of(pt)) {
          what = "wait count exceeds the producer thread's item count (can "
                 "never be satisfied)";
        }
        if (what != nullptr) {
          sink.add(DiagKind::kWaitMetadata, item_head_row(i), kInvalidIndex, t,
                   pt >= 0 && pt < static_cast<index_t>(T)
                       ? static_cast<int>(pt)
                       : -1,
                   item_level[uz(i)], i, what);
          wait_valid[uz(w)] = 0;
        }
      }
    }
  }

  // Item of the producer's thread whose publish releases (valid) wait w.
  auto wait_producer_item = [&](index_t w) {
    return s.thread_ptr[uz(s.wait_thread[uz(w)])] + s.wait_count[uz(w)] - 1;
  };

  // ---- Phase 3b: run layer. The P2P executor runs each run as one
  // wait list (its first item's), one row range and one publish (its last
  // item's count). That is the item model analyzed below exactly when the
  // runs partition each thread's items in order, no item but a run's first
  // has waits (the executor would never perform them), and every count a
  // valid wait names ends a run of the producer thread (a count inside a
  // run is published only at the run's end — later than the item model
  // says, and a wait on it could close a cycle the item graph cannot see).
  {
    const auto run_diag = [&](index_t i, int t, index_t producer_row,
                              int producer_thread, const char* what) {
      const bool item_ok = i >= 0 && i < n_items;
      sink.add(DiagKind::kRunLayout, item_ok ? item_head_row(i) : kInvalidIndex,
               producer_row, t, producer_thread,
               item_ok ? item_level[uz(i)] : kInvalidIndex,
               item_ok ? i : kInvalidIndex, what);
    };
    const index_t n_runs = s.num_runs();
    if (s.thread_run_ptr.size() != uz(T) + 1 || s.thread_run_ptr.front() != 0 ||
        !monotone(s.thread_run_ptr) || s.run_ptr.empty() ||
        s.thread_run_ptr.back() != n_runs) {
      run_diag(kInvalidIndex, -1, kInvalidIndex, -1,
               "thread_run_ptr/run_ptr do not index a run per thread");
    } else {
      std::vector<char> run_end(uz(n_items), 0);
      bool partitioned = true;
      for (int t = 0; t < T; ++t) {
        index_t next = s.thread_ptr[uz(t)];
        const index_t hi = s.thread_ptr[uz(t) + 1];
        for (index_t r = s.thread_run_ptr[uz(t)];
             r < s.thread_run_ptr[uz(t) + 1]; ++r) {
          const index_t i0 = s.run_ptr[uz(r)];
          const index_t i1 = s.run_ptr[uz(r) + 1];
          if (i0 != next || i1 <= i0 || i1 > hi) {
            run_diag(next < hi ? next : kInvalidIndex, t, kInvalidIndex, -1,
                     "runs do not partition the thread's items in order");
            partitioned = false;
            break;
          }
          for (index_t i = i0 + 1; i < i1; ++i) {
            if (s.wait_ptr[uz(i) + 1] > s.wait_ptr[uz(i)]) {
              run_diag(i, t, kInvalidIndex, -1,
                       "item inside a run has a wait list (the run executor "
                       "never performs it)");
            }
          }
          run_end[uz(i1) - 1] = 1;
          next = i1;
        }
        if (partitioned && next != hi) {
          run_diag(next, t, kInvalidIndex, -1,
                   "runs do not cover the thread's items");
          partitioned = false;
        }
        if (!partitioned) break;
      }
      for (int t = 0; partitioned && t < T; ++t) {
        for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1];
             ++i) {
          for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
            if (!wait_valid[uz(w)]) continue;
            const index_t p_item = wait_producer_item(w);
            if (!run_end[uz(p_item)]) {
              run_diag(i, t, item_head_row(p_item),
                       static_cast<int>(s.wait_thread[uz(w)]),
                       "wait names a count inside a run of the producer "
                       "thread (published only at the run's end)");
            }
          }
        }
      }
    }
  }

  // ---- Phase 4: deadlock. Kahn's toposort over the item graph — edges are
  // per-thread program order plus (producer item -> waiting item) for every
  // valid wait. Items left unprocessed sit on a cycle (or behind one): at
  // runtime they would spin forever.
  std::vector<index_t> thread_of(uz(n_items), 0);
  for (int t = 0; t < T; ++t) {
    for (index_t i = s.thread_ptr[uz(t)]; i < s.thread_ptr[uz(t) + 1]; ++i) {
      thread_of[uz(i)] = static_cast<index_t>(t);
    }
  }
  std::vector<index_t> indeg(uz(n_items), 0);
  std::vector<index_t> succ_ptr(uz(n_items) + 1, 0);
  for (index_t i = 0; i < n_items; ++i) {
    const int t = static_cast<int>(thread_of[uz(i)]);
    if (i != s.thread_ptr[uz(t)]) {
      ++succ_ptr[uz(i - 1) + 1];
      ++indeg[uz(i)];
    }
    for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
      if (!wait_valid[uz(w)]) continue;
      ++succ_ptr[uz(wait_producer_item(w)) + 1];
      ++indeg[uz(i)];
    }
  }
  for (std::size_t i = 1; i < succ_ptr.size(); ++i) {
    succ_ptr[i] += succ_ptr[i - 1];
  }
  std::vector<index_t> succ(uz(n_items > 0 ? succ_ptr.back() : 0), 0);
  {
    std::vector<index_t> cursor(succ_ptr.begin(), succ_ptr.end() - 1);
    for (index_t i = 0; i < n_items; ++i) {
      const int t = static_cast<int>(thread_of[uz(i)]);
      if (i != s.thread_ptr[uz(t)]) {
        succ[uz(cursor[uz(i - 1)]++)] = i;
      }
      for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
        if (!wait_valid[uz(w)]) continue;
        succ[uz(cursor[uz(wait_producer_item(w))]++)] = i;
      }
    }
  }
  std::vector<index_t> topo;
  topo.reserve(uz(n_items));
  for (index_t i = 0; i < n_items; ++i) {
    if (indeg[uz(i)] == 0) topo.push_back(i);
  }
  for (std::size_t head = 0; head < topo.size(); ++head) {
    const index_t i = topo[head];
    for (index_t q = succ_ptr[uz(i)]; q < succ_ptr[uz(i) + 1]; ++q) {
      const index_t j = succ[uz(q)];
      if (--indeg[uz(j)] == 0) topo.push_back(j);
    }
  }
  const index_t items_done = static_cast<index_t>(topo.size());
  if (items_done < n_items) {
    std::vector<char> processed(uz(n_items), 0);
    for (index_t i : topo) processed[uz(i)] = 1;
    for (index_t i = 0; i < n_items; ++i) {
      if (processed[uz(i)]) continue;
      // Attach the first blocking wait edge for precision; a stuck
      // predecessor chain is reported on the item that owns the stuck wait.
      index_t pr = kInvalidIndex;
      int pt = -1;
      for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
        if (!wait_valid[uz(w)]) continue;
        const index_t p_item = wait_producer_item(w);
        if (!processed[uz(p_item)]) {
          pr = item_head_row(p_item);
          pt = static_cast<int>(s.wait_thread[uz(w)]);
          break;
        }
      }
      sink.add(DiagKind::kDeadlock, item_head_row(i), pr,
               static_cast<int>(thread_of[uz(i)]), pt, item_level[uz(i)], i,
               "item can never start: cyclic or unsatisfiable wait chain");
    }
  }

  // ---- Phase 5: happens-before coverage via vector clocks. Processing
  // items in topological order, clock[i][p] = number of items thread p is
  // guaranteed to have PUBLISHED once item i has published: program order
  // carries the previous item's clock, each valid wait merges the producer
  // item's clock (the P2P executor's acquire-load of the progress counter
  // makes everything the producer saw visible too — transitive publish
  // order). A cross-thread dependency on row d owned by thread p at item
  // position q is covered iff the consumer's pre-execution clock has
  // clock[p] >= q+1; it is DIRECT if one of the consuming item's own waits
  // reaches q+1, else TRANSITIVE (the sparsification's savings, quantified).
  std::vector<index_t> clock(uz(n_items) * uz(T), 0);
  std::vector<index_t> before(uz(T), 0);
  std::vector<index_t> direct_high(uz(T), 0);
  VerifyStats& st = rep.stats;
  for (const index_t i : topo) {
    const int t = static_cast<int>(thread_of[uz(i)]);
    if (i == s.thread_ptr[uz(t)]) {
      std::fill(before.begin(), before.end(), 0);
    } else {
      const index_t* prev = clock.data() + uz(i - 1) * uz(T);
      std::copy(prev, prev + T, before.begin());
    }
    std::fill(direct_high.begin(), direct_high.end(), 0);
    for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
      if (!wait_valid[uz(w)]) continue;
      const index_t pt = s.wait_thread[uz(w)];
      const index_t cnt = s.wait_count[uz(w)];
      direct_high[uz(pt)] = std::max(direct_high[uz(pt)], cnt);
      const index_t* pc = clock.data() + uz(wait_producer_item(w)) * uz(T);
      for (int p = 0; p < T; ++p) {
        before[uz(p)] = std::max(before[uz(p)], pc[uz(p)]);
      }
    }
    for (index_t k = s.item_ptr[uz(i)]; k < s.item_ptr[uz(i) + 1]; ++k) {
      const index_t r = s.rows[uz(k)];
      deps(r, [&](index_t d) {
        if (d < 0 || d >= s.n_total) return;  // diagnosed in phase 2
        const index_t ot = owner[uz(d)];
        if (ot == kInvalidIndex) {
          ++st.deps_external;
          return;
        }
        if (ot == static_cast<index_t>(t)) {
          ++st.deps_same_thread;
          const bool ordered =
              item_at[uz(d)] < i ||
              (item_at[uz(d)] == i && first_pos[uz(d)] < k);
          if (!ordered) {
            sink.add(DiagKind::kUncoveredDependency, r, d, t, t,
                     level_of[uz(r)], i,
                     "same-thread dependency executes at or after its "
                     "consumer in program order");
          }
          return;
        }
        ++st.deps_cross_thread;
        const index_t need = posn[uz(d)] + 1;
        if (before[uz(ot)] >= need) {
          if (direct_high[uz(ot)] >= need) {
            ++st.deps_covered_direct;
          } else {
            ++st.deps_covered_transitive;
          }
        } else {
          ++st.deps_uncovered;
          sink.add(DiagKind::kUncoveredDependency, r, d, t,
                   static_cast<int>(ot), level_of[uz(r)], i,
                   "no wait or transitive publish chain orders the producer "
                   "before the consumer (latent data race)");
        }
      });
    }
    index_t* after = clock.data() + uz(i) * uz(T);
    std::copy(before.begin(), before.end(), after);
    after[uz(t)] = (i - s.thread_ptr[uz(t)]) + 1;
  }

  // Stats bookkeeping is only comparable when the row sets agree and every
  // item was enumerated (duplicated rows double-count their dependencies;
  // deadlocked items are never reached).
  if (partition_clean && items_done == n_items &&
      s.deps_total != st.deps_cross_thread) {
    sink.add(DiagKind::kStatsMismatch, kInvalidIndex, kInvalidIndex, -1, -1,
             kInvalidIndex, kInvalidIndex,
             "stored deps_total disagrees with the dependency enumeration");
  }
  if (out != nullptr) {
    out->valid = items_done == n_items;
    out->owner = std::move(owner);
    out->posn = std::move(posn);
    out->clock = std::move(clock);
  }
  return rep;
}

}  // namespace

VerifyReport verify_schedule(const ExecSchedule& s, const DepsFn& deps,
                             index_t max_diagnostics) {
  return analyze_schedule(s, deps, max_diagnostics, nullptr);
}

VerifyReport verify_tail(const ExecSchedule& s, const DepsFn& deps,
                         const ExecTail& tail, const TailDepsFn& tail_deps,
                         index_t max_diagnostics) {
  ScheduleClocks sc;
  VerifyReport rep = analyze_schedule(s, deps, max_diagnostics, &sc);
  rep.stats = VerifyStats{};  // from here on the stats describe the tail
  Sink sink(rep, max_diagnostics);

  // ---- Shape: the tail must be indexable against the schedule's team.
  const index_t n_chunks = tail.num_chunks();
  if (s.thread_ptr.empty()) {
    if (n_chunks != 0) sink.structural("tail chunks behind an empty schedule");
    return rep;
  }
  const int T = s.threads;
  if (static_cast<index_t>(tail.thread_ptr.size()) !=
          static_cast<index_t>(T) + 1 ||
      tail.thread_ptr.front() != 0 || !monotone(tail.thread_ptr)) {
    sink.structural("tail thread_ptr is not a monotone (threads+1)-pointer "
                    "array");
    return rep;
  }
  if (n_chunks == 0) return rep;
  if (static_cast<index_t>(tail.wait_ptr.size()) != n_chunks + 1 ||
      tail.wait_ptr.front() != 0 || !monotone(tail.wait_ptr) ||
      static_cast<index_t>(tail.wait_thread.size()) != tail.wait_ptr.back() ||
      static_cast<index_t>(tail.wait_count.size()) != tail.wait_ptr.back()) {
    sink.structural("tail wait_ptr/wait_thread/wait_count shapes disagree");
    return rep;
  }
  VerifyStats& st = rep.stats;
  st.items = n_chunks;
  st.waits_total = tail.wait_ptr.back();
  if (!sc.valid) return rep;  // the schedule's own defects are reported

  // ---- Coverage. A chunk on thread t starts after every item of t (program
  // order), so its clock starts from t's last item; each of its waits — and
  // each wait of t's earlier chunks — merges the producer item's clock, as
  // in the item analysis. The schedule is proven under P2P, because a
  // schedule carries no backend and may run under either (the barrier
  // executor's last level barrier orders strictly more).
  const auto items_of = [&](index_t p) {
    return s.thread_ptr[uz(p) + 1] - s.thread_ptr[uz(p)];
  };
  std::vector<index_t> before(uz(T), 0);
  std::vector<index_t> direct_high(uz(T), 0);
  for (int t = 0; t < T; ++t) {
    if (items_of(t) > 0) {
      const index_t* last = sc.clock.data() +
                            uz(s.thread_ptr[uz(t) + 1] - 1) * uz(T);
      std::copy(last, last + T, before.begin());
    } else {
      std::fill(before.begin(), before.end(), 0);
    }
    for (index_t c = tail.thread_ptr[uz(t)]; c < tail.thread_ptr[uz(t) + 1];
         ++c) {
      std::fill(direct_high.begin(), direct_high.end(), 0);
      for (index_t w = tail.wait_ptr[uz(c)]; w < tail.wait_ptr[uz(c) + 1];
           ++w) {
        const index_t pt = tail.wait_thread[uz(w)];
        const index_t cnt = tail.wait_count[uz(w)];
        const char* what = nullptr;
        if (pt < 0 || pt >= static_cast<index_t>(T)) {
          what = "tail wait names a thread outside the team";
        } else if (pt == static_cast<index_t>(t)) {
          what = "tail chunk waits on its own thread";
        } else if (cnt < 1 || cnt > items_of(pt)) {
          what = "tail wait count outside [1, producer item count]";
        }
        if (what != nullptr) {
          sink.add(DiagKind::kWaitMetadata, kInvalidIndex, kInvalidIndex, t,
                   pt >= 0 && pt < static_cast<index_t>(T)
                       ? static_cast<int>(pt)
                       : -1,
                   kInvalidIndex, c, what);
          continue;
        }
        direct_high[uz(pt)] = std::max(direct_high[uz(pt)], cnt);
        const index_t* pc =
            sc.clock.data() + uz(s.thread_ptr[uz(pt)] + cnt - 1) * uz(T);
        for (int p = 0; p < T; ++p) {
          before[uz(p)] = std::max(before[uz(p)], pc[uz(p)]);
        }
      }
      tail_deps(c, [&](index_t consumer, index_t d) {
        if (d < 0 || d >= s.n_total) {
          sink.structural("tail dependency row out of [0, n_total)");
          return;
        }
        const index_t ot = sc.owner[uz(d)];
        if (ot == kInvalidIndex) {
          ++st.deps_external;
        } else if (ot == static_cast<index_t>(t)) {
          ++st.deps_same_thread;
        } else {
          ++st.deps_cross_thread;
          const index_t need = sc.posn[uz(d)] + 1;
          if (direct_high[uz(ot)] >= need) {
            ++st.deps_covered_direct;
          } else if (before[uz(ot)] >= need) {
            ++st.deps_covered_transitive;
          } else {
            ++st.deps_uncovered;
            sink.add(DiagKind::kUncoveredDependency, consumer, d, t,
                     static_cast<int>(ot), kInvalidIndex, c,
                     "no tail wait or transitive publish chain orders the "
                     "producer before the chunk (latent data race)");
          }
        }
      });
    }
  }
  return rep;
}

void verify_tail_or_throw(const ExecSchedule& s, const DepsFn& deps,
                          const ExecTail& tail, const TailDepsFn& tail_deps,
                          const char* what) {
  const VerifyReport rep =
      verify_tail(s, deps, tail, tail_deps, /*max_diagnostics=*/8);
  if (!rep.ok()) {
    throw Error(std::string("tail verification failed (") + what +
                "): " + rep.summary());
  }
}

void verify_schedule_or_throw(const ExecSchedule& s, const DepsFn& deps,
                              const char* what) {
  const VerifyReport rep = verify_schedule(s, deps, /*max_diagnostics=*/8);
  if (!rep.ok()) {
    throw Error(std::string("schedule verification failed (") + what +
                "): " + rep.summary());
  }
}

}  // namespace javelin::verify
