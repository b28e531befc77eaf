#include "javelin/exec/schedule.hpp"

#include <algorithm>
#include <utility>

#include "javelin/graph/levels.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

namespace {

/// Thread t's share of a level of `rows` rows, as offsets into the level:
/// the level is cut into ceil(rows / chunk) items of `chunk` consecutive
/// rows (the last may be short) and thread t takes a contiguous run of whole
/// items (partition_range over items), so the share starts on an item
/// boundary.
Range level_slice(index_t rows, int threads, int t, index_t chunk) noexcept {
  const Range items = partition_range((rows + chunk - 1) / chunk, threads, t);
  return {std::min(rows, items.begin * chunk),
          std::min(rows, items.end * chunk)};
}

}  // namespace

void ExecSchedule::producer_positions(std::vector<index_t>& owner,
                                      std::vector<index_t>& item_of) const {
  owner.assign(static_cast<std::size_t>(n_total), kInvalidIndex);
  item_of.assign(static_cast<std::size_t>(n_total), kInvalidIndex);
  for (int t = 0; t < threads; ++t) {
    for (index_t i = thread_ptr[static_cast<std::size_t>(t)];
         i < thread_ptr[static_cast<std::size_t>(t) + 1]; ++i) {
      for (index_t k = item_ptr[static_cast<std::size_t>(i)];
           k < item_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const index_t row = rows[static_cast<std::size_t>(k)];
        owner[static_cast<std::size_t>(row)] = static_cast<index_t>(t);
        item_of[static_cast<std::size_t>(row)] =
            i - thread_ptr[static_cast<std::size_t>(t)];
      }
    }
  }
}

void build_sparsified_waits(int threads,
                            std::span<const index_t> consumer_thread_ptr,
                            const WaitSeedFn& seed, const WaitDepsFn& deps,
                            std::vector<index_t>& wait_ptr,
                            std::vector<index_t>& wait_thread,
                            std::vector<index_t>& wait_count,
                            index_t& deps_total, index_t& deps_kept) {
  const int T = threads;
  const index_t n_consumers = consumer_thread_ptr[static_cast<std::size_t>(T)];
  wait_ptr.assign(static_cast<std::size_t>(n_consumers) + 1, 0);
  wait_thread.clear();
  wait_count.clear();
  deps_total = 0;

  // Per-consumer dedup (max need per producer; 0 = not needed, counts are
  // >= 1) feeding a per-thread monotone high-water prune: a wait is stored
  // only when it raises what this consumer thread has already waited for
  // on that producer. Consumers are visited in index order, so each list
  // is appended where the previous one ended.
  std::vector<index_t> need(static_cast<std::size_t>(T), 0);
  std::vector<index_t> touched;
  std::vector<index_t> last_wait(static_cast<std::size_t>(T), 0);
  // Built once, not once per consumer: its captures overflow the
  // std::function small buffer, so each construction would allocate.
  const std::function<void(index_t, index_t)> collect = [&](index_t ot,
                                                            index_t cnt) {
    ++deps_total;
    index_t& nd = need[static_cast<std::size_t>(ot)];
    if (nd == 0) touched.push_back(ot);
    nd = std::max(nd, cnt);
  };
  for (int t = 0; t < T; ++t) {
    std::fill(last_wait.begin(), last_wait.end(), 0);
    if (seed) seed(t, last_wait);
    for (index_t c = consumer_thread_ptr[static_cast<std::size_t>(t)];
         c < consumer_thread_ptr[static_cast<std::size_t>(t) + 1]; ++c) {
      deps(t, c, collect);
      std::sort(touched.begin(), touched.end());
      for (index_t ot : touched) {
        const index_t cnt = std::exchange(need[static_cast<std::size_t>(ot)], 0);
        if (cnt <= last_wait[static_cast<std::size_t>(ot)]) continue;
        last_wait[static_cast<std::size_t>(ot)] = cnt;
        wait_thread.push_back(ot);
        wait_count.push_back(cnt);
      }
      touched.clear();
      wait_ptr[static_cast<std::size_t>(c) + 1] =
          static_cast<index_t>(wait_thread.size());
    }
  }
  deps_kept = static_cast<index_t>(wait_thread.size());
}

ExecSchedule build_exec_schedule(index_t n_total,
                                 std::vector<index_t> level_ptr,
                                 std::vector<index_t> rows_by_level,
                                 const DepsFn& deps, int threads,
                                 index_t chunk_rows) {
  ExecSchedule s;
  s.threads = std::max(1, threads);
  s.n_total = n_total;
  s.num_levels = static_cast<index_t>(level_ptr.size()) - 1;
  s.level_ptr = std::move(level_ptr);
  s.serial_order = std::move(rows_by_level);

  const index_t chunk = std::max<index_t>(1, chunk_rows);
  s.chunk_rows = chunk;
  const index_t n_rows = static_cast<index_t>(s.serial_order.size());
  const int T = s.threads;

  // Pass 1: give each thread its level_slice of every level, block each
  // (level, thread) slice into items of up to `chunk` rows, and record each
  // item's level and (owner, item position) per row. Items never cross a
  // level boundary — that keeps every item's dependencies in strictly
  // earlier items on every thread (deadlock freedom). Both executors run
  // these stored items, so they execute identical (row, thread)
  // assignments.
  std::vector<index_t> row_count(static_cast<std::size_t>(T), 0);
  std::vector<index_t> item_count(static_cast<std::size_t>(T), 0);
  for (index_t l = 0; l < s.num_levels; ++l) {
    const index_t lsz = s.level_ptr[static_cast<std::size_t>(l) + 1] -
                        s.level_ptr[static_cast<std::size_t>(l)];
    for (int t = 0; t < T; ++t) {
      const index_t r = level_slice(lsz, T, t, chunk).size();
      row_count[static_cast<std::size_t>(t)] += r;
      item_count[static_cast<std::size_t>(t)] += (r + chunk - 1) / chunk;
    }
  }
  std::vector<index_t> row_base(static_cast<std::size_t>(T) + 1, 0);
  s.thread_ptr.assign(static_cast<std::size_t>(T) + 1, 0);
  for (int t = 0; t < T; ++t) {
    row_base[static_cast<std::size_t>(t) + 1] =
        row_base[static_cast<std::size_t>(t)] + row_count[static_cast<std::size_t>(t)];
    s.thread_ptr[static_cast<std::size_t>(t) + 1] =
        s.thread_ptr[static_cast<std::size_t>(t)] + item_count[static_cast<std::size_t>(t)];
  }
  const index_t n_items = s.thread_ptr.back();
  s.rows.assign(static_cast<std::size_t>(n_rows), kInvalidIndex);
  s.item_ptr.assign(static_cast<std::size_t>(n_items) + 1, 0);
  s.item_level.assign(static_cast<std::size_t>(n_items), kInvalidIndex);

  std::vector<index_t> owner(static_cast<std::size_t>(n_total), kInvalidIndex);
  std::vector<index_t> posn(static_cast<std::size_t>(n_total), kInvalidIndex);
  std::vector<index_t> rcursor(row_base.begin(), row_base.end() - 1);
  std::vector<index_t> icursor(s.thread_ptr.begin(), s.thread_ptr.end() - 1);
  for (index_t l = 0; l < s.num_levels; ++l) {
    const index_t base = s.level_ptr[static_cast<std::size_t>(l)];
    const index_t lsz = s.level_ptr[static_cast<std::size_t>(l) + 1] - base;
    for (int t = 0; t < T; ++t) {
      const Range rr = level_slice(lsz, T, t, chunk);
      for (index_t idx = rr.begin; idx < rr.end;) {
        const index_t take = std::min<index_t>(chunk, rr.end - idx);
        const index_t item = icursor[static_cast<std::size_t>(t)]++;
        s.item_level[static_cast<std::size_t>(item)] = l;
        for (index_t i = 0; i < take; ++i) {
          const index_t row =
              s.serial_order[static_cast<std::size_t>(base + idx + i)];
          const index_t p = rcursor[static_cast<std::size_t>(t)]++;
          s.rows[static_cast<std::size_t>(p)] = row;
          owner[static_cast<std::size_t>(row)] = static_cast<index_t>(t);
          posn[static_cast<std::size_t>(row)] =
              item - s.thread_ptr[static_cast<std::size_t>(t)];
        }
        s.item_ptr[static_cast<std::size_t>(item) + 1] =
            rcursor[static_cast<std::size_t>(t)];
        idx += take;
      }
    }
  }
  // Item start offsets: consecutive items of one thread share boundaries, so
  // only each thread's first item start needs pinning to its row base. (A
  // thread with no rows has row_base[t] == row_base[t+1]; the shared entry
  // stays consistent.)
  for (int t = 0; t < T; ++t) {
    s.item_ptr[static_cast<std::size_t>(s.thread_ptr[static_cast<std::size_t>(t)])] =
        row_base[static_cast<std::size_t>(t)];
  }

  // Pass 2: sparsified per-item wait lists. An item's need is the max over
  // all its rows; same-thread and unscheduled dependencies are filtered
  // here, the dedup + monotone pruning live in build_sparsified_waits.
  // Built for either backend: the P2P executor runs on them; the barrier
  // executor just never reads them.
  // The per-row callback is built once and reaches the current item's
  // thread and yield through `cur`, so no row allocates a std::function.
  struct {
    index_t t = 0;
    const std::function<void(index_t, index_t)>* yield = nullptr;
  } cur;
  const std::function<void(index_t)> on_dep = [&](index_t d) {
    const index_t ot = owner[static_cast<std::size_t>(d)];
    if (ot == kInvalidIndex || ot == cur.t) return;
    (*cur.yield)(ot, posn[static_cast<std::size_t>(d)] + 1);
  };
  build_sparsified_waits(
      T, s.thread_ptr, /*seed=*/{},
      [&](int t, index_t i,
          const std::function<void(index_t, index_t)>& yield) {
        cur.t = static_cast<index_t>(t);
        cur.yield = &yield;
        for (index_t k = s.item_ptr[static_cast<std::size_t>(i)];
             k < s.item_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
          deps(s.rows[static_cast<std::size_t>(k)], on_dep);
        }
      },
      s.wait_ptr, s.wait_thread, s.wait_count, s.deps_total, s.deps_kept);
  build_run_layer(s);
  return s;
}

void build_run_layer(ExecSchedule& s) {
  const auto uz = [](index_t i) { return static_cast<std::size_t>(i); };
  const int T = s.threads;
  s.thread_run_ptr.clear();
  s.run_ptr.clear();
  if (T < 1 || s.thread_ptr.size() != uz(T) + 1 || s.thread_ptr[0] != 0 ||
      !std::is_sorted(s.thread_ptr.begin(), s.thread_ptr.end())) {
    return;  // schedules nothing, or not indexable (the verifier says which)
  }
  const index_t n_items = s.thread_ptr.back();
  const bool waits_ok = s.wait_ptr.size() == uz(n_items) + 1 &&
                        s.wait_thread.size() == uz(s.wait_ptr.back()) &&
                        s.wait_count.size() == uz(s.wait_ptr.back());
  // named[i]: a wait of the schedule names item i's count, so a run must
  // end after item i for that wait to be released when item i is done.
  std::vector<char> named(uz(n_items), 0);
  if (waits_ok) {
    for (std::size_t w = 0; w < s.wait_thread.size(); ++w) {
      const index_t pt = s.wait_thread[w];
      if (pt < 0 || pt >= static_cast<index_t>(T)) continue;
      const index_t cnt = s.wait_count[w];
      if (cnt < 1 || cnt > s.thread_ptr[uz(pt) + 1] - s.thread_ptr[uz(pt)]) {
        continue;
      }
      named[uz(s.thread_ptr[uz(pt)] + cnt - 1)] = 1;
    }
  }
  const auto has_waits = [&](index_t i) {
    return waits_ok && s.wait_ptr[uz(i) + 1] > s.wait_ptr[uz(i)];
  };
  s.thread_run_ptr.assign(uz(T) + 1, 0);
  s.run_ptr.push_back(0);
  for (int t = 0; t < T; ++t) {
    const index_t hi = s.thread_ptr[uz(t) + 1];
    for (index_t i = s.thread_ptr[uz(t)]; i < hi; ++i) {
      if (i + 1 == hi || named[uz(i)] || has_waits(i + 1)) {
        s.run_ptr.push_back(i + 1);
      }
    }
    s.thread_run_ptr[uz(t) + 1] = static_cast<index_t>(s.run_ptr.size()) - 1;
  }
}

ExecSchedule retarget(const ExecSchedule& s, const DepsFn& deps, int threads) {
  // Same builder, same retained level structure, new team: the result is
  // field-for-field identical to a fresh build at `threads` by construction.
  return build_exec_schedule(s.n_total, s.level_ptr, s.serial_order, deps,
                             threads, s.chunk_rows);
}

DepsFn lower_triangular_deps(const CsrMatrix& lu) {
  const CsrMatrix* m = &lu;
  return [m](index_t row, const std::function<void(index_t)>& yield) {
    for (index_t c : m->row_cols(row)) {
      if (c >= row) break;
      yield(c);
    }
  };
}

DepsFn upper_triangular_deps(const CsrMatrix& lu) {
  const CsrMatrix* m = &lu;
  return [m](index_t row, const std::function<void(index_t)>& yield) {
    auto cols = m->row_cols(row);
    for (std::size_t k = cols.size(); k-- > 0;) {
      if (cols[k] <= row) break;
      yield(cols[k]);
    }
  };
}

ExecSchedule build_forward_schedule(const CsrMatrix& lu,
                                    std::span<const index_t> plan_level_ptr,
                                    bool plan_is_lower, int threads,
                                    index_t chunk_rows) {
  const index_t n = lu.rows();
  JAVELIN_CHECK(!plan_level_ptr.empty() && plan_level_ptr.front() == 0 &&
                    plan_level_ptr.back() == n,
                "plan levels must cover every row");
  if (!plan_is_lower) {
    LevelSets own = compute_level_sets_lower(lu);
    // Only the grouping moves in; the per-row levels go before the builder
    // allocates.
    own.level = std::vector<index_t>();
    return build_exec_schedule(n, std::move(own.level_ptr),
                               std::move(own.rows_by_level),
                               lower_triangular_deps(lu), threads, chunk_rows);
  }
  // The L level pass would return these same levels. Skipping it saves its
  // time (about 40 ms on the thermal2 analog at scale 1.0) and its per-row
  // array, which raised batch_thermal2's peak RSS by 3.6 MB (README).
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k) rows[static_cast<std::size_t>(k)] = k;
  return build_exec_schedule(
      n, std::vector<index_t>(plan_level_ptr.begin(), plan_level_ptr.end()),
      std::move(rows), lower_triangular_deps(lu), threads, chunk_rows);
}

ExecSchedule build_backward_schedule(const CsrMatrix& lu,
                                     std::span<const index_t> level_ptr,
                                     int threads, index_t chunk_rows) {
  const index_t n = lu.rows();
  JAVELIN_CHECK(!level_ptr.empty() && level_ptr.front() == 0 &&
                    level_ptr.back() == n,
                "plan levels must cover every row");
  // Plan level k covers rows [b_k, b_k+1); listed last to first with rows
  // descending, it occupies serial positions [n - b_k+1, n - b_k).
  std::vector<index_t> rev(level_ptr.rbegin(), level_ptr.rend());
  for (index_t& b : rev) b = n - b;
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k) rows[static_cast<std::size_t>(k)] = n - 1 - k;
  return build_exec_schedule(n, std::move(rev), std::move(rows),
                             upper_triangular_deps(lu), threads, chunk_rows);
}

}  // namespace javelin
