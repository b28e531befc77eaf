#include "javelin/exec/schedule.hpp"

#include <algorithm>
#include <utility>

namespace javelin {

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
  deps_kept = 0;

  // Per-consumer dedup (gen-stamped max need per producer) feeding a
  // per-thread monotone high-water prune: a wait is stored only when it
  // raises what this consumer thread has already waited for on that
  // producer. Pass 0 counts, pass 1 fills.
  std::vector<index_t> need(static_cast<std::size_t>(T), 0);
  std::vector<std::uint64_t> need_stamp(static_cast<std::size_t>(T), 0);
  std::uint64_t gen = 0;
  std::vector<index_t> touched;
  std::vector<index_t> last_wait(static_cast<std::size_t>(T), 0);

  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) {
      for (std::size_t i = 1; i < wait_ptr.size(); ++i) {
        wait_ptr[i] += wait_ptr[i - 1];
      }
      wait_thread.assign(static_cast<std::size_t>(wait_ptr.back()), 0);
      wait_count.assign(static_cast<std::size_t>(wait_ptr.back()), 0);
    }
    for (int t = 0; t < T; ++t) {
      std::fill(last_wait.begin(), last_wait.end(), 0);
      if (seed) seed(t, last_wait);
      for (index_t c = consumer_thread_ptr[static_cast<std::size_t>(t)];
           c < consumer_thread_ptr[static_cast<std::size_t>(t) + 1]; ++c) {
        ++gen;
        touched.clear();
        deps(t, c, [&](index_t ot, index_t cnt) {
          if (pass == 0) ++deps_total;
          if (need_stamp[static_cast<std::size_t>(ot)] != gen) {
            need_stamp[static_cast<std::size_t>(ot)] = gen;
            need[static_cast<std::size_t>(ot)] = cnt;
            touched.push_back(ot);
          } else {
            need[static_cast<std::size_t>(ot)] =
                std::max(need[static_cast<std::size_t>(ot)], cnt);
          }
        });
        std::sort(touched.begin(), touched.end());
        index_t w = (pass == 1) ? wait_ptr[static_cast<std::size_t>(c)] : 0;
        index_t kept = 0;
        for (index_t ot : touched) {
          const index_t cnt = need[static_cast<std::size_t>(ot)];
          if (cnt <= last_wait[static_cast<std::size_t>(ot)]) continue;
          last_wait[static_cast<std::size_t>(ot)] = cnt;
          if (pass == 1) {
            wait_thread[static_cast<std::size_t>(w)] = ot;
            wait_count[static_cast<std::size_t>(w)] = cnt;
            ++w;
          }
          ++kept;
        }
        if (pass == 0) {
          wait_ptr[static_cast<std::size_t>(c) + 1] = kept;
          deps_kept += kept;
        }
      }
    }
  }
}

ExecSchedule build_exec_schedule(ExecBackend backend, index_t n_total,
                                 std::vector<index_t> level_ptr,
                                 std::vector<index_t> rows_by_level,
                                 const DepsFn& deps, int threads,
                                 index_t chunk_rows) {
  ExecSchedule s;
  s.backend = backend;
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
  // (level, thread) slice into items of up to `chunk` rows, and record
  // (owner, item position) per row. Items never cross a level boundary —
  // that keeps every item's dependencies in strictly earlier items on every
  // thread (deadlock freedom). The barrier executor recomputes the SAME
  // slices from level_ptr at run time, so the two backends execute
  // identical (row, thread) assignments.
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
  // Built for either backend: the waits are what a later retarget() or
  // backend switch relies on; the barrier executor just never reads them.
  build_sparsified_waits(
      T, s.thread_ptr, /*seed=*/{},
      [&](int t, index_t i,
          const std::function<void(index_t, index_t)>& yield) {
        for (index_t k = s.item_ptr[static_cast<std::size_t>(i)];
             k < s.item_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
          const index_t row = s.rows[static_cast<std::size_t>(k)];
          deps(row, [&](index_t d) {
            const index_t ot = owner[static_cast<std::size_t>(d)];
            if (ot == kInvalidIndex || ot == static_cast<index_t>(t)) return;
            yield(ot, posn[static_cast<std::size_t>(d)] + 1);
          });
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
  // Regime tags and the spin budget travel with the structure — a hybrid
  // schedule stays hybrid (with the floor pruning re-derived for the new
  // team) at any team size.
  ExecSchedule r = build_exec_schedule(s.backend, s.n_total, s.level_ptr,
                                       s.serial_order, deps, threads,
                                       s.chunk_rows);
  r.spin_budget = s.spin_budget;
  if (!s.level_tags.empty()) apply_level_tags(r, s.level_tags);
  return r;
}

void apply_level_tags(ExecSchedule& s, std::span<const std::uint8_t> tags) {
  JAVELIN_CHECK(tags.size() == static_cast<std::size_t>(s.num_levels),
                "apply_level_tags: one tag per level required");
  const auto all_p2p = std::all_of(tags.begin(), tags.end(), [](std::uint8_t b) {
    return b == static_cast<std::uint8_t>(LevelRegime::kP2P);
  });
  if (all_p2p) {
    // Uniform P2P = the untagged schedule; keep the cheap representation so
    // exec_run stays on the plain backend branches.
    s.level_tags.clear();
    return;
  }
  for (std::uint8_t b : tags) {
    JAVELIN_CHECK(b <= static_cast<std::uint8_t>(LevelRegime::kSerial),
                  "apply_level_tags: unknown regime tag");
  }
  s.level_tags.assign(tags.begin(), tags.end());

  const int T = s.threads;
  const index_t L = s.num_levels;
  const auto uz = [](index_t i) { return static_cast<std::size_t>(i); };

  // Regime floor per level: every item in levels < floor[l] is published
  // before any item of level l starts. kBarrier/kSerial levels see
  // everything before themselves (per-level barriers / thread-0 program
  // order behind the segment-entry barrier); kP2P levels see everything
  // before their contiguous P2P segment (the segment-entry barrier).
  std::vector<index_t> floor_of(uz(L), 0);
  for (index_t l = 0; l < L; ++l) {
    if (static_cast<LevelRegime>(tags[uz(l)]) != LevelRegime::kP2P) {
      floor_of[uz(l)] = l;
    } else {
      floor_of[uz(l)] =
          (l > 0 && static_cast<LevelRegime>(tags[uz(l - 1)]) ==
                        LevelRegime::kP2P)
              ? floor_of[uz(l - 1)]
              : l;
    }
  }

  // cum_items[t][l] = items of thread t in levels < l (the published count
  // a consumer with floor l can rely on from producer thread t).
  const index_t chunk = std::max<index_t>(1, s.chunk_rows);
  std::vector<std::vector<index_t>> cum_items(
      static_cast<std::size_t>(T), std::vector<index_t>(uz(L) + 1, 0));
  for (index_t l = 0; l < L; ++l) {
    const index_t lsz = s.level_ptr[uz(l) + 1] - s.level_ptr[uz(l)];
    for (int t = 0; t < T; ++t) {
      const index_t r = level_slice(lsz, T, t, chunk).size();
      cum_items[static_cast<std::size_t>(t)][uz(l) + 1] =
          cum_items[static_cast<std::size_t>(t)][uz(l)] + (r + chunk - 1) / chunk;
    }
  }

  // Prune: drop wait w of a consumer item in level lc when the producer
  // count is already covered by the floor. Items are laid out level-major
  // per thread, so each thread's item index maps to its level through the
  // same cumulative counts.
  std::vector<index_t> new_ptr(s.wait_ptr.size(), 0);
  std::vector<index_t> new_thread;
  std::vector<index_t> new_count;
  new_thread.reserve(s.wait_thread.size());
  new_count.reserve(s.wait_count.size());
  index_t kept = 0;
  for (int t = 0; t < T; ++t) {
    const auto& own_cum = cum_items[static_cast<std::size_t>(t)];
    index_t lvl = 0;
    for (index_t i = s.thread_ptr[uz(static_cast<index_t>(t))];
         i < s.thread_ptr[uz(static_cast<index_t>(t)) + 1]; ++i) {
      const index_t local = i - s.thread_ptr[uz(static_cast<index_t>(t))];
      while (lvl < L && own_cum[uz(lvl) + 1] <= local) ++lvl;
      const index_t fl = lvl < L ? floor_of[uz(lvl)] : L;
      for (index_t w = s.wait_ptr[uz(i)]; w < s.wait_ptr[uz(i) + 1]; ++w) {
        const index_t pt = s.wait_thread[uz(w)];
        if (s.wait_count[uz(w)] <= cum_items[uz(pt)][uz(fl)]) continue;
        new_thread.push_back(pt);
        new_count.push_back(s.wait_count[uz(w)]);
        ++kept;
      }
      new_ptr[uz(i) + 1] = kept;
    }
  }
  s.wait_ptr = std::move(new_ptr);
  s.wait_thread = std::move(new_thread);
  s.wait_count = std::move(new_count);
  s.deps_kept = kept;
  build_run_layer(s);
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

ExecSchedule build_upper_forward_schedule(const CsrMatrix& lu,
                                          std::span<const index_t> upper_level_ptr,
                                          ExecBackend backend, int threads,
                                          index_t chunk_rows) {
  const index_t n_upper = upper_level_ptr.empty() ? 0 : upper_level_ptr.back();
  // Levels are contiguous row ranges after the plan permutation; materialize
  // the identity listing.
  std::vector<index_t> rows(static_cast<std::size_t>(n_upper));
  for (index_t r = 0; r < n_upper; ++r) rows[static_cast<std::size_t>(r)] = r;
  return build_exec_schedule(
      backend, lu.rows(), {upper_level_ptr.begin(), upper_level_ptr.end()},
      std::move(rows), lower_triangular_deps(lu), threads, chunk_rows);
}

ExecSchedule build_backward_schedule(const CsrMatrix& lu,
                                     std::span<const index_t> upper_level_ptr,
                                     std::span<const index_t> lower_level_ptr,
                                     ExecBackend backend, int threads,
                                     index_t chunk_rows) {
  const index_t n = lu.rows();
  JAVELIN_CHECK(!upper_level_ptr.empty() && upper_level_ptr.front() == 0,
                "backward schedule: plan levels must start at row 0");
  const index_t n_upper = upper_level_ptr.back();
  JAVELIN_CHECK(
      n_upper + (lower_level_ptr.empty() ? 0 : lower_level_ptr.back()) == n,
      "backward schedule: plan levels must cover every row");
  // Plan level k covers rows [b_k, b_k+1); listed last to first with rows
  // descending, it occupies serial positions [n - b_k+1, n - b_k).
  std::vector<index_t> level_ptr;
  level_ptr.reserve(upper_level_ptr.size() + lower_level_ptr.size());
  for (std::size_t k = lower_level_ptr.size(); k-- > 1;) {
    level_ptr.push_back(n - n_upper - lower_level_ptr[k]);
  }
  for (std::size_t k = upper_level_ptr.size(); k-- > 0;) {
    level_ptr.push_back(n - upper_level_ptr[k]);
  }
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k) rows[static_cast<std::size_t>(k)] = n - 1 - k;
  return build_exec_schedule(backend, n, std::move(level_ptr), std::move(rows),
                             upper_triangular_deps(lu), threads, chunk_rows);
}

}  // namespace javelin
