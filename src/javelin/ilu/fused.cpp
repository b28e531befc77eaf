#include "javelin/ilu/fused.hpp"

#include <algorithm>

#include "javelin/ilu/forward_sweep.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/sparse/panel.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/verify/verify.hpp"

namespace javelin {

FusedApplySpmv build_fused_apply_spmv(const Factorization& f,
                                      const ExecSchedule& bwd,
                                      const CsrMatrix& a, index_t chunk_rows) {
  const LevelPlan& plan = f.plan;
  JAVELIN_CHECK(a.rows() == plan.n && a.cols() == plan.n,
                "fused apply+spmv requires A with the factor's dimension");
  FusedApplySpmv fs;
  const int T = bwd.threads;
  fs.threads = T;
  fs.n = plan.n;
  fs.chunk_rows = std::max<index_t>(1, chunk_rows);
  fs.bwd_chunk_rows = bwd.chunk_rows;
  fs.thread_ptr.assign(static_cast<std::size_t>(std::max(T, 1)) + 1, 0);
  if (T <= 1) return fs;  // the serial path never consults the chunks

  // Producer lookup: which backward item finishes each permuted row.
  std::vector<index_t> owner, item_of;
  bwd.producer_positions(owner, item_of);
  // Column c of A is finished by permuted row to_perm[c] of the backward
  // sweep (to_perm inverts the plan's new-to-old permutation).
  const std::vector<index_t> to_perm = invert_permutation(plan.perm);

  // nnz-balanced thread ranges, blocked into chunks. The chunk is the wait
  // granule: one merged wait list amortized over chunk_rows rows.
  const index_t chunk = fs.chunk_rows;
  const RowPartition part = RowPartition::build(a, T);
  for (int t = 0; t < T; ++t) {
    const index_t lo = part.bounds[static_cast<std::size_t>(t)];
    const index_t hi = part.bounds[static_cast<std::size_t>(t) + 1];
    for (index_t b = lo; b < hi; b += chunk) {
      fs.chunk_begin.push_back(b);
      fs.chunk_end.push_back(std::min<index_t>(b + chunk, hi));
    }
    fs.thread_ptr[static_cast<std::size_t>(t) + 1] =
        static_cast<index_t>(fs.chunk_begin.size());
  }
  // Sparsified waits via the shared schedule-builder machinery. The consumer
  // thread has already performed every wait of its OWN backward items before
  // it reaches the SpMV phase (program order), so those high-water marks
  // seed the pruning.
  build_sparsified_waits(
      T, fs.thread_ptr,
      /*seed=*/
      [&bwd](int t, std::span<index_t> last_wait) {
        for (index_t i = bwd.thread_ptr[static_cast<std::size_t>(t)];
             i < bwd.thread_ptr[static_cast<std::size_t>(t) + 1]; ++i) {
          for (index_t w = bwd.wait_ptr[static_cast<std::size_t>(i)];
               w < bwd.wait_ptr[static_cast<std::size_t>(i) + 1]; ++w) {
            index_t& lw = last_wait[static_cast<std::size_t>(
                bwd.wait_thread[static_cast<std::size_t>(w)])];
            lw = std::max(lw, bwd.wait_count[static_cast<std::size_t>(w)]);
          }
        }
      },
      [&](int t, index_t c,
          const std::function<void(index_t, index_t)>& yield) {
        for (index_t r = fs.chunk_begin[static_cast<std::size_t>(c)];
             r < fs.chunk_end[static_cast<std::size_t>(c)]; ++r) {
          for (index_t col : a.row_cols(r)) {
            const index_t pr = to_perm[static_cast<std::size_t>(col)];
            const index_t ot = owner[static_cast<std::size_t>(pr)];
            JAVELIN_CHECK(ot != kInvalidIndex,
                          "backward schedule does not cover every row");
            if (ot == static_cast<index_t>(t)) continue;
            yield(ot, item_of[static_cast<std::size_t>(pr)] + 1);
          }
        }
      },
      fs.wait_ptr, fs.wait_thread, fs.wait_count, fs.deps_total,
      fs.deps_kept);
  if (f.opts.verify_schedules) {
    verify::verify_tail_or_throw(bwd, upper_triangular_deps(f.lu), fs.tail(),
                                 fused_tail_deps(fs, plan, a), "fused");
  }
  return fs;
}

FusedApplySpmv build_fused_apply_spmv(const Factorization& f,
                                      const CsrMatrix& a, index_t chunk_rows) {
  return build_fused_apply_spmv(f, f.bwd, a, chunk_rows);
}

TailDepsFn fused_tail_deps(const FusedApplySpmv& fs, const LevelPlan& plan,
                           const CsrMatrix& a) {
  return [&fs, &a, to_perm = invert_permutation(plan.perm)](
             index_t c,
             const std::function<void(index_t, index_t)>& yield) {
    for (index_t r = fs.chunk_begin[static_cast<std::size_t>(c)];
         r < fs.chunk_end[static_cast<std::size_t>(c)]; ++r) {
      for (index_t col : a.row_cols(r)) {
        yield(r, to_perm[static_cast<std::size_t>(col)]);
      }
    }
  };
}

void ilu_apply_spmv(const Factorization& f, const CsrMatrix& a,
                    const FusedApplySpmv& fs, std::span<const value_t> r,
                    std::span<value_t> z, std::span<value_t> t,
                    SolveWorkspace& ws) {
  detail::check_panel(f, 1, {r.size(), z.size(), t.size()}, "ilu_apply_spmv");
  JAVELIN_CHECK(fs.n == f.n(),
                "fused schedule does not match this factorization");
  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  ws.resize(n);
  value_t* x = ws.x.data();
  const auto spmv_rows = [&](index_t begin, index_t end) {
    for (index_t row = begin; row < end; ++row) {
      detail::spmv_row<1>(a, row, z.data(), un, t.data(), un);
    }
  };

  if (runtime_team(f) <= 1) {
    // Single-thread team: the apply's straight-line column solve (gather
    // and scatter folded in) followed by every SpMV row, with zero
    // synchronization — no point building schedules this path never
    // reads. Same accumulation orders — bitwise-identical to the scheduled
    // path.
    detail::solve_columns<1>(f, r.data(), z.data(), x, {0, 1});
    spmv_rows(0, a.rows());
    return;
  }

  // The chunk waits count items of the backward schedule they were built
  // against, so a companion of another team or granule (a retargeted or
  // re-chunked backward schedule) must be refused here, not raced or
  // deadlocked on.
  const ExecSchedule& bwd = runtime_bwd(f, ws.sched);
  JAVELIN_CHECK(fs.built_for(bwd),
                "fused schedule was built for another backward schedule "
                "(team or item granule)");
  // The apply's forward sweep, then one region: the backward sweep with the
  // z scatter folded into each row, and the SpMV chunks as its tail
  // (exec/run.hpp) — under P2P each chunk waits for exactly the backward
  // items whose z entries it reads, on the counters the sweep publishes.
  detail::forward_sweep<1>(f, r.data(), /*gather=*/true, x, 1, ws);
  const auto spmv_chunk = [&](index_t c, int) {
    spmv_rows(fs.chunk_begin[static_cast<std::size_t>(c)],
              fs.chunk_end[static_cast<std::size_t>(c)]);
  };
  detail::backward_sweep<1>(f, bwd, obs::Region::kFused, x, z.data(), 1, ws,
                            fs.tail(), spmv_chunk);
}

}  // namespace javelin
