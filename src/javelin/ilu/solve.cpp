#include "javelin/ilu/solve.hpp"

#include <string>

#include "javelin/ilu/batch.hpp"
#include "javelin/ilu/forward_sweep.hpp"
#include "javelin/ilu/trsv_kernels.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

void detail::check_panel(const Factorization& f, index_t k,
                         std::initializer_list<std::size_t> span_sizes,
                         const char* what) {
  JAVELIN_CHECK(k >= 1, std::string(what) + " requires k >= 1 right-hand sides");
  const std::size_t need =
      static_cast<std::size_t>(f.n()) * static_cast<std::size_t>(k);
  for (const std::size_t size : span_sizes) {
    JAVELIN_CHECK(size >= need, std::string(what) + ": span smaller than n x k");
  }
}

namespace {

/// The column split (k >= team): thread t of the team solves the t-th
/// contiguous group of whole columns with the straight-line column solve,
/// at the group's width fixed once. Columns share no dependencies, so the
/// region has no progress counters, waits or barriers.
void apply_by_columns(const Factorization& f, const value_t* r, value_t* z,
                      index_t k, int team, value_t* x) {
#pragma omp parallel num_threads(team)
  {
    // Grouped by the team actually delivered, so a smaller (nested) team
    // still covers every column.
    const Range cols = partition_range(k, team_size(), thread_id());
    detail::with_block_width(cols.size(), [&](auto width) {
      detail::solve_columns<decltype(width)::value>(f, r, z, x, cols);
    });
  }
}

/// The scheduled sweeps (k < team, or an instrumented apply): the forward
/// sweep gathers r[perm[row]] per row and the backward sweep writes
/// z[perm[row]] per row, each one region under the factor's schedules,
/// paying their synchronization once per panel rather than once per RHS.
template <int W>
void apply_scheduled(const Factorization& f, const value_t* r, value_t* z,
                     index_t k, value_t* x, SolveWorkspace& ws) {
  detail::forward_sweep<W>(f, r, /*gather=*/true, x, k, ws);
  detail::backward_sweep<W>(f, runtime_bwd(f, ws.sched),
                            obs::Region::kBackward, x, z, k, ws);
}

/// Z = (L U)^{-1} R for the n×k panels r and z (validated by the caller):
/// the column split when k >= runtime_team(f) and no exec_obs sink is
/// attached, the scheduled sweeps otherwise.
void apply(const Factorization& f, const value_t* r, value_t* z, index_t k,
           SolveWorkspace& ws) {
  ws.resize_panel(f.n(), k);
  value_t* x = ws.x.data();
  const int team = runtime_team(f);
  if (k >= team && f.opts.exec_obs == nullptr) {
    apply_by_columns(f, r, z, k, team, x);
  } else {
    detail::with_block_width(k, [&](auto width) {
      apply_scheduled<decltype(width)::value>(f, r, z, k, x, ws);
    });
  }
}

}  // namespace

void trsv_forward(const Factorization& f, std::span<value_t> x,
                  SolveWorkspace& ws) {
  detail::check_panel(f, 1, {x.size()}, "trsv_forward");
  detail::forward_sweep<1>(f, x.data(), /*gather=*/false, x.data(), 1, ws);
}

void trsv_backward(const Factorization& f, std::span<value_t> x,
                   SolveWorkspace& ws) {
  detail::check_panel(f, 1, {x.size()}, "trsv_backward");
  detail::backward_sweep<1>(f, runtime_bwd(f, ws.sched),
                            obs::Region::kBackward, x.data(), nullptr, 1, ws);
}

void trsv_forward_serial(const Factorization& f, std::span<value_t> x) {
  detail::check_panel(f, 1, {x.size()}, "trsv_forward_serial");
  const std::size_t ld = static_cast<std::size_t>(f.n());
  for (index_t r = 0; r < f.n(); ++r) {
    value_t acc = 0;
    detail::lower_partial<1>(f.lu, r, x.data(), ld, &acc);
    x[static_cast<std::size_t>(r)] -= acc;
  }
}

void trsv_backward_serial(const Factorization& f, std::span<value_t> x) {
  detail::check_panel(f, 1, {x.size()}, "trsv_backward_serial");
  const std::size_t ld = static_cast<std::size_t>(f.n());
  for (index_t r = f.n(); r-- > 0;) {
    detail::backward_row<1>(f.lu, f.diag_pos, r, x.data(), ld);
  }
}

void ilu_apply(const Factorization& f, std::span<const value_t> r,
               std::span<value_t> z, SolveWorkspace& ws) {
  detail::check_panel(f, 1, {r.size(), z.size()}, "ilu_apply");
  apply(f, r.data(), z.data(), 1, ws);
}

void ilu_apply(const Factorization& f, std::span<const value_t> r,
               std::span<value_t> z) {
  SolveWorkspace ws;
  ilu_apply(f, r, z, ws);
}

void ilu_apply_panel(const Factorization& f, std::span<const value_t> r,
                     std::span<value_t> z, index_t k, SolveWorkspace& ws) {
  detail::check_panel(f, k, {r.size(), z.size()}, "ilu_apply_panel");
  apply(f, r.data(), z.data(), k, ws);
}

void ilu_apply_serial(const Factorization& f, std::span<const value_t> r,
                      std::span<value_t> z, SolveWorkspace& ws) {
  detail::check_panel(f, 1, {r.size(), z.size()}, "ilu_apply_serial");
  const index_t n = f.n();
  ws.resize(n);
  const auto& perm = f.plan.perm;
  const std::span<value_t> x =
      std::span<value_t>(ws.x).first(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        r[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
  }
  trsv_forward_serial(f, x);
  trsv_backward_serial(f, x);
  for (index_t i = 0; i < n; ++i) {
    z[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
        x[static_cast<std::size_t>(i)];
  }
}

}  // namespace javelin
