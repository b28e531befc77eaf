#include "javelin/amg/hierarchy.hpp"

#include <cmath>
#include <utility>

#include "javelin/amg/strength.hpp"
#include "javelin/sparse/ops.hpp"

namespace javelin {

namespace {

/// In-place dense LU with partial pivoting; `lu` is n×n row-major. Throws on
/// a (numerically) singular coarse operator.
void dense_lu_factor(index_t n, std::vector<value_t>& lu,
                     std::vector<index_t>& piv) {
  piv.resize(static_cast<std::size_t>(n));
  const auto at = [&](index_t r, index_t c) -> value_t& {
    return lu[static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(c)];
  };
  for (index_t k = 0; k < n; ++k) {
    index_t p = k;
    value_t best = std::abs(at(k, k));
    for (index_t r = k + 1; r < n; ++r) {
      const value_t m = std::abs(at(r, k));
      if (m > best) {
        best = m;
        p = r;
      }
    }
    JAVELIN_CHECK(best > 0, "singular coarse-grid operator in AMG dense LU");
    piv[static_cast<std::size_t>(k)] = p;
    if (p != k) {
      for (index_t c = 0; c < n; ++c) std::swap(at(k, c), at(p, c));
    }
    const value_t pivot = at(k, k);
    for (index_t r = k + 1; r < n; ++r) {
      const value_t m = at(r, k) / pivot;
      at(r, k) = m;
      for (index_t c = k + 1; c < n; ++c) at(r, c) -= m * at(k, c);
    }
  }
}

std::vector<value_t> scaled_inverse_diagonal(const CsrMatrix& a,
                                             double omega) {
  std::vector<value_t> d(static_cast<std::size_t>(a.rows()));
  bool bad = false;
#pragma omp parallel for schedule(static)
  for (index_t r = 0; r < a.rows(); ++r) {
    const value_t v = a.at(r, r);
    if (v == 0) {
#pragma omp atomic write
      bad = true;
      continue;
    }
    d[static_cast<std::size_t>(r)] = static_cast<value_t>(omega) / v;
  }
  JAVELIN_CHECK(!bad, "AMG smoother requires a nonzero diagonal");
  return d;
}

}  // namespace

CsrMatrix tentative_prolongation(const Aggregates& agg) {
  const index_t n = static_cast<index_t>(agg.id.size());
  std::vector<index_t> rp(static_cast<std::size_t>(n) + 1);
  std::vector<index_t> ci(static_cast<std::size_t>(n));
  std::vector<value_t> vv(static_cast<std::size_t>(n), value_t{1});
  for (index_t i = 0; i <= n; ++i) rp[static_cast<std::size_t>(i)] = i;
  for (index_t i = 0; i < n; ++i) {
    const index_t g = agg.id[static_cast<std::size_t>(i)];
    JAVELIN_CHECK(g >= 0 && g < agg.count,
                  "tentative_prolongation: row outside the aggregation");
    ci[static_cast<std::size_t>(i)] = g;
  }
  return CsrMatrix(n, agg.count, std::move(rp), std::move(ci), std::move(vv));
}

double AmgHierarchy::operator_complexity() const noexcept {
  if (levels.empty() || levels.front().a.nnz() == 0) return 0;
  double s = 0;
  for (const AmgLevel& l : levels) s += static_cast<double>(l.a.nnz());
  return s / static_cast<double>(levels.front().a.nnz());
}

AmgHierarchy amg_setup(const CsrMatrix& a, const AmgOptions& opts) {
  JAVELIN_CHECK(a.square(), "amg_setup requires a square matrix");
  JAVELIN_CHECK(a.rows() > 0, "amg_setup requires a nonempty matrix");

  AmgHierarchy h;
  h.opts = opts;

  CsrMatrix cur = a;
  double eps = opts.strength_threshold;
  for (int lvl = 0;; ++lvl, eps *= opts.strength_decay) {
    h.levels.emplace_back();
    AmgLevel& L = h.levels.back();
    L.a = std::move(cur);
    const index_t n = L.a.rows();

    bool coarsest =
        n <= opts.coarse_grid_size || lvl + 1 >= opts.max_levels;
    CsrMatrix ac;
    if (!coarsest) {
      // One strength classification drives both aggregation (on its
      // symmetrized pattern) and the prolongation filter (row-wise).
      const CsrMatrix strength = strong_connections(L.a, eps);
      const bool strength_sym = pattern_symmetric(strength);
      const CsrMatrix strength_symmetrized =
          strength_sym ? CsrMatrix() : pattern_symmetrize(strength);
      const Aggregates agg =
          aggregate(strength_sym ? strength : strength_symmetrized);
      if (static_cast<double>(agg.count) >=
          opts.min_coarsening_ratio * static_cast<double>(n)) {
        coarsest = true;  // coarsening stalled; solve this level directly
      } else {
        // Aggregation-quality metric surfaced to the bench: sizes per
        // aggregate, folded into a histogram indexed by size - 1.
        std::vector<index_t> size(static_cast<std::size_t>(agg.count), 0);
        for (index_t g : agg.id) ++size[static_cast<std::size_t>(g)];
        for (index_t s : size) {
          if (static_cast<std::size_t>(s) > L.aggregate_hist.size()) {
            L.aggregate_hist.resize(static_cast<std::size_t>(s), 0);
          }
          ++L.aggregate_hist[static_cast<std::size_t>(s) - 1];
        }
        const CsrMatrix t = tentative_prolongation(agg);
        const CsrMatrix s = prolongation_smoother(
            filter_matrix(L.a, strength), opts.prolongation_omega);
        L.p = spgemm(s, t);
        L.r = transpose(L.p);
        ac = spgemm(L.r, spgemm(L.a, L.p));
      }
    }

    // Per-level runtime state. The coarsest level needs no smoother or
    // inter-grid partitions — it is solved directly. The finest level's
    // x/rhs stay empty: the V-cycle works on the caller's spans there, and
    // resid/tmp are only touched by smoothing (non-coarsest levels).
    L.part_a = RowPartition::build(L.a);
    const std::size_t un = static_cast<std::size_t>(n);
    if (lvl > 0) {
      L.x.assign(un, 0);
      L.rhs.assign(un, 0);
    }
    if (!coarsest) {
      L.resid.assign(un, 0);
      L.tmp.assign(un, 0);
      L.part_p = RowPartition::build(L.p);
      L.part_r = RowPartition::build(L.r);
      if (opts.smoother == AmgSmoother::kIlu) {
        IluOptions io = opts.smoother_ilu;
        io.fill_level = 0;
        io.num_threads = opts.num_threads;
        try {
          L.ilu = std::make_unique<Factorization>(ilu_factor(L.a, io));
        } catch (const Error&) {
          L.ilu = nullptr;  // zero pivot etc. — this level relaxes w/ Jacobi
        }
      }
      if (!L.ilu) {
        L.scaled_inv_diag =
            scaled_inverse_diagonal(L.a, opts.jacobi_omega);
      }
      cur = std::move(ac);
      continue;
    }

    // Coarsest-grid solver.
    const index_t dense_cap = std::max<index_t>(opts.coarse_grid_size, 1000);
    if (n <= dense_cap) {
      h.dense_coarse = true;
      h.dense_lu = to_dense(L.a);
      dense_lu_factor(n, h.dense_lu, h.dense_piv);
    } else {
      IluOptions io = opts.smoother_ilu;
      io.fill_level = 0;
      io.num_threads = 1;  // serial plan: exact sweeps, no spin machinery
      h.coarse_ilu = std::make_unique<Factorization>(ilu_factor(L.a, io));
    }
    break;
  }
  return h;
}

}  // namespace javelin
