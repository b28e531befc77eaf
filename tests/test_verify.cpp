// Tests of the static schedule verifier (verify/):
//
//   * the verifier is CLEAN on every suite + degenerate matrix, forward and
//     backward schedules, under both backend tags, and on retargeted
//     schedules for every T in {1..16} (verify_retarget also proves the
//     retarget bitwise-equivalent to a fresh build) — far beyond the thread
//     counts bitwise-parity tests can afford to execute;
//   * coverage accounting is exact: waits_total == deps_kept, the
//     direct/transitive split sums to deps_total, nothing uncovered;
//   * the mutation self-test: every seeded single-defect mutation
//     (MutateSchedule) is flagged, with the expected defect class and a
//     row-precise diagnostic naming the mutated row or a real broken
//     dependency edge — the analyzer is itself tested adversarially;
//   * the fused solve's SpMV tail verifies clean behind every suite
//     matrix's backward schedule at T in {2, 3, 4, 8}, and dropping a
//     load-bearing chunk wait is reported with the A row and the backward
//     row it reads;
//   * the wired assertion layers (IluOptions::verify_schedules) pass
//     through ilu_prepare / solve-time retarget / refactor-time retarget
//     without throwing.
#include <map>
#include <string>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/tune/tune.hpp"
#include "javelin/verify/mutate.hpp"
#include "javelin/verify/verify.hpp"
#include "test_util.hpp"

using namespace javelin;
using verify::DiagKind;
using verify::Mutation;
using verify::MutationResult;
using verify::ScheduleDiagnostic;
using verify::VerifyReport;

namespace {

gen::SuiteOptions small_scale() {
  gen::SuiteOptions so;
  so.scale = 0.02;
  return so;
}

bool has_kind(const VerifyReport& rep, DiagKind k) {
  for (const ScheduleDiagnostic& d : rep.diagnostics) {
    if (d.kind == k) return true;
  }
  return false;
}

/// True when `producer` really is a dependency of `consumer` — the
/// row-precision bar for uncovered-edge diagnostics: the report must name an
/// actual broken RAW edge, not a nearby row.
bool is_real_dep(const DepsFn& deps, index_t consumer, index_t producer) {
  bool found = false;
  deps(consumer, [&](index_t d) { found = found || d == producer; });
  return found;
}

/// Every schedule of every suite/degenerate matrix must verify clean —
/// planned team, both backend tags, and retargets across T in {1..16}.
void check_matrix_clean(const std::string& name) {
  const gen::SuiteEntry e = gen::make_suite_matrix(name, small_scale());
  ThreadCountGuard guard(4);
  IluOptions opts;
  opts.num_threads = 4;
  opts.retarget_oversubscribed = false;
  opts.verify_schedules = false;  // this test drives the verifier itself
  const Factorization f = ilu_prepare(e.matrix, opts);
  const DepsFn low = lower_triangular_deps(f.lu);
  const DepsFn up = upper_triangular_deps(f.lu);

  const VerifyReport fwd_rep = verify::verify_schedule(f.fwd, low);
  const VerifyReport bwd_rep = verify::verify_schedule(f.bwd, up);
  CHECK_MSG(fwd_rep.ok(), "%s fwd: %s", name.c_str(),
            fwd_rep.summary().c_str());
  CHECK_MSG(bwd_rep.ok(), "%s bwd: %s", name.c_str(),
            bwd_rep.summary().c_str());

  // Exact coverage accounting against the builder's own statistics.
  CHECK_MSG(fwd_rep.stats.waits_total == f.fwd.deps_kept, "%s fwd waits",
            name.c_str());
  CHECK_MSG(fwd_rep.stats.deps_cross_thread == f.fwd.deps_total,
            "%s fwd deps_total", name.c_str());
  CHECK_MSG(fwd_rep.stats.deps_covered_direct +
                    fwd_rep.stats.deps_covered_transitive ==
                fwd_rep.stats.deps_cross_thread,
            "%s fwd coverage split", name.c_str());
  CHECK_MSG(fwd_rep.stats.deps_uncovered == 0, "%s fwd uncovered",
            name.c_str());

  // The analysis is backend-complete (level AND wait phases always run),
  // so flipping the tag — what set_exec_backend does in place — must not
  // change the verdict.
  ExecSchedule flipped = f.fwd;
  flipped.backend = ExecBackend::kBarrier;
  const VerifyReport flip_rep = verify::verify_schedule(flipped, low);
  CHECK_MSG(flip_rep.ok(), "%s fwd barrier tag: %s", name.c_str(),
            flip_rep.summary().c_str());

  for (int T = 1; T <= 16; ++T) {
    const VerifyReport rf = verify::verify_retarget(f.fwd, low, T);
    const VerifyReport rb = verify::verify_retarget(f.bwd, up, T);
    CHECK_MSG(rf.ok(), "%s fwd retarget T=%d: %s", name.c_str(), T,
              rf.summary().c_str());
    CHECK_MSG(rb.ok(), "%s bwd retarget T=%d: %s", name.c_str(), T,
              rb.summary().c_str());
  }
}

/// The fused solve's SpMV tail behind the backward schedule must verify
/// clean at every team, with exact coverage accounting against the
/// companion's own statistics.
void check_tail_clean(const std::string& name) {
  const gen::SuiteEntry e = gen::make_suite_matrix(name, small_scale());
  for (const int T : {2, 3, 4, 8}) {
    ThreadCountGuard guard(T);
    IluOptions opts;
    opts.num_threads = T;
    opts.retarget_oversubscribed = false;
    opts.verify_schedules = false;  // this test drives the verifier itself
    const Factorization f = ilu_prepare(e.matrix, opts);
    const FusedApplySpmv fs = build_fused_apply_spmv(f.bwd, f.plan, e.matrix);
    const VerifyReport rep = verify::verify_tail(
        f.bwd, upper_triangular_deps(f.lu), fs.tail(),
        fused_tail_deps(fs, f.plan, e.matrix));
    CHECK_MSG(rep.ok(), "%s tail T=%d: %s", name.c_str(), T,
              rep.summary().c_str());
    CHECK_MSG(rep.stats.waits_total == fs.deps_kept &&
                  rep.stats.deps_cross_thread == fs.deps_total &&
                  rep.stats.deps_covered_direct +
                          rep.stats.deps_covered_transitive ==
                      rep.stats.deps_cross_thread &&
                  rep.stats.deps_uncovered == 0,
              "%s tail T=%d coverage accounting: %s", name.c_str(), T,
              rep.summary().c_str());
  }
}

/// Dropping a chunk wait that nothing else covers must surface as an
/// uncovered dependency of that chunk's thread, naming an A row of the
/// reported chunk and a backward row that A row really reads.
void check_tail_mutations(const std::string& name, int T) {
  const gen::SuiteEntry e = gen::make_suite_matrix(name, small_scale());
  ThreadCountGuard guard(T);
  IluOptions opts;
  opts.num_threads = T;
  opts.retarget_oversubscribed = false;
  opts.verify_schedules = false;
  const Factorization f = ilu_prepare(e.matrix, opts);
  const CsrMatrix& a = e.matrix;
  const FusedApplySpmv fs = build_fused_apply_spmv(f.bwd, f.plan, a);
  const DepsFn up = upper_triangular_deps(f.lu);
  std::vector<index_t> owner, item_of;
  f.bwd.producer_positions(owner, item_of);
  const auto chunk_thread = [&](index_t c) {
    int t = 0;
    while (fs.thread_ptr[static_cast<std::size_t>(t) + 1] <= c) ++t;
    return t;
  };

  int flagged = 0, tried = 0;
  for (index_t c = 0; c < fs.num_chunks() && flagged < 4 && tried < 48; ++c) {
    for (index_t w = fs.wait_ptr[static_cast<std::size_t>(c)];
         w < fs.wait_ptr[static_cast<std::size_t>(c) + 1]; ++w, ++tried) {
      FusedApplySpmv mut = fs;
      const auto uw = static_cast<std::ptrdiff_t>(w);
      mut.wait_thread.erase(mut.wait_thread.begin() + uw);
      mut.wait_count.erase(mut.wait_count.begin() + uw);
      for (std::size_t k = static_cast<std::size_t>(c) + 1;
           k < mut.wait_ptr.size(); ++k) {
        --mut.wait_ptr[k];
      }
      const VerifyReport rep = verify::verify_tail(
          f.bwd, up, mut.tail(), fused_tail_deps(mut, f.plan, a));
      if (rep.ok()) continue;  // another wait covers it transitively
      ++flagged;
      bool precise = false;
      for (const ScheduleDiagnostic& d : rep.diagnostics) {
        if (d.kind != DiagKind::kUncoveredDependency || d.item < c ||
            d.item >= fs.num_chunks() ||
            d.consumer_thread != chunk_thread(c) ||
            d.consumer_thread != chunk_thread(d.item)) {
          continue;
        }
        const auto ci = static_cast<std::size_t>(d.item);
        bool reads = false;
        if (d.consumer_row >= fs.chunk_begin[ci] &&
            d.consumer_row < fs.chunk_end[ci]) {
          const index_t col =
              f.plan.perm[static_cast<std::size_t>(d.producer_row)];
          for (index_t j : a.row_cols(d.consumer_row)) reads = reads || j == col;
        }
        precise = precise ||
                  (reads && owner[static_cast<std::size_t>(d.producer_row)] ==
                                static_cast<index_t>(d.producer_thread));
      }
      CHECK_MSG(precise, "%s T=%d dropped tail wait %lld of chunk %lld: %s",
                name.c_str(), T, static_cast<long long>(w),
                static_cast<long long>(c), rep.summary().c_str());
    }
  }
  CHECK_MSG(flagged > 0, "%s T=%d: no load-bearing tail wait found",
            name.c_str(), T);
}

/// One seeded mutation -> flagged, right class, row-precise. Returns whether
/// the mutation found a site; with `require_applied` a miss is a failure
/// (the uniform sweeps pick setups where every class has sites), without it
/// the caller accounts for applicability across seeds itself (regime
/// mutations probe for a load-bearing boundary and may legitimately miss on
/// some seeds).
bool check_one_mutation(const std::string& name, const char* dir,
                        const ExecSchedule& clean, const DepsFn& deps,
                        Mutation m, std::uint64_t seed,
                        bool require_applied = true) {
  ExecSchedule mut = clean;
  const MutationResult res = verify::apply_mutation(mut, m, deps, seed);
  if (require_applied) {
    CHECK_MSG(res.applied, "%s %s %s seed=%llu: %s", name.c_str(), dir,
              verify::mutation_name(m),
              static_cast<unsigned long long>(seed), res.detail.c_str());
  }
  if (!res.applied) return false;

  const VerifyReport rep = verify::verify_schedule(mut, deps);
  CHECK_MSG(!rep.ok(), "%s %s %s seed=%llu survived verification",
            name.c_str(), dir, verify::mutation_name(m),
            static_cast<unsigned long long>(seed));
  if (rep.ok()) return true;

  bool precise = false;
  switch (m) {
    case Mutation::kDropWait:
    case Mutation::kWeakenWait:
    case Mutation::kRedirectWait:
      // The report must name an actual broken cross-thread edge (or a
      // deadlocked item when the redirect closed a cycle).
      for (const ScheduleDiagnostic& d : rep.diagnostics) {
        if (d.kind == DiagKind::kUncoveredDependency) {
          precise = precise || (d.consumer_thread != d.producer_thread &&
                                is_real_dep(deps, d.consumer_row,
                                            d.producer_row));
        } else if (d.kind == DiagKind::kDeadlock) {
          precise = true;
        }
      }
      break;
    case Mutation::kMoveRowAcrossLevel:
      // The moved row's own dependency became same-level: the report must
      // carry a level diagnostic naming exactly that row.
      for (const ScheduleDiagnostic& d : rep.diagnostics) {
        if ((d.kind == DiagKind::kLevelDependency ||
             d.kind == DiagKind::kLevelOrder) &&
            d.consumer_row == res.consumer_row) {
          precise = true;
        }
      }
      break;
    case Mutation::kDuplicateRow:
      // Either the doubled row or the lost row must be named.
      for (const ScheduleDiagnostic& d : rep.diagnostics) {
        if (d.kind == DiagKind::kPartition &&
            (d.consumer_row == res.consumer_row ||
             d.consumer_row == res.producer_row)) {
          precise = true;
        }
      }
      break;
    case Mutation::kCorruptWaitCount:
      for (const ScheduleDiagnostic& d : rep.diagnostics) {
        if (d.kind == DiagKind::kWaitMetadata &&
            d.consumer_row == res.consumer_row) {
          precise = true;
        }
      }
      break;
    case Mutation::kRegimeRetag:
      // Same bar as the wait mutations: the orphaned pruned wait must
      // surface as a real broken edge (or a deadlocked item).
      for (const ScheduleDiagnostic& d : rep.diagnostics) {
        if (d.kind == DiagKind::kUncoveredDependency) {
          precise = precise || is_real_dep(deps, d.consumer_row,
                                           d.producer_row);
        } else if (d.kind == DiagKind::kDeadlock) {
          precise = true;
        }
      }
      break;
    case Mutation::kRegimeTagShape:
      precise = has_kind(rep, DiagKind::kRegimeTag);
      break;
    case Mutation::kMoveWaitsInRun:
      // The item that received the wait list must be named.
      for (const ScheduleDiagnostic& d : rep.diagnostics) {
        if (d.kind == DiagKind::kRunLayout &&
            d.consumer_row == res.consumer_row) {
          precise = true;
        }
      }
      break;
  }
  CHECK_MSG(precise,
            "%s %s %s seed=%llu flagged without a row-precise diagnostic: %s",
            name.c_str(), dir, verify::mutation_name(m),
            static_cast<unsigned long long>(seed), rep.summary().c_str());
  return true;
}

/// Mutation sweep over a schedule pair built wide enough that every
/// mutation class has valid sites (cross-thread waits, counts > 1, a third
/// thread for redirects, multiple levels).
void check_mutations(const std::string& name, int threads, index_t chunk) {
  const gen::SuiteEntry e = gen::make_suite_matrix(name, small_scale());
  ThreadCountGuard guard(threads);
  IluOptions opts;
  opts.num_threads = threads;
  opts.retarget_oversubscribed = false;
  opts.verify_schedules = false;
  opts.p2p_chunk_rows = chunk;
  const Factorization f = ilu_prepare(e.matrix, opts);
  const DepsFn low = lower_triangular_deps(f.lu);
  const DepsFn up = upper_triangular_deps(f.lu);

  // Preconditions that make every mutation class applicable here; if a
  // generator change ever voids one, this points at the setup, not the
  // verifier.
  CHECK_MSG(f.fwd.deps_kept > 0, "%s fwd has no waits to mutate",
            name.c_str());
  CHECK_MSG(f.fwd.num_levels > 1, "%s fwd has a single level", name.c_str());

  for (const Mutation m : verify::kAllMutations) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      check_one_mutation(name, "fwd", f.fwd, low, m, seed);
    }
    check_one_mutation(name, "bwd", f.bwd, up, m, 7);
  }
}

/// Hybrid (per-level regime) schedules: derived tags must verify CLEAN —
/// with the pruned waits re-accounted as regime-covered — survive
/// retargeting to other teams, and the regime mutation classes must be
/// flagged with row precision.
void check_hybrid(const std::string& name, int threads, index_t chunk,
                  std::map<Mutation, int>& regime_applied) {
  const gen::SuiteEntry e = gen::make_suite_matrix(name, small_scale());
  ThreadCountGuard guard(threads);
  IluOptions opts;
  opts.num_threads = threads;
  opts.retarget_oversubscribed = false;
  opts.verify_schedules = false;
  opts.p2p_chunk_rows = chunk;
  const Factorization f = ilu_prepare(e.matrix, opts);
  const DepsFn low = lower_triangular_deps(f.lu);
  const DepsFn up = upper_triangular_deps(f.lu);

  for (const bool is_fwd : {true, false}) {
    const char* dir = is_fwd ? "fwd" : "bwd";
    const ExecSchedule& base = is_fwd ? f.fwd : f.bwd;
    const DepsFn& deps = is_fwd ? low : up;
    ExecSchedule hyb = base;
    const auto tags = tune::derive_hybrid_tags(
        hyb, /*serial_below=*/static_cast<index_t>(threads),
        /*barrier_below=*/static_cast<index_t>(4 * threads));
    apply_level_tags(hyb, tags);
    if (!hyb.hybrid()) continue;  // all-P2P tag vector normalized away

    CHECK_MSG(hyb.deps_kept <= base.deps_kept, "%s %s tag pruning grew waits",
              name.c_str(), dir);
    const VerifyReport rep = verify::verify_schedule(hyb, deps);
    CHECK_MSG(rep.ok(), "%s %s hybrid: %s", name.c_str(), dir,
              rep.summary().c_str());
    // Coverage accounting now splits three ways; nothing may be uncovered.
    CHECK_MSG(rep.stats.deps_covered_direct + rep.stats.deps_covered_regime +
                      rep.stats.deps_covered_transitive ==
                  rep.stats.deps_cross_thread,
              "%s %s hybrid coverage split", name.c_str(), dir);
    CHECK_MSG(rep.stats.deps_uncovered == 0, "%s %s hybrid uncovered",
              name.c_str(), dir);
    // Waits the tags pruned must reappear as regime-synchronized coverage.
    if (hyb.deps_kept < base.deps_kept) {
      CHECK_MSG(rep.stats.deps_covered_regime > 0,
                "%s %s pruned waits not regime-covered", name.c_str(), dir);
    }

    // Retargeting a hybrid schedule re-applies the tags (verify_retarget
    // also proves the rebuild bitwise-identical, tags included).
    for (const int T : {2, threads, 2 * threads}) {
      const VerifyReport rt = verify::verify_retarget(hyb, deps, T);
      CHECK_MSG(rt.ok(), "%s %s hybrid retarget T=%d: %s", name.c_str(), dir,
                T, rt.summary().c_str());
    }

    // Regime-boundary defect classes (seeded, row-precise). The retag
    // mutator uses the verifier as its oracle and may find no orphanable
    // site on a particular schedule (every pruned dependency can stay
    // transitively covered after a single retag), so applicability is
    // accounted across the whole matrix set — main() requires every class
    // to have fired somewhere.
    for (const Mutation m : verify::kRegimeMutations) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        if (check_one_mutation(name, dir, hyb, deps, m, seed,
                               /*require_applied=*/false)) {
          ++regime_applied[m];
        }
      }
    }
  }
}

/// The wired assertion layers: prepare-time, solve-time retarget, and
/// refactor-time retarget all verify their schedules and must pass clean on
/// a healthy factorization (reaching the end without a throw IS the check).
void check_wired_layers() {
  const gen::SuiteEntry e = gen::make_suite_matrix("wang3", small_scale());
  Factorization f = [&] {
    ThreadCountGuard guard(4);
    IluOptions opts;
    opts.num_threads = 4;
    opts.retarget_oversubscribed = false;
    opts.verify_schedules = true;
    opts.parallel_corner = true;  // corner schedule verified in ilu_prepare
    return ilu_factor(e.matrix, opts);
  }();
  const auto r = javelin::test::random_vector(f.n(), 0xC0FFEE);
  std::vector<value_t> z(r.size()), t(r.size());
  // The fused companion's tail is verified at build ...
  const FusedApplySpmv fs = build_fused_apply_spmv(f, e.matrix);
  {
    // Team below the plan: runtime_fwd/bwd retarget through ensure_cache,
    // which re-verifies under verify_schedules.
    ThreadCountGuard guard(2);
    SolveWorkspace ws;
    ilu_apply(f, r, z, ws);
    // ... and again when the fused pass rebuilds it for the runtime team.
    ilu_apply_spmv(f, e.matrix, fs, r, z, t, ws);
    // Numeric-phase retarget cache, also wired.
    ilu_refactor(f, e.matrix);
  }
  CHECK(f.n() > 0);
}

/// Hand-built degenerate inputs the structural phase must reject or accept.
void check_structural_edges() {
  // Default-constructed: schedules nothing, verifies clean.
  const ExecSchedule empty;
  const DepsFn none = [](index_t, const std::function<void(index_t)>&) {};
  CHECK(verify::verify_schedule(empty, none).ok());

  // Truncated wait arrays must be malformed, not UB.
  const gen::SuiteEntry e = gen::make_suite_matrix("fem_filter", small_scale());
  ThreadCountGuard guard(4);
  IluOptions opts;
  opts.num_threads = 4;
  opts.retarget_oversubscribed = false;
  opts.verify_schedules = false;
  const Factorization f = ilu_prepare(e.matrix, opts);
  const DepsFn low = lower_triangular_deps(f.lu);
  ExecSchedule bad = f.fwd;
  if (!bad.wait_thread.empty()) {
    bad.wait_thread.pop_back();
    const VerifyReport rep = verify::verify_schedule(bad, low);
    CHECK_MSG(has_kind(rep, DiagKind::kMalformed), "truncated wait arrays: %s",
              rep.summary().c_str());
  }
  // Stale stats are reported as such, not silently accepted.
  ExecSchedule stale = f.fwd;
  stale.deps_kept += 1;
  CHECK(has_kind(verify::verify_schedule(stale, low),
                 DiagKind::kStatsMismatch));
}

}  // namespace

int main() {
  for (const std::string& name : gen::suite_names()) {
    check_matrix_clean(name);
  }
  for (const std::string& name : gen::degenerate_names()) {
    check_matrix_clean(name);
  }
  for (const std::string& name : gen::suite_names()) {
    check_tail_clean(name);
  }
  check_tail_mutations("apache2", 4);
  check_tail_mutations("thermal2", 3);
  // Structurally different generators for the adversarial sweep — a grid
  // stencil, an irregular FEM pattern, a power-grid block structure — at
  // team sizes that give the redirect mutation a third thread to point at.
  check_mutations("apache2", 4, 4);
  check_mutations("thermal2", 4, 2);
  check_mutations("TSOPF_RS_b300_c2", 8, 4);
  std::map<Mutation, int> regime_applied;
  check_hybrid("apache2", 4, 4, regime_applied);
  check_hybrid("thermal2", 4, 2, regime_applied);
  check_hybrid("TSOPF_RS_b300_c2", 8, 4, regime_applied);
  for (const Mutation m : verify::kRegimeMutations) {
    CHECK_MSG(regime_applied[m] > 0, "%s never found a mutable site",
              verify::mutation_name(m));
  }
  check_wired_layers();
  check_structural_edges();
  return javelin::test::finish("test_verify");
}
