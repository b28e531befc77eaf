// Randomized property test closing the loop between the static verifier
// and the execution layer:
//
//   random dependency DAG -> level sets -> schedule -> verifier CLEAN
//                                                   -> execution BITWISE
//                                                      equal to the serial
//                                                      reference
//
// in one loop, so a verifier false-positive (flagging a correct build), a
// builder bug (schedule that verifies but mis-executes — a verifier
// false-NEGATIVE by implication), and a level-set bug all fail here. A
// seeded single-defect mutation is also run each trial: if the verifier
// clears a mutant (soundness breach) the mutant is EXECUTED and held to
// bitwise parity; flagged mutants are never executed (they may deadlock —
// that is the point).
//
// Each trial also builds a random tail phase behind its schedule (chunks
// reading random rows, waits sparsified against the producer positions as
// the fused solve's companion builds them), proves it with verify_tail, and
// runs it under both backends: every chunk checks that each row it reads is
// final. Then, under both backends and with and without the tail, a
// bool-returning row function vetoes one random row: the region must drain
// (a hang trips the ctest timeout) and report kAborted naming that row.
//
// Trials are seeded and, on failure, shrunk: the matrix generator draws
// each row's dependencies from a per-row stream keyed on (seed, row), so a
// size-n' prefix of the size-n matrix is itself a valid test case and the
// shrink loop just re-runs smaller n until the failure disappears, then
// prints the minimal reproducing (seed, n, T, chunk, backend).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "javelin/exec/run.hpp"
#include "javelin/graph/levels.hpp"
#include "javelin/sparse/csr.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/verify/mutate.hpp"
#include "javelin/verify/verify.hpp"
#include "test_util.hpp"

using namespace javelin;

namespace {

constexpr std::size_t uz(std::int64_t i) {
  return static_cast<std::size_t>(i);
}

std::uint64_t splitmix(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Random lower-triangular DAG with unit diagonal, row r's dependencies
/// drawn from a stream keyed (seed, r) — prefix-stable so shrinking by n
/// reuses the same rows.
CsrMatrix gen_dag(std::uint64_t seed, index_t n) {
  std::vector<index_t> row_ptr(uz(n) + 1, 0);
  std::vector<index_t> cols;
  std::vector<value_t> vals;
  std::vector<index_t> picks;
  for (index_t r = 0; r < n; ++r) {
    std::uint64_t st = seed ^ (0xD1B54A32D192ED03ULL *
                               static_cast<std::uint64_t>(r + 1));
    const index_t want = static_cast<index_t>(splitmix(st) % 5);
    picks.clear();
    for (index_t k = 0; k < want && r > 0; ++k) {
      picks.push_back(static_cast<index_t>(
          splitmix(st) % static_cast<std::uint64_t>(r)));
    }
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    for (index_t d : picks) {
      cols.push_back(d);
      // Coefficients in [0.25, 1): large enough that a dropped dependency
      // shifts the result far beyond rounding noise.
      vals.push_back(0.25 + 0.75 * (static_cast<value_t>(splitmix(st) >> 11) /
                                    9007199254740992.0));
    }
    cols.push_back(r);
    vals.push_back(1.0);
    row_ptr[uz(r) + 1] = static_cast<index_t>(cols.size());
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(cols),
                   std::move(vals));
}

/// Dependency-respecting reference: rows in natural order (every dependency
/// of a lower-triangular row is a smaller row). Per-row arithmetic is the
/// same expression, in the same CSR order, as the scheduled run — the only
/// degree of freedom is WHEN a row runs, which is exactly what the schedule
/// must get right.
void eval_row(const CsrMatrix& m, std::vector<value_t>& x, index_t r) {
  value_t acc = 1.0;
  const auto cols = m.row_cols(r);
  const auto vals = m.row_vals(r);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (cols[k] == r) continue;
    acc += vals[k] * x[uz(cols[k])];
  }
  x[uz(r)] = acc;
}

/// A random tail phase behind schedule `s`: each thread runs 0-3 chunks,
/// and chunk c reads rows reads[read_ptr[c] .. read_ptr[c+1]) of the
/// schedule (1-6 random rows). Its waits are built as the fused companion
/// builds its own (ilu/fused.cpp): sparsified against s's producer
/// positions, seeded with the waits each thread already performed in its
/// own items.
struct RandomTail {
  std::vector<index_t> thread_ptr, read_ptr{0}, reads;
  std::vector<index_t> wait_ptr, wait_thread, wait_count;
  index_t deps_total = 0, deps_kept = 0;

  ExecTail view() const {
    return {thread_ptr, wait_ptr, wait_thread, wait_count};
  }
  TailDepsFn deps() const {
    return [this](index_t c,
                  const std::function<void(index_t, index_t)>& yield) {
      for (index_t k = read_ptr[uz(c)]; k < read_ptr[uz(c) + 1]; ++k) {
        yield(c, reads[uz(k)]);
      }
    };
  }
  /// Reads of chunk c whose row does not hold its final value in x.
  index_t stale_reads(index_t c, const std::vector<value_t>& x,
                      const std::vector<value_t>& ref) const {
    index_t stale = 0;
    for (index_t k = read_ptr[uz(c)]; k < read_ptr[uz(c) + 1]; ++k) {
      const std::size_t r = uz(reads[uz(k)]);
      if (std::bit_cast<std::uint64_t>(x[r]) !=
          std::bit_cast<std::uint64_t>(ref[r])) {
        ++stale;
      }
    }
    return stale;
  }
};

RandomTail make_tail(const ExecSchedule& s, std::uint64_t seed) {
  RandomTail tl;
  std::uint64_t st = seed ^ 0x7A11C0DEULL;
  tl.thread_ptr.assign(uz(s.threads) + 1, 0);
  for (int t = 0; t < s.threads; ++t) {
    for (std::uint64_t c = splitmix(st) % 4; c > 0; --c) {
      for (std::uint64_t k = 1 + splitmix(st) % 6; k > 0; --k) {
        tl.reads.push_back(
            static_cast<index_t>(splitmix(st) % uz(s.num_rows())));
      }
      tl.read_ptr.push_back(static_cast<index_t>(tl.reads.size()));
    }
    tl.thread_ptr[uz(t) + 1] = static_cast<index_t>(tl.read_ptr.size()) - 1;
  }
  std::vector<index_t> owner, item_of;
  s.producer_positions(owner, item_of);
  build_sparsified_waits(
      s.threads, tl.thread_ptr,
      [&s](int t, std::span<index_t> last_wait) {
        for (index_t w = s.wait_ptr[uz(s.thread_ptr[uz(t)])];
             w < s.wait_ptr[uz(s.thread_ptr[uz(t) + 1])]; ++w) {
          index_t& lw = last_wait[uz(s.wait_thread[uz(w)])];
          lw = std::max(lw, s.wait_count[uz(w)]);
        }
      },
      [&](int t, index_t c,
          const std::function<void(index_t, index_t)>& yield) {
        for (index_t k = tl.read_ptr[uz(c)]; k < tl.read_ptr[uz(c) + 1];
             ++k) {
          const std::size_t r = uz(tl.reads[uz(k)]);
          if (owner[r] != t) yield(owner[r], item_of[r] + 1);
        }
      },
      tl.wait_ptr, tl.wait_thread, tl.wait_count, tl.deps_total,
      tl.deps_kept);
  return tl;
}

/// Tail waits kept across all trials: zero would mean the tails never
/// synchronized and tested nothing.
index_t tail_waits_kept = 0;

struct Trial {
  std::uint64_t seed = 0;
  index_t n = 0;
  int threads = 0;
  index_t chunk = 0;
  ExecBackend backend = ExecBackend::kP2P;
};

/// Empty = pass; otherwise a description of what broke.
std::string run_trial(const Trial& tr) {
  const CsrMatrix m = gen_dag(tr.seed, tr.n);
  const DepsFn deps = lower_triangular_deps(m);
  const LevelSets ls = compute_level_sets_lower(m);
  const ExecSchedule s =
      build_exec_schedule(tr.n, ls.level_ptr, ls.rows_by_level, deps,
                          tr.threads, tr.chunk);

  const verify::VerifyReport rep = verify::verify_schedule(s, deps);
  if (!rep.ok()) {
    return "verifier flagged a correct build: " + rep.summary();
  }

  std::vector<value_t> ref(uz(tr.n));
  for (index_t r = 0; r < tr.n; ++r) eval_row(m, ref, r);

  // NaN seeding makes a mis-ordered read self-evident even when the
  // interleaving would happen to produce the right value.
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  std::vector<value_t> x(uz(tr.n), nan);
  {
    ThreadCountGuard guard(tr.threads);
    ProgressCounters progress;
    exec_run(s, tr.backend, [&](index_t r, int) { eval_row(m, x, r); },
             progress);
  }
  if (!javelin::test::bitwise_equal(x, ref)) {
    return "scheduled execution diverged from the serial reference";
  }

  // The random tail, proven and then run behind the sweep; then the
  // one-row veto, with and without it. Both under both backends.
  const RandomTail tail = make_tail(s, tr.seed);
  const verify::VerifyReport trep =
      verify::verify_tail(s, deps, tail.view(), tail.deps());
  if (!trep.ok()) return "verifier flagged a correct tail: " + trep.summary();
  tail_waits_kept += tail.deps_kept;
  std::uint64_t vst = tr.seed ^ 0x0AB0127ULL;
  const auto veto = static_cast<index_t>(splitmix(vst) % uz(tr.n));
  for (const ExecBackend backend : {ExecBackend::kP2P, ExecBackend::kBarrier}) {
    const std::string under =
        std::string(" under ") + exec_backend_name(backend);
    std::vector<index_t> stale(uz(tail.read_ptr.size()) - 1, 0);
    const auto chunk = [&](index_t c, int) {
      stale[uz(c)] += tail.stale_reads(c, x, ref);
    };
    const auto stale_total = [&stale] {
      return std::accumulate(stale.begin(), stale.end(), index_t{0});
    };
    ThreadCountGuard guard(tr.threads);
    ProgressCounters progress;
    std::fill(x.begin(), x.end(), nan);
    exec_run(s, backend, [&](index_t r, int) { eval_row(m, x, r); },
             tail.view(), chunk, progress);
    if (!javelin::test::bitwise_equal(x, ref)) {
      return "execution with a tail diverged" + under;
    }
    if (stale_total() != 0) {
      return "a tail chunk read a row before it was final" + under;
    }
    // The vetoed row is evaluated, then poisons the region. Chunks that
    // pass their waits still read only final rows.
    const auto vetoing = [&](index_t r, int) {
      eval_row(m, x, r);
      return r != veto;
    };
    for (const bool with_tail : {false, true}) {
      std::fill(x.begin(), x.end(), nan);
      const ExecStatus st =
          with_tail
              ? exec_run(s, backend, vetoing, tail.view(), chunk, progress)
              : exec_run(s, backend, vetoing, progress);
      if (st.ok() || st.row != veto) {
        return "veto of row " + std::to_string(veto) + " reported " +
               (st.ok() ? std::string("kOk") : std::to_string(st.row)) +
               (with_tail ? " with a tail" : "") + under;
      }
      if (stale_total() != 0) {
        return "an aborted region's tail read a row before it was final" +
               under;
      }
    }
  }

  // Mutation soundness: a mutant the verifier CLEARS must still execute to
  // parity; a flagged mutant is never executed (it may deadlock).
  ExecSchedule mut = s;
  std::uint64_t st = tr.seed ^ 0xABCDEF12ULL;
  const auto kind = verify::kAllMutations[splitmix(st) %
                                          std::size(verify::kAllMutations)];
  const verify::MutationResult res =
      verify::apply_mutation(mut, kind, deps, splitmix(st));
  if (res.applied) {
    const verify::VerifyReport mrep = verify::verify_schedule(mut, deps);
    if (mrep.ok()) {
      std::vector<value_t> y(uz(tr.n), nan);
      ThreadCountGuard guard(tr.threads);
      ProgressCounters progress;
      exec_run(mut, tr.backend, [&](index_t r, int) { eval_row(m, y, r); },
               progress);
      if (!javelin::test::bitwise_equal(y, ref)) {
        return std::string("verifier cleared a mutant (") +
               verify::mutation_name(kind) +
               ") that does not execute to parity";
      }
    }
  }
  return {};
}

void shrink_and_report(Trial tr, const std::string& first_failure) {
  std::printf("  shrinking failing trial (n=%d): %s\n",
              static_cast<int>(tr.n), first_failure.c_str());
  bool improved = true;
  while (improved) {
    improved = false;
    for (const index_t cand :
         {tr.n / 2, (tr.n * 3) / 4, tr.n - 1}) {
      if (cand < 2 || cand >= tr.n) continue;
      Trial smaller = tr;
      smaller.n = cand;
      if (!run_trial(smaller).empty()) {
        tr = smaller;
        improved = true;
        break;
      }
    }
  }
  const std::string msg = run_trial(tr);
  CHECK_MSG(false,
            "minimal repro: seed=0x%llx n=%d T=%d chunk=%d backend=%s: %s",
            static_cast<unsigned long long>(tr.seed),
            static_cast<int>(tr.n), tr.threads, static_cast<int>(tr.chunk),
            exec_backend_name(tr.backend), msg.c_str());
}

}  // namespace

int main() {
  constexpr int kTrials = 120;
  constexpr index_t kChunks[] = {1, 2, 3, 5, 8, 32};
  for (int trial = 0; trial < kTrials; ++trial) {
    std::uint64_t st = 0x5EED0000ULL + static_cast<std::uint64_t>(trial);
    Trial tr;
    tr.seed = splitmix(st);
    tr.n = static_cast<index_t>(16 + splitmix(st) % 285);
    tr.threads = static_cast<int>(1 + splitmix(st) % 8);
    tr.chunk = kChunks[splitmix(st) % 6];
    tr.backend =
        (splitmix(st) & 1) != 0 ? ExecBackend::kP2P : ExecBackend::kBarrier;
    const std::string failure = run_trial(tr);
    if (!failure.empty()) {
      shrink_and_report(tr, failure);
      break;  // one minimal repro is worth more than a wall of failures
    }
  }
  std::printf("%d trials: %lld tail waits kept\n", kTrials,
              static_cast<long long>(tail_waits_kept));
  CHECK(tail_waits_kept > 0);
  return javelin::test::finish("test_schedprop");
}
