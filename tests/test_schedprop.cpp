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
// Trials are seeded and, on failure, shrunk: the matrix generator draws
// each row's dependencies from a per-row stream keyed on (seed, row), so a
// size-n' prefix of the size-n matrix is itself a valid test case and the
// shrink loop just re-runs smaller n until the failure disappears, then
// prints the minimal reproducing (seed, n, T, chunk, backend).
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
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
      build_exec_schedule(tr.backend, tr.n, ls.level_ptr, ls.rows_by_level,
                          deps, tr.threads, tr.chunk);

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
    exec_run(s, [&](index_t r, int) { eval_row(m, x, r); });
  }
  if (!javelin::test::bitwise_equal(x, ref)) {
    return "scheduled execution diverged from the serial reference";
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
      exec_run(mut, [&](index_t r, int) { eval_row(m, y, r); });
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
  return javelin::test::finish("test_schedprop");
}
