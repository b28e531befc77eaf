// Seeded fuzz of the option space and of the Matrix-Market reader. A fixed
// seed keeps every failure reproducible; no external fuzzer is needed.
//
// Each option draw picks a small generator matrix, fill 0-2, a drop
// tolerance, modified ILU on or off, the backend, the item size and a team
// of 1-4, and in a third of the draws a hook that vetoes one random row of
// the numeric phase (the only region that can fail). Per draw:
//   * a clean numeric phase equals the serial factor bitwise, and a clean
//     ilu_apply equals ilu_apply_serial bitwise;
//   * a vetoed numeric phase reports the vetoed row, and refactors cleanly
//     once the hook is cleared;
//   * a breakdown without a hook also breaks down serially;
//   * solve_robust throws nothing but javelin::Error.
// Every seeded byte mutation of a valid Matrix-Market text parses into a
// valid matrix or throws javelin::Error.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/serial.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/ilu/symbolic.hpp"
#include "javelin/solver/robust.hpp"
#include "javelin/sparse/io.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

namespace javelin {
namespace {

using test::bitwise_equal;
using test::random_vector;

constexpr std::uint64_t kSeed = 0x5EEDF022;
constexpr int kDraws = 200;
constexpr int kMutations = 400;

/// Uniform pick in [0, n) straight from the engine, so the sequence of
/// draws is the same under every standard library.
std::uint64_t pick(std::mt19937_64& rng, std::uint64_t n) { return rng() % n; }

FaultHook poison(index_t row) {
  return [row](index_t r) { return r != row; };
}

/// The serial factor on the plan's permuted pattern, or nothing when the
/// serial reference breaks down.
std::optional<CsrMatrix> serial_factor(const CsrMatrix& a,
                                       const Factorization& f) {
  CsrMatrix lu =
      permute_symmetric(ilu_symbolic(a, f.opts.fill_level), f.plan.perm);
  const std::vector<index_t> diag = diagonal_positions(lu);
  try {
    ilu_factor_serial_inplace(lu, diag, f.opts);
  } catch (const Error&) {
    return std::nullopt;
  }
  return lu;
}

/// ilu_apply on a clean factor must equal ilu_apply_serial bitwise.
bool apply_matches_serial(const Factorization& f, SolveWorkspace& ws) {
  const auto r = random_vector(f.n(), 0xA11);
  std::vector<value_t> z(r.size()), z_ser(r.size());
  SolveWorkspace ws_ser;
  ilu_apply(f, r, z, ws);
  ilu_apply_serial(f, r, z_ser, ws_ser);
  return bitwise_equal(z, z_ser);
}

struct Fixture {
  const char* name;
  CsrMatrix a;
};

/// What the draws exercised, printed so a silent drift of the generators
/// or of the draw sequence shows.
struct Tally {
  int factored = 0;
  int broke_down = 0;
  int vetoed = 0;
};

void run_draw(int d, const Fixture& fx, std::mt19937_64& rng, Tally& tally) {
  static constexpr double kDrops[] = {0.0, 1e-4, 1e-2};
  static constexpr index_t kChunks[] = {1, 4, 32};
  const CsrMatrix& a = fx.a;
  IluOptions opts;
  opts.fill_level = static_cast<int>(pick(rng, 3));
  opts.drop_tolerance = kDrops[pick(rng, 3)];
  opts.modified = pick(rng, 2) == 1;
  opts.exec_backend = pick(rng, 2) ? ExecBackend::kBarrier : ExecBackend::kP2P;
  opts.p2p_chunk_rows = kChunks[pick(rng, 3)];
  const int threads = 1 + static_cast<int>(pick(rng, 4));
  opts.num_threads = threads;
  opts.retarget_oversubscribed = false;  // run the drawn team as planned
  const bool hooked = pick(rng, 3) == 0;
  const auto target = static_cast<index_t>(
      pick(rng, static_cast<std::uint64_t>(a.rows())));

  char what[192];
  std::snprintf(what, sizeof what,
                "draw %d %s fill=%d drop=%g modified=%d %s chunk=%d t=%d", d,
                fx.name, opts.fill_level, opts.drop_tolerance,
                opts.modified ? 1 : 0,
                opts.exec_backend == ExecBackend::kP2P ? "p2p" : "barrier",
                static_cast<int>(opts.p2p_chunk_rows), threads);
  ThreadCountGuard guard(threads);

  Factorization f = ilu_prepare(a, opts);
  const std::optional<CsrMatrix> ref = serial_factor(a, f);
  const FactorStatus clean = ilu_factor_numeric_status(f);
  CHECK_MSG(clean.ok() == ref.has_value(), "%s: parallel %s, serial %s", what,
            clean.ok() ? "factored" : "broke down",
            ref ? "factored" : "broke down");
  SolveWorkspace ws;
  ++(clean.ok() ? tally.factored : tally.broke_down);
  if (clean.ok() && ref) {
    CHECK_MSG(bitwise_equal(f.lu.values(), ref->values()), "%s: factor",
              what);
    CHECK_MSG(apply_matches_serial(f, ws), "%s: apply", what);

    if (hooked) {
      ++tally.vetoed;
      f.opts.fault_hook = poison(target);
      const index_t reported = ilu_refactor_status(f, a).row;
      CHECK_MSG(reported == target, "%s: veto of row %lld reported row %lld",
                what, static_cast<long long>(target),
                static_cast<long long>(reported));
      f.opts.fault_hook = nullptr;
      CHECK_MSG(ilu_refactor_status(f, a).ok(), "%s: refactor after veto",
                what);
      CHECK_MSG(bitwise_equal(f.lu.values(), ref->values()),
                "%s: factor after veto", what);
      CHECK_MSG(apply_matches_serial(f, ws), "%s: apply after veto", what);
    }
  }

  RobustOptions ro;
  ro.ilu = opts;
  if (hooked) ro.ilu.fault_hook = poison(target);
  ro.solver.max_iterations = 60;
  const auto b = random_vector(a.rows(), 0xC0DE);
  std::vector<value_t> x(b.size(), 0.0);
  try {
    (void)solve_robust(a, b, x, ro);
  } catch (const Error&) {
    // Structural failures and fault-injection aborts are javelin::Errors.
  } catch (const std::exception& e) {
    CHECK_MSG(false, "%s: solve_robust threw a non-javelin exception: %s",
              what, e.what());
  }
}

void fuzz_options() {
  std::vector<Fixture> fixtures;
  fixtures.push_back({"grid", gen::laplacian2d(14, 14, 5)});
  fixtures.push_back({"fem", gen::random_fem(240, 8, 11, 0.02)});
  fixtures.push_back({"circuit", gen::circuit(240, 5.0, 3, false, 6)});
  fixtures.push_back({"chain", gen::long_chain(300, 8, 4, 5)});
  fixtures.push_back({"power", gen::power_system(200, 8, 24, 9)});
  fixtures.push_back({"zero_diag", gen::degenerate_zero_diag(10, 10)});
  fixtures.push_back({"saddle", gen::degenerate_saddle(8, 8, 6)});
  std::mt19937_64 rng(kSeed);
  Tally tally;
  for (int d = 0; d < kDraws; ++d) {
    run_draw(d, fixtures[pick(rng, fixtures.size())], rng, tally);
  }
  std::printf("%d draws: %d factored, %d broke down, %d vetoed\n", kDraws,
              tally.factored, tally.broke_down, tally.vetoed);
  // Every kind of check must have run, or the draws test less than claimed.
  CHECK(tally.factored > 0 && tally.broke_down > 0 && tally.vetoed > 0);
}

void fuzz_matrix_market() {
  std::ostringstream general;
  write_matrix_market(general, gen::laplacian2d(4, 4, 5));
  const std::string seeds[] = {
      general.str(),
      "%%MatrixMarket matrix coordinate real symmetric\n% comment\n"
      "3 3 4\n1 1 4\n2 1 -1\n2 2 4\n3 3 2.5\n",
      "%%MatrixMarket matrix coordinate pattern skew-symmetric\n"
      "3 3 2\n2 1\n3 2\n",
  };
  static constexpr char kBytes[] = "0123456789 -+.eE\n%xX";
  std::mt19937_64 rng(kSeed ^ 0x4D4D);
  int parsed = 0;
  int rejected = 0;
  for (int m = 0; m < kMutations; ++m) {
    std::string text = seeds[pick(rng, std::size(seeds))];
    const int edits = 1 + static_cast<int>(pick(rng, 3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = pick(rng, text.size());
      // Mostly bytes the grammar uses, sometimes any byte at all.
      const char byte = pick(rng, 4) == 0
                            ? static_cast<char>(pick(rng, 256))
                            : kBytes[pick(rng, sizeof kBytes - 1)];
      switch (pick(rng, 4)) {
        case 0: text[at] = byte; break;
        case 1: text.insert(at, 1, byte); break;
        case 2: text.erase(at, 1); break;
        default: text.resize(at); break;
      }
    }
    std::istringstream in(text);
    CsrMatrix a;
    try {
      a = read_matrix_market(in);
    } catch (const Error&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      CHECK_MSG(false, "mutation %d threw a non-javelin exception: %s", m,
                e.what());
      continue;
    }
    try {
      a.validate();
      ++parsed;
    } catch (const Error& e) {
      CHECK_MSG(false, "mutation %d parsed into an invalid matrix: %s", m,
                e.what());
    }
  }
  std::printf("%d mutations: %d parsed, %d rejected\n", kMutations, parsed,
              rejected);
  // Both outcomes must be reached, or the mutations test nothing.
  CHECK(parsed > 0 && rejected > 0);
}

}  // namespace
}  // namespace javelin

int main() {
  javelin::fuzz_options();
  javelin::fuzz_matrix_market();
  return javelin::test::finish("test_fuzz");
}
