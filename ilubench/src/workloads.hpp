// The three workloads. Each is a closed loop with one caller: the next
// operation starts when the previous one has returned, the way a simulation
// code calls its preconditioned solver. Matrices are fixed (their level
// structure is a stated property of the workload); the seed sets the
// right-hand sides and, on steps_trans4, the per-step value perturbations.
//
// Every workload runs an operation two ways with identical inputs:
//   * the production path (log == nullptr): the library's own operator
//     objects, exactly as an application would call them;
//   * the traced path: the same Krylov driver over a bench-built operator
//     that calls ilu_apply / ilu_apply_panel and spmv directly, with a span
//     around each call. By the library's contract the two are bitwise
//     identical, which the traced run checks on every operation.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/batch.hpp"
#include "javelin/solver/batch.hpp"
#include "javelin/solver/krylov.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace ilubench {

using javelin::CsrMatrix;
using javelin::Factorization;

/// What one operation did.
struct Op {
  double seconds = 0;  ///< wall time of the operation alone
  int rhs = 0;         ///< right-hand sides solved
  int failed = 0;      ///< of those, how many failed the output gate
  int iterations = 0;  ///< Krylov iterations (a batch: its slowest column)
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// ilu_factor calls whose median is setup_s (after one discarded call).
  virtual int setup_reps() const = 0;
  /// The workload's preconditioner call applies k = 8 panels.
  virtual bool panel() const { return false; }

  /// Builds the production preconditioner object from A and returns the
  /// seconds that took (dropping the previous object is not timed). With a
  /// log, ilu_factor runs as its two spanned halves, ilu_prepare and
  /// ilu_factor_numeric.
  virtual double setup(SpanLog* log) = 0;

  /// Runs operation `i` on the production path (log null) or the traced
  /// path, and checks every solution against the output gate.
  virtual Op run(int i, SpanLog* log) = 0;

  /// Bitwise digest of the last operation's solution(s).
  virtual std::uint64_t digest() const = 0;

  /// Workload-specific bitwise check of the traced run; true when none.
  virtual bool extra_parity() { return true; }

  virtual const CsrMatrix& matrix() const = 0;
  virtual const Factorization& factor() const = 0;
};

/// FNV-1a over the bytes of `v`.
inline std::uint64_t digest_of(std::span<const value_t> v) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size_bytes(); ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/// ilu_factor, or its two halves under spans when tracing.
inline Factorization factor_of(const CsrMatrix& a, SpanLog* log) {
  if (log == nullptr) return javelin::ilu_factor(a);
  std::optional<Factorization> f;
  {
    Scoped s(log, "ilu.prepare");
    f.emplace(javelin::ilu_prepare(a));
  }
  {
    Scoped s(log, "ilu.numeric");
    javelin::ilu_factor_numeric(*f);
  }
  return std::move(*f);
}

/// The traced Krylov operator: ilu_apply and a partitioned spmv, each under
/// its own span. `f`, `a`, `ws` and `log` must outlive it.
inline javelin::KrylovOperator traced_operator(
    const Factorization& f, const CsrMatrix& a,
    std::shared_ptr<const javelin::RowPartition> part,
    javelin::SolveWorkspace& ws, SpanLog& log) {
  javelin::KrylovOperator op;
  op.precond = [&f, &ws, &log](std::span<const value_t> r,
                               std::span<value_t> z) {
    Scoped s(&log, "ilu.apply");
    javelin::ilu_apply(f, r, z, ws);
  };
  op.apply_spmv = [&f, &a, &ws, &log, p = part.get()](
                      std::span<const value_t> r, std::span<value_t> z,
                      std::span<value_t> t) {
    {
      Scoped s(&log, "ilu.apply");
      javelin::ilu_apply(f, r, z, ws);
    }
    Scoped s(&log, "sparse.spmv");
    javelin::spmv(a, *p, z, t);
  };
  op.part = std::move(part);
  return op;
}

/// pcg_jump3d_64: ILU-PCG to 1e-8 on a 64³ jumpy-coefficient diffusion
/// problem — the paper's target case, one factor serving ~1,300 sweeps over
/// ~190 wide levels.
class PcgJump3d final : public Workload {
 public:
  explicit PcgJump3d(std::uint64_t seed)
      // The coefficient field is fixed (the legacy bench's jump3d field):
      // across fields PCG needs 612-719 iterations, a spread no time bound
      // could hold.
      : seed_(seed),
        a_(javelin::gen::jump3d(64, 64, 64, 8, 1e4, 0x1A3)),
        part_(std::make_shared<const javelin::RowPartition>(
            javelin::RowPartition::build(a_))),
        b_(static_cast<std::size_t>(a_.rows())),
        x_(b_.size()) {
    so_.max_iterations = 5000;
    so_.tolerance = kTolerance;
  }

  int setup_reps() const override { return 15; }

  double setup(SpanLog* log) override {
    op_.reset();
    Scoped s(log, "setup");
    const std::int64_t t0 = now_ns();
    op_ = std::make_unique<javelin::FusedIluOperator>(a_, factor_of(a_, log));
    const double sec = static_cast<double>(now_ns() - t0) * 1e-9;
    prod_ = op_->op();
    return sec;
  }

  Op run(int i, SpanLog* log) override {
    fill_rhs(b_, seed_, static_cast<std::uint64_t>(i));
    std::fill(x_.begin(), x_.end(), 0);
    std::optional<javelin::KrylovOperator> traced;
    if (log != nullptr) {
      traced = traced_operator(op_->factorization(), a_, part_, ws_, *log);
    }
    Op op;
    op.rhs = 1;
    javelin::SolverResult res;
    {
      Scoped o(log, "op");
      const std::int64_t t0 = now_ns();
      {
        Scoped s(log, "solver.solve");
        res = javelin::pcg_fused(a_, b_, x_, traced ? *traced : prod_, so_);
      }
      op.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    op.iterations = res.iterations;
    op.failed = res.converged && residual_ok(a_, b_, x_, scratch_) ? 0 : 1;
    return op;
  }

  std::uint64_t digest() const override { return digest_of(x_); }
  const CsrMatrix& matrix() const override { return a_; }
  const Factorization& factor() const override { return op_->factorization(); }

 private:
  std::uint64_t seed_;
  CsrMatrix a_;
  std::shared_ptr<const javelin::RowPartition> part_;
  javelin::SolverOptions so_;
  std::unique_ptr<javelin::FusedIluOperator> op_;
  javelin::KrylovOperator prod_;
  javelin::SolveWorkspace ws_;  // the traced operator's
  std::vector<value_t> b_, x_, scratch_;
};

/// steps_trans4: circuit-transient time stepping on the trans4 analog. Each
/// step perturbs every off-diagonal by a seeded factor in [0.9, 1.0] (the
/// pattern and strict diagonal dominance stay), refactors, and solves with
/// GMRES(30) to 1e-8. Deep, narrow levels: synchronization dominates.
class StepsTrans4 final : public Workload {
 public:
  explicit StepsTrans4(std::uint64_t seed)
      : seed_(seed),
        base_(make_base()),
        a_(base_),
        part_(std::make_shared<const javelin::RowPartition>(
            javelin::RowPartition::build(base_))),
        b_(static_cast<std::size_t>(base_.rows())),
        x_(b_.size()) {
    so_.tolerance = kTolerance;
    for (index_t r = 0; r < base_.rows(); ++r) {
      for (index_t k = base_.row_begin(r); k < base_.row_end(r); ++k) {
        if (base_.col_idx()[static_cast<std::size_t>(k)] != r) {
          offdiag_.push_back(k);
        }
      }
    }
  }

  int setup_reps() const override { return 15; }

  double setup(SpanLog* log) override {
    m_.reset();
    Scoped s(log, "setup");
    const std::int64_t t0 = now_ns();
    m_ = std::make_unique<javelin::IluPreconditioner>(factor_of(a_, log));
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  Op run(int i, SpanLog* log) override {
    const auto step = static_cast<std::uint64_t>(i);
    const auto base = base_.values();
    auto vals = a_.values_mut();
    for (std::size_t j = 0; j < offdiag_.size(); ++j) {
      const auto k = static_cast<std::size_t>(offdiag_[j]);
      vals[k] = base[k] * (0.9 + 0.1 * uniform01(seed_, 2 * step + 1, j));
    }
    fill_rhs(b_, seed_, 2 * step);
    std::fill(x_.begin(), x_.end(), 0);
    Factorization& f = m_->factorization();
    std::optional<javelin::KrylovOperator> traced;
    if (log != nullptr) traced = traced_operator(f, a_, part_, ws_, *log);

    Op op;
    op.rhs = 1;
    javelin::SolverResult res;
    {
      Scoped o(log, "op");
      const std::int64_t t0 = now_ns();
      {
        Scoped s(log, "ilu.refactor");
        javelin::ilu_refactor(f, a_);
      }
      {
        Scoped s(log, "solver.solve");
        res = traced ? javelin::gmres_fused(a_, b_, x_, *traced, so_)
                     : javelin::gmres(a_, b_, x_, m_->fn(), so_);
      }
      op.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    op.iterations = res.iterations;
    op.failed = res.converged && residual_ok(a_, b_, x_, scratch_) ? 0 : 1;
    return op;
  }

  std::uint64_t digest() const override { return digest_of(x_); }
  const CsrMatrix& matrix() const override { return a_; }
  const Factorization& factor() const override { return m_->factorization(); }

 private:
  static CsrMatrix make_base() {
    javelin::gen::SuiteOptions so;
    so.scale = 1.0;
    return javelin::gen::make_suite_matrix("trans4", so).matrix;
  }

  std::uint64_t seed_;
  CsrMatrix base_;  // step values are base values times the perturbation
  CsrMatrix a_;     // the current step's matrix
  std::shared_ptr<const javelin::RowPartition> part_;
  std::vector<index_t> offdiag_;
  javelin::SolverOptions so_;
  std::unique_ptr<javelin::IluPreconditioner> m_;
  javelin::SolveWorkspace ws_;  // the traced operator's
  std::vector<value_t> b_, x_, scratch_;
};

/// batch_thermal2: batched serving on the thermal2 analog. Each batch solves
/// k = 8 right-hand sides with pcg_many over ilu_panel_preconditioner and a
/// WorkspacePool. The working set is far beyond the last-level cache of a
/// typical node, so the panel kernels are DRAM-bound.
class BatchThermal2 final : public Workload {
 public:
  static constexpr index_t kRhs = 8;

  explicit BatchThermal2(std::uint64_t seed)
      : seed_(seed),
        a_(make_matrix()),
        n_(static_cast<std::size_t>(a_.rows())),
        b_(n_ * kRhs),
        x_(n_ * kRhs) {
    so_.tolerance = kTolerance;
  }

  int setup_reps() const override { return 5; }
  bool panel() const override { return true; }

  double setup(SpanLog* log) override {
    f_.reset();
    pool_.reset();
    Scoped s(log, "setup");
    const std::int64_t t0 = now_ns();
    f_.emplace(factor_of(a_, log));
    const double sec = static_cast<double>(now_ns() - t0) * 1e-9;
    pool_ = std::make_unique<javelin::WorkspacePool>();
    prod_ = javelin::ilu_panel_preconditioner(*f_, *pool_);
    return sec;
  }

  Op run(int i, SpanLog* log) override {
    for (index_t j = 0; j < kRhs; ++j) {
      fill_rhs(col(b_, j), seed_,
               static_cast<std::uint64_t>(i) * kRhs + static_cast<std::uint64_t>(j));
    }
    std::fill(x_.begin(), x_.end(), 0);
    javelin::PanelPrecondFn pre = prod_;
    if (log != nullptr) {
      pre = [this, log](std::span<const value_t> r, std::span<value_t> z,
                        index_t k) {
        Scoped s(log, "ilu.apply");
        prod_(r, z, k);
      };
    }
    Op op;
    op.rhs = kRhs;
    std::vector<javelin::SolverResult> res;
    {
      Scoped o(log, "op");
      const std::int64_t t0 = now_ns();
      {
        Scoped s(log, "solver.solve");
        res = javelin::pcg_many(a_, b_, x_, kRhs, pre, so_);
      }
      op.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    for (index_t j = 0; j < kRhs; ++j) {
      const javelin::SolverResult& r = res[static_cast<std::size_t>(j)];
      op.iterations = std::max(op.iterations, r.iterations);
      if (!r.converged || !residual_ok(a_, col(b_, j), col(x_, j), scratch_)) {
        ++op.failed;
      }
    }
    return op;
  }

  /// Column 0 of the last batch against scalar pcg on the same right-hand
  /// side with the same factor.
  bool extra_parity() override {
    std::vector<value_t> x(n_, 0);
    javelin::SolveWorkspace ws;
    const Factorization& f = *f_;
    javelin::pcg(
        a_, col(b_, 0), x,
        [&f, &ws](std::span<const value_t> r, std::span<value_t> z) {
          javelin::ilu_apply(f, r, z, ws);
        },
        so_);
    return std::equal(x.begin(), x.end(), x_.begin());
  }

  std::uint64_t digest() const override { return digest_of(x_); }
  const CsrMatrix& matrix() const override { return a_; }
  const Factorization& factor() const override { return *f_; }

 private:
  static CsrMatrix make_matrix() {
    javelin::gen::SuiteOptions so;
    so.scale = 1.0;
    return javelin::gen::make_suite_matrix("thermal2", so).matrix;
  }

  std::span<value_t> col(std::vector<value_t>& v, index_t j) const {
    return std::span<value_t>(v).subspan(static_cast<std::size_t>(j) * n_, n_);
  }

  std::uint64_t seed_;
  CsrMatrix a_;
  std::size_t n_;
  javelin::SolverOptions so_;
  std::optional<Factorization> f_;
  std::unique_ptr<javelin::WorkspacePool> pool_;
  javelin::PanelPrecondFn prod_;
  std::vector<value_t> b_, x_, scratch_;
};

inline std::unique_ptr<Workload> make_workload(const std::string& name,
                                               std::uint64_t seed) {
  if (name == "pcg_jump3d_64") return std::make_unique<PcgJump3d>(seed);
  if (name == "steps_trans4") return std::make_unique<StepsTrans4>(seed);
  if (name == "batch_thermal2") return std::make_unique<BatchThermal2>(seed);
  return nullptr;
}

}  // namespace ilubench
