// Deterministic synthetic matrix generators.
//
// The paper evaluates on 18 SuiteSparse matrices (Table I). Those files are
// not redistributable here, so javelin::gen builds synthetic analogs that
// reproduce the *pattern statistics that drive Javelin's behaviour*: matrix
// dimension, nonzeros per row (RD), symbolic symmetry (SP), and the level
// structure class (few huge levels for grid PDEs, hundreds of small levels
// for shell/filter problems, a handful of dense rows for power systems).
// See DESIGN.md's substitution table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "javelin/sparse/csr.hpp"

namespace javelin::gen {

/// 2-D structured grid Laplacian, 5-point (stencil=5) or 9-point (stencil=9)
/// on an nx × ny grid. SPD, pattern-symmetric.
CsrMatrix laplacian2d(index_t nx, index_t ny, int stencil = 5);

/// 3-D structured grid Laplacian, 7-point or 27-point on nx × ny × nz.
CsrMatrix laplacian3d(index_t nx, index_t ny, index_t nz, int stencil = 7);

/// Anisotropic 2-D diffusion: 5-point with coefficients (1, eps) — stretches
/// the level structure like parabolic_fem-class problems.
CsrMatrix anisotropic2d(index_t nx, index_t ny, double eps);

/// Anisotropic 3-D diffusion: 7-point with directional coefficients
/// (1, eps_y, eps_z). Strong coupling along x only (the production-scale
/// analog of anisotropic2d); SPD with Neumann-style boundary fold-in.
CsrMatrix anisotropic3d(index_t nx, index_t ny, index_t nz, double eps_y,
                        double eps_z);

/// Jumpy-coefficient 3-D diffusion: 7-point finite-volume discretization of
/// -div(c grad u) where c is piecewise-constant on cubes of `block`³ grid
/// cells, log-uniform in [1, contrast] (deterministic: the coefficient of a
/// block is a SplitMix64 hash of its coordinates and `seed`). Face
/// transmissibilities are harmonic means, so the matrix is SPD with entry
/// magnitudes spanning the full contrast ratio — the hard-preconditioning
/// analog of SPE-style reservoir problems.
CsrMatrix jump3d(index_t nx, index_t ny, index_t nz, index_t block,
                 double contrast, std::uint64_t seed);

/// Unstructured FEM-like symmetric matrix: n rows, ~row_degree random
/// symmetric off-diagonals with short-range locality; SPD by diagonal
/// dominance. Models tetrahedral meshes (3D_28984_Tetra class).
CsrMatrix random_fem(index_t n, index_t row_degree, std::uint64_t seed,
                     double locality = 0.02);

/// Circuit-like matrix: power-law degree distribution (few hub nets touching
/// many nodes), unsymmetric values, optionally unsymmetric pattern.
/// Models scircuit / trans4 / ASIC_*ks.
CsrMatrix circuit(index_t n, double avg_degree, std::uint64_t seed,
                  bool symmetric_pattern = true, index_t hub_count = 0);

/// Power-system matrix with dense row blocks: a sparse grid base plus
/// `dense_rows` rows each containing ~dense_row_nnz entries.
/// Models TSOPF_RS_* (RD ≈ 100, unsymmetric pattern).
CsrMatrix power_system(index_t n, index_t dense_rows, index_t dense_row_nnz,
                       std::uint64_t seed);

/// Banded matrix with long thin structure and strong sequential coupling:
/// produces many tiny levels like fem_filter / af_shell3.
CsrMatrix long_chain(index_t n, index_t band, index_t coupling,
                     std::uint64_t seed);

/// Make strictly diagonally dominant in place (|a_ii| > Σ|a_ij| + margin) so
/// ILU(0) exists and iterative methods converge — the usual synthetic-suite
/// convention.
void make_diagonally_dominant(CsrMatrix& a, value_t margin = 1.0);

// --- degenerate matrices (gen/degenerate.cpp) ------------------------------
// Robustness fixtures for the breakdown-safe pipeline. NOT part of
// suite_names(): the bench parity suite stays factorable.

/// 2-D Laplacian whose ROW-0 diagonal is exactly 0 — a level-0 row has no
/// lower dependencies, so ILU(0) breaks down deterministically there and a
/// Manteuffel diagonal shift repairs it.
CsrMatrix degenerate_zero_diag(index_t nx, index_t ny);

/// Symmetric saddle point [[A Bᵀ],[B 0]] (A = 2-D Laplacian, m constraint
/// rows with explicit 0.0 C-block diagonals). The last constraint is
/// redundant (all-zero row), so its pivot is exactly 0; the system is
/// indefinite (PCG → GMRES fallback) and singular-but-consistent for
/// right-hand sides of the form K x.
CsrMatrix degenerate_saddle(index_t nx, index_t ny, index_t m);

/// Near-singular pure-Neumann 2-D Laplacian: diag = neighbor count + eps.
/// SPD, factorable, condition ~1/eps — exercises the stagnation/non-finite
/// Krylov guards instead of the factorization path.
CsrMatrix degenerate_near_singular(index_t nx, index_t ny, double eps);

/// A named matrix of the synthetic suite, plus what the paper reports in
/// Table I for its SuiteSparse counterpart (at full scale).
struct SuiteEntry {
  std::string name;  ///< SuiteSparse counterpart name
  CsrMatrix matrix;
  /// Symmetric pattern: the bench solves these with PCG, the rest with GMRES.
  bool paper_sym_pattern = true;
  index_t paper_levels = 0;
};

/// Options controlling suite generation.
struct SuiteOptions {
  /// Scale factor on matrix dimension (1.0 = the paper's sizes; benches
  /// default to a smaller scale so the full harness runs in minutes).
  double scale = 0.05;
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
};

/// Build one suite entry by its SuiteSparse counterpart name; throws if
/// unknown.
SuiteEntry make_suite_matrix(const std::string& name,
                             const SuiteOptions& opts = {});

/// Names in suite order.
std::vector<std::string> suite_names();

/// Names of the degenerate robustness fixtures. Disjoint from
/// suite_names() — the parity/bench suite never sees them; make_suite_matrix
/// accepts both sets.
std::vector<std::string> degenerate_names();

}  // namespace javelin::gen
