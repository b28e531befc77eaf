// The synthetic analog of paper Table I. Each entry names its SuiteSparse
// counterpart and reproduces its class: dimension (scaled), row density,
// pattern symmetry, and level-structure character.
#include <cmath>

#include "javelin/gen/generators.hpp"

namespace javelin::gen {

namespace {

index_t scaled(index_t paper_n, double scale, index_t floor_n = 1000) {
  const double s = static_cast<double>(paper_n) * scale;
  return std::max<index_t>(floor_n, static_cast<index_t>(s));
}

index_t grid_side_2d(index_t n) {
  return std::max<index_t>(8, static_cast<index_t>(std::lround(std::sqrt(static_cast<double>(n)))));
}

index_t grid_side_3d(index_t n) {
  return std::max<index_t>(4, static_cast<index_t>(std::lround(std::cbrt(static_cast<double>(n)))));
}

}  // namespace

std::vector<std::string> suite_names() {
  return {"wang3",         "TSOPF_RS_b300_c2", "3D_28984_Tetra", "ibm_matrix_2",
          "fem_filter",    "trans4",           "scircuit",       "transient",
          "offshore",      "ASIC_320ks",       "af_shell3",      "parabolic_fem",
          "ASIC_680ks",    "apache2",          "tmt_sym",        "ecology2",
          "thermal2",      "G3_circuit"};
}

std::vector<std::string> degenerate_names() {
  return {"zero_diag", "saddle_point", "near_singular"};
}

SuiteEntry make_suite_matrix(const std::string& name, const SuiteOptions& opts) {
  const double sc = opts.scale;
  const std::uint64_t seed = opts.seed;
  SuiteEntry e;
  e.name = name;

  if (name == "wang3") {
    // 3-D semiconductor device, N=26064, RD 6.8, sym pattern, 10 levels.
    const index_t s = grid_side_3d(scaled(26064, sc));
    e.matrix = laplacian3d(s, s, s, 7);
    e.paper_sym_pattern = true; e.paper_levels = 10;
  } else if (name == "TSOPF_RS_b300_c2") {
    // Power flow, N=28338, RD 103.9, unsym pattern, 180 levels.
    const index_t n = scaled(28338, sc);
    e.matrix = power_system(n, std::max<index_t>(16, n / 40), std::max<index_t>(32, n / 300), seed ^ 0x1);
    e.paper_sym_pattern = false; e.paper_levels = 180;
  } else if (name == "3D_28984_Tetra") {
    // Tetrahedral mesh, N=28984, RD 9.8, unsym pattern, 34 levels.
    const index_t n = scaled(28984, sc);
    e.matrix = random_fem(n, 9, seed ^ 0x2, 0.01);
    e.paper_sym_pattern = false; e.paper_levels = 34;
  } else if (name == "ibm_matrix_2") {
    // Circuit, N=51448, RD 10.4, unsym pattern, 29 levels.
    const index_t n = scaled(51448, sc);
    e.matrix = circuit(n, 9.0, seed ^ 0x3, /*symmetric_pattern=*/false,
                       std::max<index_t>(2, n / 1500));
    e.paper_sym_pattern = false; e.paper_levels = 29;
  } else if (name == "fem_filter") {
    // FEM waveguide filter, N=74062, RD 23.4, sym pattern, 554 levels (many
    // tiny levels — the pathological case of §V/§VII).
    const index_t n = scaled(74062, sc);
    e.matrix = long_chain(n, 40, 10, seed ^ 0x4);
    e.paper_sym_pattern = true; e.paper_levels = 554;
  } else if (name == "trans4") {
    // Circuit transient, N=116835, RD 6.4, unsym pattern, 20 levels.
    const index_t n = scaled(116835, sc);
    e.matrix = circuit(n, 5.5, seed ^ 0x5, /*symmetric_pattern=*/false,
                       std::max<index_t>(2, n / 4000));
    e.paper_sym_pattern = false; e.paper_levels = 20;
  } else if (name == "scircuit") {
    // Circuit, N=170998, RD 5.6, sym pattern, 34 levels.
    const index_t n = scaled(170998, sc);
    e.matrix = circuit(n, 5.0, seed ^ 0x6, /*symmetric_pattern=*/true,
                       std::max<index_t>(2, n / 3000));
    e.paper_sym_pattern = true; e.paper_levels = 34;
  } else if (name == "transient") {
    // Circuit transient, N=178866, RD 5.4, sym pattern, 16 levels.
    const index_t n = scaled(178866, sc);
    e.matrix = circuit(n, 4.8, seed ^ 0x7, /*symmetric_pattern=*/true,
                       std::max<index_t>(2, n / 5000));
    e.paper_sym_pattern = true; e.paper_levels = 16;
  } else if (name == "offshore") {
    // 3-D EM FEM, N=259789, RD 16.3, sym, 74 levels. Group A.
    const index_t n = scaled(259789, sc);
    e.matrix = random_fem(n, 16, seed ^ 0x8, 0.004);
    e.paper_sym_pattern = true; e.paper_levels = 74;
  } else if (name == "ASIC_320ks") {
    const index_t n = scaled(321671, sc);
    e.matrix = circuit(n, 3.6, seed ^ 0x9, /*symmetric_pattern=*/true,
                       std::max<index_t>(2, n / 8000));
    e.paper_sym_pattern = true; e.paper_levels = 16;
  } else if (name == "af_shell3") {
    // Sheet-metal forming shell, N=504855, RD 34.8, sym, 630 levels. Group A.
    const index_t n = scaled(504855, sc);
    e.matrix = long_chain(n, 60, 16, seed ^ 0xA);
    e.paper_sym_pattern = true; e.paper_levels = 630;
  } else if (name == "parabolic_fem") {
    // Parabolic FEM, N=525825, RD 7.0, sym, 28 levels. Group A.
    const index_t n = scaled(525825, sc);
    const index_t s = grid_side_2d(n);
    e.matrix = anisotropic2d(s, s, 0.25);
    e.paper_sym_pattern = true; e.paper_levels = 28;
  } else if (name == "ASIC_680ks") {
    const index_t n = scaled(682712, sc);
    e.matrix = circuit(n, 2.2, seed ^ 0xB, /*symmetric_pattern=*/true,
                       std::max<index_t>(2, n / 10000));
    e.paper_sym_pattern = true; e.paper_levels = 21;
  } else if (name == "apache2") {
    // 3-D structural, N=715176, RD 6.7, sym, 13 levels. Group A.
    const index_t n = scaled(715176, sc);
    const index_t s = grid_side_3d(n);
    e.matrix = laplacian3d(s, s, s, 7);
    e.paper_sym_pattern = true; e.paper_levels = 13;
  } else if (name == "tmt_sym") {
    const index_t n = scaled(726713, sc);
    const index_t s = grid_side_2d(n);
    e.matrix = laplacian2d(s, s, 9);
    e.paper_sym_pattern = true; e.paper_levels = 28;
  } else if (name == "ecology2") {
    // 2-D circuit-theory landscape model, N=999999, RD 5.0, 13 levels. Group A.
    const index_t n = scaled(999999, sc);
    const index_t s = grid_side_2d(n);
    e.matrix = laplacian2d(s, s, 5);
    e.paper_sym_pattern = true; e.paper_levels = 13;
  } else if (name == "thermal2") {
    // Thermal FEM, N=1.2M, RD 7.0, 27 levels. Group A.
    const index_t n = scaled(1228045, sc);
    e.matrix = random_fem(n, 7, seed ^ 0xC, 0.003);
    e.paper_sym_pattern = true; e.paper_levels = 27;
  } else if (name == "G3_circuit") {
    const index_t n = scaled(1585478, sc);
    const index_t s = grid_side_2d(n);
    e.matrix = laplacian2d(s, s, 5);
    e.paper_sym_pattern = true; e.paper_levels = 13;
  } else if (name == "zero_diag") {
    // Degenerate: structurally-zero level-0 diagonal — guaranteed
    // ILU(0) numeric breakdown, shift-recoverable. Robustness fixture; the
    // paper_* stats have no SuiteSparse counterpart.
    e.matrix = degenerate_zero_diag(32, 32);
  } else if (name == "saddle_point") {
    // Degenerate: symmetric indefinite KKT block system with a
    // redundant constraint (exact zero pivot + PCG→GMRES escalation).
    e.matrix = degenerate_saddle(24, 24, 16);
  } else if (name == "near_singular") {
    // Degenerate: eps-shifted Neumann Laplacian (condition ~1e10),
    // a stagnation/conditioning stressor that factors fine.
    e.matrix = degenerate_near_singular(40, 40, 1e-10);
  } else {
    throw Error("unknown suite matrix: " + name);
  }
  return e;
}

}  // namespace javelin::gen
