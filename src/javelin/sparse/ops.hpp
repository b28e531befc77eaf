// Structural operations on CSR matrices: transpose, SpGEMM, symmetric
// permutation, pattern symmetrization (A + Aᵀ), diagonal lookup, and the
// small dense helpers the tests compare against. These are the
// preprocessing primitives Javelin composes (paper §III: permutation into
// the level ordering during the copy-fill phase, which also records where
// each nonzero of A lands).
#pragma once

#include <span>
#include <vector>

#include "javelin/sparse/csr.hpp"

namespace javelin {

/// Bᵀ with values. O(nnz) counting transpose. Large inputs run a chunked
/// parallel scatter (per-chunk column histograms, prefix-summed into disjoint
/// write windows); the output is uniquely determined, so every thread count
/// produces bitwise-identical results.
CsrMatrix transpose(const CsrMatrix& a);

/// Sparse matrix product C = A·B via a two-pass hash-accumulator SpGEMM:
/// a symbolic pass counts each output row's distinct columns with a dense
/// marker, then a numeric pass fills values, both parallel over rows.
/// Per output entry the accumulation walks A's row and B's rows in storage
/// order regardless of which thread owns the row, so results are
/// bitwise-deterministic across thread counts (same discipline as the
/// factorization parity guarantee). Rows of the result are sorted; input
/// rows need not be.
CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b);

/// Pattern of A + Aᵀ (values are a[i][j] + a[j][i] treating missing as 0).
/// The orderings and AMG symmetrize through it; test_ops checks
/// compute_level_sets against the levels of its lower part.
CsrMatrix pattern_symmetrize(const CsrMatrix& a);

/// True iff the sparsity pattern (not values) is symmetric — the "SP" column
/// of paper Table I.
bool pattern_symmetric(const CsrMatrix& a);

/// Symmetric permutation P·A·Pᵀ. `perm` is new-to-old: row r of the result is
/// row perm[r] of A, and columns are relabelled by the inverse map. When
/// `slot_of` is given it is resized to a.nnz() and slot_of[k] records the
/// position of A's k-th nonzero in the result (the refactor scatter map of a
/// factor on A's own pattern).
CsrMatrix permute_symmetric(const CsrMatrix& a, std::span<const index_t> perm,
                            std::vector<index_t>* slot_of = nullptr);

/// Invert a permutation: out[perm[i]] = i.
std::vector<index_t> invert_permutation(std::span<const index_t> perm);

/// Position of each diagonal entry in the nonzero array (row-parallel);
/// throws if a diagonal entry is structurally missing.
std::vector<index_t> diagonal_positions(const CsrMatrix& a);

/// Max |a_ij - b_ij| over the union pattern (dense-free comparison helper for
/// tests and benches).
value_t max_abs_difference(const CsrMatrix& a, const CsrMatrix& b);

/// Dense A*B for small validation problems in tests (n <= a few thousand).
std::vector<value_t> dense_matmul(const CsrMatrix& a, const CsrMatrix& b);

/// Dense representation (row-major rows x cols) for small test matrices.
std::vector<value_t> to_dense(const CsrMatrix& a);

}  // namespace javelin
