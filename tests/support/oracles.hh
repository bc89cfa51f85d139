/**
 * @file
 * Golden oracles shared by the suites: the sort-based top-k reference the
 * MaxK tests compare pivot selection against, and dense aggregation
 * oracles (built on the double-precision `spmmReference` loops) for the
 * SpGEMM-forward / SSpMM-backward kernel pair, and the serial textbook
 * GEMM loops that define the fold order of the blocked, row-parallel
 * kernels in tensor/ops.hh and cbsrGemmTransB.
 */

#ifndef MAXK_TESTS_SUPPORT_ORACLES_HH
#define MAXK_TESTS_SUPPORT_ORACLES_HH

#include <cstdint>
#include <set>

#include "core/cbsr.hh"
#include "graph/csr.hh"
#include "tensor/matrix.hh"
#include "tensor/row_set.hh"

namespace maxk::test
{

/** The k largest values of row[0..n) as a multiset (sort-based). */
std::multiset<Float> topKOracle(const Float *row, std::uint32_t n,
                                std::uint32_t k);

/** Ascending positions of the k largest values, ties broken by column
 *  order — the exact contract of `pivotSelect`. */
std::vector<std::uint32_t> topKIndicesOracle(const Float *row,
                                             std::uint32_t n,
                                             std::uint32_t k);

/** Dense oracle for the forward SpGEMM: y = A * decompress(h). */
void spgemmOracle(const CsrGraph &g, const CbsrMatrix &h, Matrix &y);

/** Dense oracle for the backward SSpMM: the full A^T * dxl matrix, to be
 *  gathered at the CBSR pattern by the caller's comparator. */
void sspmmOracle(const CsrGraph &g, const Matrix &dxl, Matrix &dense);

/** Serial ikj C += A * B over the C rows of `rows`, skipping ±0 A
 *  terms (gemmAccum's contract). */
void referenceGemmAccum(const Matrix &a, const Matrix &b, Matrix &c,
                        RowSet rows = {});

/** Serial kij C = A^T * B over the rows of `rows` of A and B, skipping
 *  ±0 A terms (gemmTransA's). */
void referenceGemmTransA(const Matrix &a, const Matrix &b, Matrix &c,
                         RowSet rows = {});

/** Serial dot-product C = A * B^T with no skip on the C rows of `rows`
 *  (gemmTransB's); C is shaped with ensureShape, so unlisted rows keep
 *  their contents when the shape already matches. */
void referenceGemmTransB(const Matrix &a, const Matrix &b, Matrix &c,
                         RowSet rows = {});

/** Serial dot product over the gathered w.row(i)[sp_index]:
 *  dx = scatter(ds) * w^T on the rows of `rows` (cbsrGemmTransB's
 *  contract), unlisted rows kept as referenceGemmTransB keeps them. */
void referenceCbsrGemmTransB(const CbsrMatrix &ds, const Matrix &w,
                             Matrix &dx, RowSet rows = {});

} // namespace maxk::test

#endif // MAXK_TESTS_SUPPORT_ORACLES_HH
