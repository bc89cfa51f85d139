/**
 * @file
 * Golden reference SpMM (no simulation): Y = A * X computed with plain
 * loops in double precision accumulation. Every simulated kernel's
 * functional output is validated against this in the test suite.
 */

#ifndef MAXK_KERNELS_SPMM_REF_HH
#define MAXK_KERNELS_SPMM_REF_HH

#include "graph/csr.hh"
#include "tensor/matrix.hh"

namespace maxk
{

/** Y = A * X. Y is shaped numNodes x X.cols(); every row is
 *  overwritten. */
void spmmReference(const CsrGraph &a, const Matrix &x, Matrix &y);

/** Y = A^T * X without materialising the transpose. */
void spmmTransposedReference(const CsrGraph &a, const Matrix &x, Matrix &y);

} // namespace maxk

#endif // MAXK_KERNELS_SPMM_REF_HH
