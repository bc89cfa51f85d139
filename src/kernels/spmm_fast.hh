/**
 * @file
 * Functional fast-path SpMM loops (no device simulation, float
 * accumulation) shared by every registered forward variant.
 *
 * The training loop accumulates in fp32 — that is the numeric contract
 * the convergence tests pin — while the simulated kernels accumulate in
 * double to stay bitwise-identical to spmmReference. Keeping the fast
 * loops here lets the registry offer both entry points per variant: the
 * schedule (row-wise / nnz-balanced / row-caching) only changes the
 * traffic model, never the per-row fp32 fold order, so all forward
 * variants share these exact loops and training numerics are invariant
 * under kernel selection.
 */

#ifndef MAXK_KERNELS_SPMM_FAST_HH
#define MAXK_KERNELS_SPMM_FAST_HH

#include "graph/csr.hh"
#include "tensor/matrix.hh"
#include "tensor/row_set.hh"

namespace maxk
{

/** out = A * x on the rows of `rows` (tensor/row_set.hh), fp32
 *  accumulation in CSR edge order, row-parallel. Bitwise-identical at
 *  any MAXK_THREADS (one writer per output row). */
void spmmRowWiseFast(const CsrGraph &a, const Matrix &x, Matrix &out,
                     RowSet rows = {});

/** out = A^T * x, fp32 accumulation, without materialising the
 *  transpose. Bitwise-identical at any MAXK_THREADS (serial edge-order
 *  fold, gathered over the stable transpose when parallel). */
void spmmTransposedFast(const CsrGraph &a, const Matrix &x, Matrix &out);

} // namespace maxk

#endif // MAXK_KERNELS_SPMM_FAST_HH
