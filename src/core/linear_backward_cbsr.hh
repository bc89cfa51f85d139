/**
 * @file
 * CBSR-aware backward kernels for the Linear stage (ISSUE 4 tentpole).
 *
 * After a MaxK layer the upstream gradient dY arrives in CBSR form: the
 * backward SSpMM writes exactly k values per row at the forward sparsity
 * pattern (Sec. 3.1 — the gradient reuses the forward mask). The dense
 * path decompressed that gradient into an N x dim_origin matrix purely
 * so the dense GEMMs could consume it, moving dim_origin/k times more
 * bytes than the information it carries. These kernels consume
 * sp_data/sp_index directly:
 *
 *   dW = X^T · scatter(dY)      (cbsrGemmTransA)
 *   db = colsum(scatter(dY))    (cbsrColumnSums)
 *   dX = scatter(dY) · W^T      (cbsrGemmTransB)
 *
 * All three are bitwise-identical to running the dense tensor/ops.hh
 * kernels on decompress(dY): per output element the same contributions
 * fold in the same order, and the skipped terms are exact ±0 products
 * that cannot change an IEEE sum under round-to-nearest (the
 * equivalence suite asserts equals(), not near()).
 *
 * Finiteness precondition: the ±0-product argument requires finite X
 * and W. A ±inf/NaN entry there makes the dense path fold 0*inf = NaN
 * into slots outside the CBSR pattern, which these kernels (correctly)
 * never touch — the sparse result stays finite where the dense one
 * NaN-poisons. Training keeps X/W finite (and pivotSelect handles
 * non-finite activations upstream), so the divergence only matters if
 * the run has already blown up.
 */

#ifndef MAXK_CORE_LINEAR_BACKWARD_CBSR_HH
#define MAXK_CORE_LINEAR_BACKWARD_CBSR_HH

#include <cstdint>

#include "core/cbsr.hh"
#include "gpusim/device.hh"
#include "tensor/matrix.hh"
#include "tensor/row_set.hh"

namespace maxk
{

/**
 * dw = x^T * scatter(ds) over the rows of `rows` (ascending, as
 * gemmTransA): x is (N x in), ds is CBSR over the out dimension, dw is
 * resized to (in x out). Row-parallel over the input dimension (each
 * worker owns whole dw rows), bitwise-deterministic at any thread
 * count. Per adjacency row, the worker's nonzero x entries are
 * compacted into a list first (the write index advances by x != 0),
 * and only they scatter their k products: a ±0 x entry is skipped as
 * in gemmTransA, without a branch on it.
 */
void cbsrGemmTransA(const Matrix &x, const CbsrMatrix &ds, Matrix &dw,
                    RowSet rows = {});

/** out = column sums of the rows of `rows` of scatter(ds), resized to
 *  1 x dimOrigin. */
void cbsrColumnSums(const CbsrMatrix &ds, Matrix &out, RowSet rows = {});

/**
 * dx = scatter(ds) * w^T on the rows of `rows`: w is (in x out), dx is
 * shaped (N x in) and only its listed rows are written.
 * A row-wise product (the host analogue of the paper's row-wise
 * SpGEMM): w^T is written once into the caller-owned workspace `wt`
 * (out x in, reused when its element count matches); a gradient row's
 * k CBSR entries are its term list for the GEMMs' register-panel fold
 * (tensor/fold.hh), each value scaling one contiguous w^T row into
 * that row of dx. Every term folds, zeros included, as in gemmTransB.
 * Row-parallel over N, bitwise-deterministic at any thread count.
 */
void cbsrGemmTransB(const CbsrMatrix &ds, const Matrix &w, Matrix &wt,
                    Matrix &dx, RowSet rows = {});

/**
 * Simulated latency of the full CBSR-aware linear backward (dW + db +
 * dX) for an N x in -> out layer at sparsity k, mirroring the
 * gemmSimSeconds roofline the dense path is charged with. The flop and
 * traffic terms scale by k/out — the modeled saving of keeping the
 * gradient in CBSR form.
 */
double linearBackwardCbsrSimSeconds(std::uint64_t n, std::uint64_t in_dim,
                                    std::uint64_t out_dim, std::uint32_t k,
                                    const gpusim::DeviceConfig &cfg,
                                    double efficiency = 0.5);

} // namespace maxk

#endif // MAXK_CORE_LINEAR_BACKWARD_CBSR_HH
