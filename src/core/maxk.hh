/**
 * @file
 * The MaxK nonlinearity (contribution (a), Sec. 3.1) and its pivot-based
 * selection kernel (Sec. 5.3).
 *
 * Forward: keep the k largest values of each node's embedding row, zero
 * the rest, and emit the survivors directly in CBSR form. Backward: the
 * gradient reuses the forward sparsity pattern (only surviving positions
 * receive gradient).
 *
 * The selection kernel mirrors the artifact's implementation: buffer the
 * row in shared memory, compute min/max, then bisect a pivot
 * ((min+max)/2, re-counting elements greater than the pivot) until the
 * count equals k — typically < 10 iterations on normally-distributed
 * activations. Exact ties are resolved deterministically in ascending
 * column order.
 */

#ifndef MAXK_CORE_MAXK_HH
#define MAXK_CORE_MAXK_HH

#include <cstdint>
#include <vector>

#include "core/cbsr.hh"
#include "gpusim/kernel_stats.hh"
#include "kernels/sim_options.hh"
#include "tensor/matrix.hh"

namespace maxk
{

/** Output of the fused MaxK-select + CBSR-compress kernel. */
struct MaxKResult
{
    CbsrMatrix cbsr;                  //!< compressed survivors
    gpusim::KernelStats stats;        //!< simulated launch profile
    std::uint32_t maxPivotIterations = 0;  //!< worst row
    double avgPivotIterations = 0.0;       //!< mean over rows
};

/**
 * Apply MaxK to every row of x and compress to CBSR.
 *
 * @param x   dense activations (N x dimOrigin)
 * @param k   survivors per row (1 <= k <= dimOrigin)
 */
MaxKResult maxkCompress(const Matrix &x, std::uint32_t k,
                        const SimOptions &opt = {});

/**
 * In-place variant: compress into an existing result, reusing its CBSR
 * storage when the shape matches. Because the simulator treats host
 * pointers as device addresses, repeated launches into the same result
 * also produce identical simulated stats — useful for epoch loops and
 * the determinism tests.
 */
void maxkCompress(const Matrix &x, std::uint32_t k, const SimOptions &opt,
                  MaxKResult &result);

/**
 * Dense reference: out = MaxK(x) with zeros in non-surviving positions.
 * Used for validation and by the CPU training fallback path.
 */
void maxkDense(const Matrix &x, std::uint32_t k, Matrix &out);

/**
 * Backward masking reference: grad_in = grad_out on surviving positions
 * of the forward input, zero elsewhere. `forward_input` is the dense
 * pre-activation the forward pass saw.
 */
void maxkBackwardDense(const Matrix &forward_input, std::uint32_t k,
                       const Matrix &grad_out, Matrix &grad_in);

/**
 * Pivot-select the top-k threshold of row[0..n): returns the set of
 * surviving positions in `selected` (ascending order, exactly k entries)
 * and the number of bisection iterations used. Exposed for unit tests.
 */
std::uint32_t pivotSelect(const Float *row, std::uint32_t n,
                          std::uint32_t k,
                          std::vector<std::uint32_t> &selected);

/**
 * MaxK of one row straight into row r of a CBSR matrix shaped for k of
 * dim: pivotSelect's survivors of row[0..dim), ascending, their values
 * in the data row and their columns in the index row, with no scratch
 * list. Returns the bisection iterations used.
 */
std::uint32_t maxkSelectRow(const Float *row, std::uint32_t dim,
                            std::uint32_t k, CbsrMatrix &out, NodeId r);

} // namespace maxk

#endif // MAXK_CORE_MAXK_HH
