/**
 * @file
 * Fully-connected layer Y = X W + b — the linear-transformation stage of
 * every GNN layer (Fig. 3 stage 1). The paper runs these through cuBLAS;
 * the reproduction computes them on the host and charges simulated time
 * through the GEMM roofline model at the trainer level.
 */

#ifndef MAXK_NN_LINEAR_HH
#define MAXK_NN_LINEAR_HH

#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "core/cbsr.hh"
#include "nn/param.hh"
#include "tensor/matrix.hh"
#include "tensor/row_set.hh"

namespace maxk::nn
{

/** Dense linear layer with bias. */
class Linear
{
  public:
    Linear() = default;

    /**
     * @param in   input feature width
     * @param out  output feature width
     * @param rng  initialiser stream (Xavier uniform, zero bias)
     * @param name parameter name prefix
     */
    Linear(std::size_t in, std::size_t out, Rng &rng,
           const std::string &name);

    /** y = x * W + b on the rows of `rows` (every row by default;
     *  tensor/row_set.hh). */
    void forward(const Matrix &x, Matrix &y, RowSet rows = {}) const;

    /**
     * Backward on the rows of `rows` (every row by default): accumulate
     * dW += x^T * dy and db += colsum(dy) over those rows, ascending,
     * and write dx = dy * W^T on those rows only. Leaving out rows whose
     * dy is all ±0 leaves dW and db bitwise unchanged when x is finite
     * there (tensor/ops.hh gemmTransA).
     *
     * @param x  the input the forward pass saw
     * @param dy upstream gradient
     * @param dx output gradient w.r.t. x (shaped like x)
     */
    void backward(const Matrix &x, const Matrix &dy, Matrix &dx,
                  RowSet rows = {});

    /** Backward without dx: only dW and db, bitwise those of the
     *  overload above. */
    void backward(const Matrix &x, const Matrix &dy, RowSet rows = {});

    /**
     * CBSR-aware backward: the upstream gradient stays in the CBSR form
     * the backward SSpMM produced (k values per row at the forward
     * pattern). Computes the same dW/db/dX as the dense overload on
     * decompress(dy) — bitwise — without materialising the dense
     * gradient (core/linear_backward_cbsr.hh).
     */
    void backward(const Matrix &x, const CbsrMatrix &dy, Matrix &dx,
                  RowSet rows = {});

    /** CBSR-aware backward without dx: only dW and db. */
    void backward(const Matrix &x, const CbsrMatrix &dy, RowSet rows = {});

    /** Parameters (weight then bias). */
    void collectParams(ParamRefs &out);

    std::size_t inDim() const { return weight_.value.rows(); }
    std::size_t outDim() const { return weight_.value.cols(); }

    Param &weight() { return weight_; }
    Param &bias() { return bias_; }

  private:
    Param weight_;  //!< (in x out)
    Param bias_;    //!< (1 x out)

    // Persistent backward workspaces (gradients are accumulated into
    // the Param buffers via these, so repeated epochs allocate nothing).
    Matrix dwScratch_;   //!< dW of the current call, then W^T for dX
    Matrix colScratch_;  //!< db of the current call
};

} // namespace maxk::nn

#endif // MAXK_NN_LINEAR_HH
