#include "nn/linear.hh"

#include "common/logging.hh"
#include "core/linear_backward_cbsr.hh"
#include "tensor/init.hh"
#include "tensor/ops.hh"

namespace maxk::nn
{

Linear::Linear(std::size_t in, std::size_t out, Rng &rng,
               const std::string &name)
{
    weight_.name = name + ".weight";
    weight_.value.resize(in, out);
    xavierUniform(weight_.value, rng);
    weight_.resetGrad();

    bias_.name = name + ".bias";
    bias_.value.resize(1, out);
    bias_.resetGrad();
}

void
Linear::forward(const Matrix &x, Matrix &y, RowSet rows) const
{
    checkInvariant(x.cols() == weight_.value.rows(),
                   "Linear::forward: input width mismatch");
    gemm(x, weight_.value, y, rows);
    addRowVector(y, bias_.value, rows);
}

void
Linear::backward(const Matrix &x, const Matrix &dy, RowSet rows)
{
    checkInvariant(dy.cols() == weight_.value.cols(),
                   "Linear::backward: grad width mismatch");
    // dW += x^T dy (accumulated: a second backward call must add, not
    // overwrite, so multi-path layers like SAGE compose correctly).
    gemmTransA(x, dy, dwScratch_, rows);
    addInPlace(weight_.grad, dwScratch_);
    // db += column sums of dy
    columnSums(dy, colScratch_, rows);
    addInPlace(bias_.grad, colScratch_);
}

void
Linear::backward(const Matrix &x, const Matrix &dy, Matrix &dx, RowSet rows)
{
    backward(x, dy, rows);
    // dx = dy W^T; dwScratch_ is spent, so it holds W^T (same size).
    gemmTransB(dy, weight_.value, dwScratch_, dx, rows);
}

void
Linear::backward(const Matrix &x, const CbsrMatrix &dy, RowSet rows)
{
    checkInvariant(dy.dimOrigin() == weight_.value.cols(),
                   "Linear::backward: CBSR grad width mismatch");
    cbsrGemmTransA(x, dy, dwScratch_, rows);
    addInPlace(weight_.grad, dwScratch_);
    cbsrColumnSums(dy, colScratch_, rows);
    addInPlace(bias_.grad, colScratch_);
}

void
Linear::backward(const Matrix &x, const CbsrMatrix &dy, Matrix &dx,
                 RowSet rows)
{
    backward(x, dy, rows);
    cbsrGemmTransB(dy, weight_.value, dwScratch_, dx, rows);
}

void
Linear::collectParams(ParamRefs &out)
{
    out.push_back(&weight_);
    out.push_back(&bias_);
}

} // namespace maxk::nn
