/**
 * @file
 * Dense linear-algebra kernels on Matrix.
 *
 * These back the Linear layers of the GNN models (the X*W stage of Fig. 3)
 * and all autograd math.
 *
 * The GEMMs are row-parallel on the shared pool (common/parallel.hh) and
 * share one register-panel fold (tensor/fold.hh): each C row gets a
 * list of terms, a scalar and a contiguous B row each, and the fold
 * adds them into 32 columns at a time held in SSE registers (GCC
 * vector extension; no -march, no FMA). A kernel that skips zero A
 * terms compacts them out of the list, advancing the write index by
 * a != 0, instead of branching on each one. Bitwise means: each output
 * element still takes exactly the products of the textbook loop, one
 * multiply and one add each, in ascending inner-index order, starting
 * from the value C held on entry, skipping exactly the terms the loop
 * skipped. No product is fused, reassociated or split across workers,
 * and row, term and column blocking never reorders an element's fold,
 * so results equal the serial loops (tests/support/oracles.hh) bit for
 * bit at any MAXK_THREADS. Output and workspace arguments must not
 * alias an input.
 *
 * The row-wise kernels take an optional RowSet (tensor/row_set.hh): by
 * default every row, otherwise only the listed rows of the output are
 * written and only the same rows of the row-aligned inputs are read.
 */

#ifndef MAXK_TENSOR_OPS_HH
#define MAXK_TENSOR_OPS_HH

#include "tensor/matrix.hh"
#include "tensor/row_set.hh"

namespace maxk
{

/**
 * C = A * B. A: m x k, B: k x n, C shaped m x n; the rows of `rows` are
 * zero-filled, then gemmAccum.
 */
void gemm(const Matrix &a, const Matrix &b, Matrix &c, RowSet rows = {});

/**
 * C += A * B (C must already be m x n) on the rows of `rows`. C(i, j)
 * folds a(i, p) * b(p, j) for p ascending onto its entry value. A term
 * whose a(i, p) is ±0 is skipped, so it can neither turn -0 into +0 nor
 * fold 0 * inf = NaN; a non-finite B value meets only the nonzero A
 * entries.
 */
void gemmAccum(const Matrix &a, const Matrix &b, Matrix &c,
               RowSet rows = {});

/**
 * C = A^T * B over the rows of `rows`. A: k x m, B: k x n, C resized to
 * m x n. C(i, j) folds a(p, i) * b(p, j) for the listed p ascending
 * from +0; a ±0 a(p, i) is skipped as in gemmAccum. Parallel over C
 * rows: every worker reads its columns of A down all listed rows (no
 * transpose) into its rows' term lists. Leaving out a
 * row whose B row is all ±0 leaves C bitwise unchanged as long as that
 * row of A is finite: its terms are skipped or add ±0 to an
 * accumulator that started at +0, which never becomes -0.
 */
void gemmTransA(const Matrix &a, const Matrix &b, Matrix &c,
                RowSet rows = {});

/**
 * C = A * B^T on the rows of `rows`. A: m x k, B: n x k, C shaped
 * m x n, its listed rows zero-filled first. C(i, j) folds
 * a(i, p) * b(j, p) for p ascending from +0 with no zero skip, exactly
 * like a plain dot product: a zero a(i, p) opposite an inf in B makes
 * C(i, j) NaN. B^T is written into the caller-owned workspace `bt`
 * (resized to k x n; reused without reallocation when its element
 * count already matches), and the product runs as the fold over its
 * rows, with every term listed.
 */
void gemmTransB(const Matrix &a, const Matrix &b, Matrix &bt, Matrix &c,
                RowSet rows = {});

/** out = transpose(in). */
void transpose(const Matrix &in, Matrix &out);

/** dst += src (same shape). */
void addInPlace(Matrix &dst, const Matrix &src, RowSet rows = {});

/** dst += alpha * src (same shape). */
void axpy(Matrix &dst, Float alpha, const Matrix &src, RowSet rows = {});

/** dst *= alpha. */
void scaleInPlace(Matrix &dst, Float alpha);

/** out = a - b (same shape). */
void subtract(const Matrix &a, const Matrix &b, Matrix &out);

/** Add a row vector (1 x n or length-n matrix) to every row of dst. */
void addRowVector(Matrix &dst, const Matrix &bias, RowSet rows = {});

/** Column-wise sum of the rows of `rows` of in, in ascending order ->
 *  out (1 x n). Used for bias gradients. */
void columnSums(const Matrix &in, Matrix &out, RowSet rows = {});

/** Element-wise product: dst = a ⊙ b. */
void hadamard(const Matrix &a, const Matrix &b, Matrix &out);

/** Element-wise ReLU forward: out = max(in, 0). */
void reluForward(const Matrix &in, Matrix &out, RowSet rows = {});

/** out = in (out shaped like in). */
void copyRows(const Matrix &in, Matrix &out, RowSet rows = {});

/**
 * Element-wise ReLU backward on the rows of `rows`: gradIn = gradOut
 * where forward input was positive, else 0.
 */
void reluBackward(const Matrix &input, const Matrix &gradOut,
                  Matrix &gradIn, RowSet rows = {});

/** Row-wise softmax (numerically stabilised). */
void rowSoftmax(const Matrix &in, Matrix &out);

/** Element-wise sigmoid. */
void sigmoid(const Matrix &in, Matrix &out);

} // namespace maxk

#endif // MAXK_TENSOR_OPS_HH
