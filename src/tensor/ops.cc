#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace maxk
{

namespace
{

/** Rows per parallelFor chunk, as in the other row kernels. */
constexpr std::size_t kRowGrain = 16;
/** Output-row chunk grain of gemmTransA: its rows are the input
 *  dimension, as in cbsrGemmTransA. */
constexpr std::size_t kColGrain = 8;
/** C rows one micro-kernel call updates. */
constexpr std::size_t kBlock = 4;

/**
 * The row-update micro-kernel: c[r][j] += s[r] * b[j] for r < R and
 * j < n, one product per element, so a sequence of calls folds each
 * element's products in call order. The rows of c and b must not
 * overlap; ivdep tells GCC so, and it vectorises the column loop at
 * -O3 (the row loop is unrolled so -O2 keeps the scalars in registers).
 */
template <std::size_t R>
void
rowUpdate(Float *const *c, const Float *s, const Float *b, std::size_t n)
{
#pragma GCC ivdep
    for (std::size_t j = 0; j < n; ++j) {
        const Float bj = b[j];
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r)
            c[r][j] += s[r] * bj;
    }
}

/**
 * The C rows crow[0, rows) (rows <= kBlock) += s[r] * b. With SkipZero
 * a row whose scalar is ±0 takes no product at all: adding its ±0
 * products could still fold 0 * inf = NaN or turn a -0 element into
 * +0. The remaining rows share one pass over b.
 */
template <bool SkipZero>
void
blockUpdate(Float *const *crow, std::size_t rows, const Float *s,
            const Float *b, std::size_t n)
{
    Float *live_rows[kBlock];
    Float live_s[kBlock];
    std::size_t live = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        if (SkipZero && s[r] == 0.0f)
            continue;
        live_rows[live] = crow[r];
        live_s[live] = s[r];
        ++live;
    }
    switch (live) {
      case 4: rowUpdate<4>(live_rows, live_s, b, n); break;
      case 3: rowUpdate<3>(live_rows, live_s, b, n); break;
      case 2: rowUpdate<2>(live_rows, live_s, b, n); break;
      case 1: rowUpdate<1>(live_rows, live_s, b, n); break;
      default: break;
    }
}

/**
 * C += A * B over the C rows of `rows` in blocks of kBlock, row-parallel:
 * each C row folds a(i, p) * b.row(p) for p ascending. Which rows share
 * a block never changes a row's fold.
 */
template <bool SkipZero>
void
rowBlockedGemm(const Matrix &a, const Matrix &b, Matrix &c, RowSet rows)
{
    const std::size_t k = a.cols();
    parallelFor(0, rows.size(c.rows()), kRowGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    Float *crow[kBlock];
                    const Float *arow[kBlock];
                    Float s[kBlock];
                    for (std::size_t i = begin; i < end; i += kBlock) {
                        const std::size_t m = std::min(kBlock, end - i);
                        for (std::size_t r = 0; r < m; ++r) {
                            crow[r] = c.row(rows[i + r]);
                            arow[r] = a.row(rows[i + r]);
                        }
                        for (std::size_t p = 0; p < k; ++p) {
                            for (std::size_t r = 0; r < m; ++r)
                                s[r] = arow[r][p];
                            blockUpdate<SkipZero>(crow, m, s, b.row(p),
                                                  c.cols());
                        }
                    }
                });
}

/** Shape c as m x n (storage reused) and zero the rows of `rows`. */
void
shapeAndZeroRows(Matrix &c, std::size_t m, std::size_t n, RowSet rows)
{
    c.ensureShape(m, n);
    for (std::size_t i = 0; i < rows.size(m); ++i)
        std::fill_n(c.row(rows[i]), n, 0.0f);
}

} // namespace

void
gemm(const Matrix &a, const Matrix &b, Matrix &c, RowSet rows)
{
    shapeAndZeroRows(c, a.rows(), b.cols(), rows);
    gemmAccum(a, b, c, rows);
}

void
gemmAccum(const Matrix &a, const Matrix &b, Matrix &c, RowSet rows)
{
    checkInvariant(a.cols() == b.rows(), "gemm: inner dimension mismatch");
    checkInvariant(c.rows() == a.rows() && c.cols() == b.cols(),
                   "gemm: output shape mismatch");
    rowBlockedGemm<true>(a, b, c, rows);
}

void
gemmTransA(const Matrix &a, const Matrix &b, Matrix &c, RowSet rows)
{
    checkInvariant(a.rows() == b.rows(), "gemmTransA: row count mismatch");
    c.resize(a.cols(), b.cols());
    const std::size_t k = rows.size(a.rows());
    // Worker t owns C rows [begin, end) and sweeps every listed A/B row
    // in ascending order, so each element folds its products in p order.
    parallelFor(0, c.rows(), kColGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    Float *crow[kBlock];
                    for (std::size_t t = 0; t < k; ++t) {
                        const Float *arow = a.row(rows[t]);
                        const Float *brow = b.row(rows[t]);
                        for (std::size_t i = begin; i < end; i += kBlock) {
                            const std::size_t m = std::min(kBlock, end - i);
                            for (std::size_t r = 0; r < m; ++r)
                                crow[r] = c.row(i + r);
                            blockUpdate<true>(crow, m, arow + i, brow,
                                              c.cols());
                        }
                    }
                });
}

void
gemmTransB(const Matrix &a, const Matrix &b, Matrix &bt, Matrix &c,
           RowSet rows)
{
    checkInvariant(a.cols() == b.cols(), "gemmTransB: col count mismatch");
    transpose(b, bt);
    shapeAndZeroRows(c, a.rows(), b.rows(), rows);
    // No zero skip: C(i, j) is a plain dot product, so 0 * inf = NaN.
    rowBlockedGemm<false>(a, bt, c, rows);
}

void
transpose(const Matrix &in, Matrix &out)
{
    out.ensureShape(in.cols(), in.rows());
    for (std::size_t i = 0; i < in.rows(); ++i)
        for (std::size_t j = 0; j < in.cols(); ++j)
            out.at(j, i) = in.at(i, j);
}

void
addInPlace(Matrix &dst, const Matrix &src, RowSet rows)
{
    checkInvariant(dst.rows() == src.rows() && dst.cols() == src.cols(),
                   "addInPlace: shape mismatch");
    const std::size_t n = dst.cols();
    for (std::size_t i = 0; i < rows.size(dst.rows()); ++i) {
        Float *d = dst.row(rows[i]);
        const Float *s = src.row(rows[i]);
        for (std::size_t j = 0; j < n; ++j)
            d[j] += s[j];
    }
}

void
axpy(Matrix &dst, Float alpha, const Matrix &src, RowSet rows)
{
    checkInvariant(dst.rows() == src.rows() && dst.cols() == src.cols(),
                   "axpy: shape mismatch");
    const std::size_t n = dst.cols();
    for (std::size_t i = 0; i < rows.size(dst.rows()); ++i) {
        Float *d = dst.row(rows[i]);
        const Float *s = src.row(rows[i]);
        for (std::size_t j = 0; j < n; ++j)
            d[j] += alpha * s[j];
    }
}

void
scaleInPlace(Matrix &dst, Float alpha)
{
    Float *d = dst.data();
    for (std::size_t i = 0; i < dst.size(); ++i)
        d[i] *= alpha;
}

void
subtract(const Matrix &a, const Matrix &b, Matrix &out)
{
    checkInvariant(a.rows() == b.rows() && a.cols() == b.cols(),
                   "subtract: shape mismatch");
    out.resize(a.rows(), a.cols());
    const Float *pa = a.data();
    const Float *pb = b.data();
    Float *po = out.data();
    for (std::size_t i = 0; i < a.size(); ++i)
        po[i] = pa[i] - pb[i];
}

void
addRowVector(Matrix &dst, const Matrix &bias, RowSet rows)
{
    checkInvariant(bias.size() == dst.cols(),
                   "addRowVector: bias length mismatch");
    const Float *b = bias.data();
    for (std::size_t i = 0; i < rows.size(dst.rows()); ++i) {
        Float *row = dst.row(rows[i]);
        for (std::size_t j = 0; j < dst.cols(); ++j)
            row[j] += b[j];
    }
}

void
columnSums(const Matrix &in, Matrix &out, RowSet rows)
{
    out.resize(1, in.cols());
    Float *o = out.data();
    for (std::size_t i = 0; i < rows.size(in.rows()); ++i) {
        const Float *row = in.row(rows[i]);
        for (std::size_t j = 0; j < in.cols(); ++j)
            o[j] += row[j];
    }
}

void
hadamard(const Matrix &a, const Matrix &b, Matrix &out)
{
    checkInvariant(a.rows() == b.rows() && a.cols() == b.cols(),
                   "hadamard: shape mismatch");
    out.resize(a.rows(), a.cols());
    const Float *pa = a.data();
    const Float *pb = b.data();
    Float *po = out.data();
    for (std::size_t i = 0; i < a.size(); ++i)
        po[i] = pa[i] * pb[i];
}

void
reluForward(const Matrix &in, Matrix &out, RowSet rows)
{
    out.ensureShape(in.rows(), in.cols());
    const std::size_t n = in.cols();
    for (std::size_t i = 0; i < rows.size(in.rows()); ++i) {
        const Float *pi = in.row(rows[i]);
        Float *po = out.row(rows[i]);
        for (std::size_t j = 0; j < n; ++j)
            po[j] = pi[j] > 0.0f ? pi[j] : 0.0f;
    }
}

void
copyRows(const Matrix &in, Matrix &out, RowSet rows)
{
    out.ensureShape(in.rows(), in.cols());
    for (std::size_t i = 0; i < rows.size(in.rows()); ++i)
        std::copy_n(in.row(rows[i]), in.cols(), out.row(rows[i]));
}

void
reluBackward(const Matrix &input, const Matrix &gradOut, Matrix &gradIn,
             RowSet rows)
{
    checkInvariant(input.rows() == gradOut.rows() &&
                       input.cols() == gradOut.cols(),
                   "reluBackward: shape mismatch");
    gradIn.ensureShape(input.rows(), input.cols());
    const std::size_t n = input.cols();
    for (std::size_t i = 0; i < rows.size(input.rows()); ++i) {
        const Float *pi = input.row(rows[i]);
        const Float *pg = gradOut.row(rows[i]);
        Float *po = gradIn.row(rows[i]);
        for (std::size_t j = 0; j < n; ++j)
            po[j] = pi[j] > 0.0f ? pg[j] : 0.0f;
    }
}

void
rowSoftmax(const Matrix &in, Matrix &out)
{
    out.resize(in.rows(), in.cols());
    for (std::size_t i = 0; i < in.rows(); ++i) {
        const Float *row = in.row(i);
        Float *orow = out.row(i);
        Float mx = row[0];
        for (std::size_t j = 1; j < in.cols(); ++j)
            mx = std::max(mx, row[j]);
        double denom = 0.0;
        for (std::size_t j = 0; j < in.cols(); ++j) {
            orow[j] = std::exp(row[j] - mx);
            denom += orow[j];
        }
        const Float inv = static_cast<Float>(1.0 / denom);
        for (std::size_t j = 0; j < in.cols(); ++j)
            orow[j] *= inv;
    }
}

void
sigmoid(const Matrix &in, Matrix &out)
{
    out.resize(in.rows(), in.cols());
    const Float *pi = in.data();
    Float *po = out.data();
    for (std::size_t i = 0; i < in.size(); ++i)
        po[i] = 1.0f / (1.0f + std::exp(-pi[i]));
}

} // namespace maxk
