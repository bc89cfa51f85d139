#include "tensor/ops.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "tensor/fold.hh"

namespace maxk
{

namespace
{

/** Rows per parallelFor chunk, as in the other row kernels. */
constexpr std::size_t kRowGrain = 16;
/** Output-row chunk grain of gemmTransA: its rows are the input
 *  dimension, as in cbsrGemmTransA. */
constexpr std::size_t kColGrain = 8;

/** Four floats of an SSE register (GCC vector extension): the default
 *  x86-64 build has SSE2, and the panel's arithmetic stays one
 *  multiply and one add per element. */
typedef Float Lanes __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;
/** Accumulator registers of a full panel: 32 columns. */
constexpr std::size_t kPanelVecs = 8;
constexpr std::size_t kPanelCols = kPanelVecs * kLanes;

inline Lanes
loadLanes(const Float *p)
{
    Lanes v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
storeLanes(Float *p, Lanes v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * Fold a term list into the columns [j, j + V * 4 + S) of one C row:
 * V vector and S scalar accumulators, each its own add chain, loaded
 * from C, updated once per term in list order, stored back.
 */
template <std::size_t V, std::size_t S>
void
foldPanel(Float *c, const Float *value, const Float *const *b,
          std::size_t count, std::size_t j)
{
    Lanes acc[V > 0 ? V : 1];
    Float tail[S > 0 ? S : 1];
    Float *cj = c + j;
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v)
        acc[v] = loadLanes(cj + v * kLanes);
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S; ++s)
        tail[s] = cj[V * kLanes + s];
    for (std::size_t t = 0; t < count; ++t) {
        const Float a = value[t];
        const Lanes av = {a, a, a, a};
        const Float *bj = b[t] + j;
#pragma GCC unroll 8
        for (std::size_t v = 0; v < V; ++v)
            acc[v] += av * loadLanes(bj + v * kLanes);
#pragma GCC unroll 4
        for (std::size_t s = 0; s < S; ++s)
            tail[s] += a * bj[V * kLanes + s];
    }
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v)
        storeLanes(cj + v * kLanes, acc[v]);
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S; ++s)
        cj[V * kLanes + s] = tail[s];
}

using PanelFn = void (*)(Float *, const Float *, const Float *const *,
                         std::size_t, std::size_t);

template <std::size_t... W>
constexpr std::array<PanelFn, sizeof...(W)>
lastPanels(std::index_sequence<W...>)
{
    return {&foldPanel<W / kLanes, W % kLanes>...};
}

/** The last panel of a row by its width w < kPanelCols + kLanes:
 *  w / 4 vectors and w % 4 scalars, so no tail is a single chain. */
constexpr auto kLastPanel =
    lastPanels(std::make_index_sequence<kPanelCols + kLanes>{});

/**
 * C += A * B (SkipZero: gemmAccum) or C += A * bt with every term
 * (gemmTransB) over the C rows of `rows`, row-parallel: each C row
 * folds a(i, p) * b.row(p) for p ascending. Which rows share a block
 * never changes a row's fold.
 */
template <bool SkipZero>
void
rowFoldGemm(const Matrix &a, const Matrix &b, Matrix &c, RowSet rows)
{
    const std::size_t k = a.cols();
    parallelFor(0, rows.size(c.rows()), kRowGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    FoldBlock blk;
                    for (std::size_t i = begin; i < end;
                         i += FoldBlock::kRows) {
                        blk.rows = std::min(FoldBlock::kRows, end - i);
                        for (std::size_t p0 = 0; p0 < k;
                             p0 += FoldBlock::kTerms) {
                            const std::size_t p1 =
                                std::min(k, p0 + FoldBlock::kTerms);
                            for (std::size_t r = 0; r < blk.rows; ++r) {
                                blk.c[r] = c.row(rows[i + r]);
                                const Float *arow = a.row(rows[i + r]);
                                for (std::size_t p = p0; p < p1; ++p)
                                    blk.add<SkipZero>(r, arow[p], b.row(p));
                            }
                            blk.fold(c.cols());
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
FoldBlock::fold(std::size_t n)
{
    // Panel outer, rows inner: each B panel is read from L1 by every
    // row of the block.
    std::size_t j = 0;
    for (; n - j >= kPanelCols + kLanes; j += kPanelCols)
        for (std::size_t r = 0; r < rows; ++r)
            foldPanel<kPanelVecs, 0>(c[r], value[r], b[r], count[r], j);
    const PanelFn last = kLastPanel[n - j];
    for (std::size_t r = 0; r < rows; ++r) {
        last(c[r], value[r], b[r], count[r], j);
        count[r] = 0;
    }
}

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
    rowFoldGemm<true>(a, b, c, rows);
}

void
gemmTransA(const Matrix &a, const Matrix &b, Matrix &c, RowSet rows)
{
    checkInvariant(a.rows() == b.rows(), "gemmTransA: row count mismatch");
    c.resize(a.cols(), b.cols());
    const std::size_t k = rows.size(a.rows());
    // Worker t owns C rows [begin, end). The listed rows are the terms:
    // each block of them is read down A's columns (no transpose) into
    // every C row's list, so each element folds its products in
    // ascending row order.
    parallelFor(0, c.rows(), kColGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    FoldBlock blk;
                    for (std::size_t t0 = 0; t0 < k;
                         t0 += FoldBlock::kTerms) {
                        const std::size_t t1 =
                            std::min(k, t0 + FoldBlock::kTerms);
                        for (std::size_t i = begin; i < end;
                             i += FoldBlock::kRows) {
                            blk.rows = std::min(FoldBlock::kRows, end - i);
                            for (std::size_t r = 0; r < blk.rows; ++r)
                                blk.c[r] = c.row(i + r);
                            for (std::size_t t = t0; t < t1; ++t) {
                                const Float *acol = a.row(rows[t]) + i;
                                const Float *brow = b.row(rows[t]);
                                for (std::size_t r = 0; r < blk.rows; ++r)
                                    blk.add<true>(r, acol[r], brow);
                            }
                            blk.fold(c.cols());
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
    rowFoldGemm<false>(a, bt, c, rows);
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
        // Load the gradient unconditionally: a select, not a branch.
        for (std::size_t j = 0; j < n; ++j) {
            const Float g = pg[j];
            po[j] = pi[j] > 0.0f ? g : 0.0f;
        }
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
