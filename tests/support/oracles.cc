#include "support/oracles.hh"

#include <algorithm>
#include <functional>
#include <numeric>
#include <vector>

#include "common/logging.hh"
#include "kernels/spmm_ref.hh"

namespace maxk::test
{

std::multiset<Float>
topKOracle(const Float *row, std::uint32_t n, std::uint32_t k)
{
    std::vector<Float> v(row, row + n);
    std::sort(v.begin(), v.end(), std::greater<Float>());
    return std::multiset<Float>(v.begin(), v.begin() + k);
}

std::vector<std::uint32_t>
topKIndicesOracle(const Float *row, std::uint32_t n, std::uint32_t k)
{
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    // Stable sort by descending value keeps earlier columns ahead on
    // ties, matching pivotSelect's deterministic tie-break.
    std::stable_sort(order.begin(), order.end(),
                     [row](std::uint32_t a, std::uint32_t b) {
                         return row[a] > row[b];
                     });
    std::vector<std::uint32_t> top(order.begin(), order.begin() + k);
    std::sort(top.begin(), top.end());
    return top;
}

void
spgemmOracle(const CsrGraph &g, const CbsrMatrix &h, Matrix &y)
{
    Matrix dense;
    h.decompress(dense);
    spmmReference(g, dense, y);
}

void
sspmmOracle(const CsrGraph &g, const Matrix &dxl, Matrix &dense)
{
    spmmTransposedReference(g, dxl, dense);
}

void
referenceGemmAccum(const Matrix &a, const Matrix &b, Matrix &c, RowSet rows)
{
    checkInvariant(a.cols() == b.rows(), "gemm: inner dimension mismatch");
    checkInvariant(c.rows() == a.rows() && c.cols() == b.cols(),
                   "gemm: output shape mismatch");
    const std::size_t k = a.cols(), n = b.cols();
    for (std::size_t t = 0; t < rows.size(a.rows()); ++t) {
        const std::size_t i = rows[t];
        const Float *arow = a.row(i);
        Float *crow = c.row(i);
        for (std::size_t p = 0; p < k; ++p) {
            const Float av = arow[p];
            if (av == 0.0f)
                continue;
            const Float *brow = b.row(p);
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
referenceGemmTransA(const Matrix &a, const Matrix &b, Matrix &c,
                    RowSet rows)
{
    checkInvariant(a.rows() == b.rows(), "gemmTransA: row count mismatch");
    c.resize(a.cols(), b.cols());
    const std::size_t m = a.cols(), n = b.cols();
    for (std::size_t t = 0; t < rows.size(a.rows()); ++t) {
        const Float *arow = a.row(rows[t]);
        const Float *brow = b.row(rows[t]);
        for (std::size_t i = 0; i < m; ++i) {
            const Float av = arow[i];
            if (av == 0.0f)
                continue;
            Float *crow = c.row(i);
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
referenceGemmTransB(const Matrix &a, const Matrix &b, Matrix &c,
                    RowSet rows)
{
    checkInvariant(a.cols() == b.cols(), "gemmTransB: col count mismatch");
    c.ensureShape(a.rows(), b.rows());
    const std::size_t k = a.cols(), n = b.rows();
    for (std::size_t t = 0; t < rows.size(a.rows()); ++t) {
        const std::size_t i = rows[t];
        const Float *arow = a.row(i);
        Float *crow = c.row(i);
        std::fill_n(crow, n, 0.0f);
        for (std::size_t j = 0; j < n; ++j) {
            const Float *brow = b.row(j);
            Float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                acc += arow[p] * brow[p];
            crow[j] += acc;
        }
    }
}

void
referenceCbsrGemmTransB(const CbsrMatrix &ds, const Matrix &w, Matrix &dx,
                        RowSet rows)
{
    checkInvariant(ds.dimOrigin() == w.cols(),
                   "cbsrGemmTransB: col count mismatch");
    const std::size_t in_dim = w.rows();
    const std::uint32_t dim_k = ds.dimK();
    dx.ensureShape(ds.rows(), in_dim);
    for (std::size_t t = 0; t < rows.size(ds.rows()); ++t) {
        const NodeId row = static_cast<NodeId>(rows[t]);
        const Float *data = ds.dataRow(row);
        Float *drow = dx.row(row);
        std::fill_n(drow, in_dim, 0.0f);
        for (std::size_t i = 0; i < in_dim; ++i) {
            const Float *wrow = w.row(i);
            Float acc = 0.0f;
            for (std::uint32_t kk = 0; kk < dim_k; ++kk)
                acc += data[kk] * wrow[ds.indexAt(row, kk)];
            drow[i] += acc;
        }
    }
}

} // namespace maxk::test
