#include "core/transpose_gather.hh"

#include "common/logging.hh"
#include "common/parallel.hh"

namespace maxk
{

namespace
{
/** Rows per chunk; matches the other row-parallel hot loops. */
constexpr std::size_t kRowGrain = 16;
} // namespace

void
gatherTransposedDense(const CsrGraph &a, const Matrix &x, Matrix &out,
                      std::uint32_t threads, RowSet sources, RowSet dests)
{
    checkInvariant(out.rows() == a.numNodes() && out.cols() == x.cols(),
                   "gatherTransposedDense: output shape mismatch");
    const std::size_t dim = x.cols();
    const CsrGraph &at = a.transposeCached();
    parallelFor(
        0, dests.size(at.numNodes()), kRowGrain,
        [&](std::uint32_t, std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
                const NodeId j = static_cast<NodeId>(dests[r]);
                Float *o = out.row(j);
                for (EdgeId e = at.rowPtr()[j]; e < at.rowPtr()[j + 1];
                     ++e) {
                    if (!sources.contains(at.colIdx()[e]))
                        continue;
                    const Float v = at.values()[e];
                    const Float *xr = x.row(at.colIdx()[e]);
                    for (std::size_t d = 0; d < dim; ++d)
                        o[d] += v * xr[d];
                }
            }
        },
        threads);
}

void
gatherTransposedCbsr(const CsrGraph &a, const Matrix &dxl,
                     CbsrMatrix &dxs, std::uint32_t threads,
                     RowSet sources, RowSet dests)
{
    checkInvariant(dxs.rows() == a.numNodes(),
                   "gatherTransposedCbsr: row count mismatch");
    const std::uint32_t dim_k = dxs.dimK();
    const CsrGraph &at = a.transposeCached();
    parallelFor(
        0, dests.size(at.numNodes()), kRowGrain,
        [&](std::uint32_t, std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
                const NodeId j = static_cast<NodeId>(dests[r]);
                Float *out = dxs.dataRow(j);
                for (EdgeId e = at.rowPtr()[j]; e < at.rowPtr()[j + 1];
                     ++e) {
                    if (!sources.contains(at.colIdx()[e]))
                        continue;
                    const Float v = at.values()[e];
                    const Float *g = dxl.row(at.colIdx()[e]);
                    for (std::uint32_t kk = 0; kk < dim_k; ++kk)
                        out[kk] += v * g[dxs.indexAt(j, kk)];
                }
            }
        },
        threads);
}

} // namespace maxk
