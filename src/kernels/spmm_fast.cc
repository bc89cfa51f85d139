#include "kernels/spmm_fast.hh"

#include <algorithm>

#include "common/parallel.hh"
#include "core/transpose_gather.hh"

namespace maxk
{

namespace
{
constexpr std::size_t kRowGrain = 16;
} // namespace

void
spmmRowWiseFast(const CsrGraph &a, const Matrix &x, Matrix &out,
                RowSet rows)
{
    const std::size_t dim = x.cols();
    out.ensureShape(a.numNodes(), dim);
    parallelFor(0, rows.size(a.numNodes()), kRowGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    for (std::size_t r = begin; r < end; ++r) {
                        const NodeId i = static_cast<NodeId>(rows[r]);
                        Float *o = out.row(i);
                        std::fill_n(o, dim, 0.0f);
                        for (EdgeId e = a.rowPtr()[i];
                             e < a.rowPtr()[i + 1]; ++e) {
                            const Float v = a.values()[e];
                            const Float *xr = x.row(a.colIdx()[e]);
                            for (std::size_t d = 0; d < dim; ++d)
                                o[d] += v * xr[d];
                        }
                    }
                });
}

void
spmmTransposedFast(const CsrGraph &a, const Matrix &x, Matrix &out)
{
    const std::size_t dim = x.cols();
    out.ensureShape(a.numNodes(), dim);
    out.setZero();
    if (resolveThreads(0) <= 1) {
        for (NodeId i = 0; i < a.numNodes(); ++i) {
            const Float *xr = x.row(i);
            for (EdgeId e = a.rowPtr()[i]; e < a.rowPtr()[i + 1]; ++e) {
                const Float v = a.values()[e];
                Float *o = out.row(a.colIdx()[e]);
                for (std::size_t d = 0; d < dim; ++d)
                    o[d] += v * xr[d];
            }
        }
        return;
    }

    // Scatter-shaped: bitwise-deterministic gather over the stable
    // transpose (see core/transpose_gather.hh).
    gatherTransposedDense(a, x, out);
}

} // namespace maxk
