#include "kernels/spmm_ref.hh"

#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/transpose_gather.hh"

namespace maxk
{

void
spmmReference(const CsrGraph &a, const Matrix &x, Matrix &y)
{
    checkInvariant(x.rows() == a.numNodes(),
                   "spmmReference: X row count != |V|");
    const std::size_t dim = x.cols();
    y.ensureShape(a.numNodes(), dim);
    parallelFor(0, a.numNodes(), 16,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    std::vector<double> acc(dim);
                    for (std::size_t i = begin; i < end; ++i) {
                        std::fill(acc.begin(), acc.end(), 0.0);
                        for (EdgeId e = a.rowPtr()[i];
                             e < a.rowPtr()[i + 1]; ++e) {
                            const NodeId j = a.colIdx()[e];
                            const double v = a.values()[e];
                            const Float *xr = x.row(j);
                            for (std::size_t d = 0; d < dim; ++d)
                                acc[d] += v * xr[d];
                        }
                        Float *yr = y.row(i);
                        for (std::size_t d = 0; d < dim; ++d)
                            yr[d] = static_cast<Float>(acc[d]);
                    }
                });
}

void
spmmTransposedReference(const CsrGraph &a, const Matrix &x, Matrix &y)
{
    checkInvariant(x.rows() == a.numNodes(),
                   "spmmTransposedReference: X row count != |V|");
    const std::size_t dim = x.cols();
    y.resize(a.numNodes(), dim);
    y.setZero();
    const std::uint32_t threads = resolveThreads(0);
    if (threads <= 1) {
        for (NodeId i = 0; i < a.numNodes(); ++i) {
            const Float *xr = x.row(i);
            for (EdgeId e = a.rowPtr()[i]; e < a.rowPtr()[i + 1]; ++e) {
                const NodeId j = a.colIdx()[e];
                const Float v = a.values()[e];
                Float *yr = y.row(j);
                for (std::size_t d = 0; d < dim; ++d)
                    yr[d] += v * xr[d];
            }
        }
        return;
    }

    // Scatter-shaped: bitwise-deterministic gather over the stable
    // transpose (see core/transpose_gather.hh).
    gatherTransposedDense(a, x, y, threads);
}

} // namespace maxk
