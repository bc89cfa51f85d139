#include "core/linear_backward_cbsr.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "tensor/fold.hh"
#include "tensor/ops.hh"

namespace maxk
{

namespace
{
/** Rows per chunk for the row-parallel loops (matches gnn_layer.cc). */
constexpr std::size_t kRowGrain = 16;
/** Input-dim columns per chunk for the dw-parallel loop: dw rows are
 *  short (out_dim floats), so a finer grain keeps 8 workers busy even
 *  on 64-wide layers. */
constexpr std::size_t kColGrain = 8;
/** dw rows one compaction covers. */
constexpr std::size_t kColBlock = 64;
} // namespace

void
cbsrGemmTransA(const Matrix &x, const CbsrMatrix &ds, Matrix &dw,
               RowSet rows)
{
    checkInvariant(x.rows() == ds.rows(),
                   "cbsrGemmTransA: row count mismatch");
    const std::size_t in_dim = x.cols();
    const std::size_t n = rows.size(ds.rows());
    const std::uint32_t dim_k = ds.dimK();
    dw.ensureShape(in_dim, ds.dimOrigin());
    dw.setZero();
    // Parallel over the input dimension: worker t owns dw rows
    // [begin, end), so per (i, col) the contributions fold in ascending
    // adjacency-row order exactly like the serial sweep — and exactly
    // like gemmTransA over the decompressed gradient, whose extra terms
    // are ±0 products that leave an IEEE accumulator unchanged. Each
    // row's nonzero x entries are compacted first (the write index
    // advances by av != 0), so a zero costs no branch.
    parallelFor(0, in_dim, kColGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    std::uint32_t live[kColBlock];
                    for (std::size_t t = 0; t < n; ++t) {
                        const NodeId r = static_cast<NodeId>(rows[t]);
                        const Float *xr = x.row(r);
                        const Float *data = ds.dataRow(r);
                        for (std::size_t i0 = begin; i0 < end;
                             i0 += kColBlock) {
                            const std::size_t i1 =
                                std::min(end, i0 + kColBlock);
                            std::size_t count = 0;
                            for (std::size_t i = i0; i < i1; ++i) {
                                live[count] = static_cast<std::uint32_t>(i);
                                count += xr[i] != 0.0f;
                            }
                            for (std::size_t c = 0; c < count; ++c) {
                                const Float av = xr[live[c]];
                                Float *drow = dw.row(live[c]);
                                for (std::uint32_t kk = 0; kk < dim_k; ++kk)
                                    drow[ds.indexAt(r, kk)] += av * data[kk];
                            }
                        }
                    }
                });
}

void
cbsrColumnSums(const CbsrMatrix &ds, Matrix &out, RowSet rows)
{
    out.ensureShape(1, ds.dimOrigin());
    out.setZero();
    Float *o = out.data();
    const std::uint32_t dim_k = ds.dimK();
    for (std::size_t t = 0; t < rows.size(ds.rows()); ++t) {
        const NodeId r = static_cast<NodeId>(rows[t]);
        const Float *data = ds.dataRow(r);
        for (std::uint32_t kk = 0; kk < dim_k; ++kk)
            o[ds.indexAt(r, kk)] += data[kk];
    }
}

void
cbsrGemmTransB(const CbsrMatrix &ds, const Matrix &w, Matrix &wt,
               Matrix &dx, RowSet rows)
{
    checkInvariant(ds.dimOrigin() == w.cols(),
                   "cbsrGemmTransB: col count mismatch");
    const std::size_t in_dim = w.rows();
    const std::uint32_t dim_k = ds.dimK();
    transpose(w, wt);
    dx.ensureShape(ds.rows(), in_dim);
    // Row-wise product: a gradient row's CBSR entries are its term list
    // (each of the k values scales one contiguous W^T row), folded by
    // the GEMMs' register-panel fold. Per element the products fold in
    // kk order from +0, the same sum as the dot product of the row's
    // values with w.row(i)[sp_index], zeros included.
    parallelFor(0, rows.size(ds.rows()), kRowGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    FoldBlock blk;
                    for (std::size_t i = begin; i < end;
                         i += FoldBlock::kRows) {
                        blk.rows = std::min(FoldBlock::kRows, end - i);
                        for (std::size_t r = 0; r < blk.rows; ++r) {
                            blk.c[r] = dx.row(rows[i + r]);
                            std::fill_n(blk.c[r], in_dim, 0.0f);
                        }
                        for (std::uint32_t k0 = 0; k0 < dim_k;
                             k0 += FoldBlock::kTerms) {
                            const std::uint32_t k1 = std::min<std::uint32_t>(
                                dim_k, k0 + FoldBlock::kTerms);
                            for (std::size_t r = 0; r < blk.rows; ++r) {
                                const NodeId row =
                                    static_cast<NodeId>(rows[i + r]);
                                const Float *data = ds.dataRow(row);
                                for (std::uint32_t kk = k0; kk < k1; ++kk)
                                    blk.add<false>(
                                        r, data[kk],
                                        wt.row(ds.indexAt(row, kk)));
                            }
                            blk.fold(in_dim);
                        }
                    }
                });
}

double
linearBackwardCbsrSimSeconds(std::uint64_t n, std::uint64_t in_dim,
                             std::uint64_t out_dim, std::uint32_t k,
                             const gpusim::DeviceConfig &cfg,
                             double efficiency)
{
    // dW and dX each fold 2*N*k*in flops; db adds N*k. The gather through
    // sp_index keeps this on the CUDA cores (fp32 peak), unlike the dense
    // path's TF32 tensor-core GEMMs — the traffic term is where CBSR wins.
    const double flops = 4.0 * static_cast<double>(n) * k * in_dim +
                         static_cast<double>(n) * k;
    const double cbsr_bytes =
        static_cast<double>(n) * k *
        (sizeof(Float) + (out_dim <= 256 ? 1 : 2));
    const double bytes =
        4.0 * (static_cast<double>(n) * in_dim +          // X read (dW)
               static_cast<double>(in_dim) * out_dim +    // W read (dX)
               static_cast<double>(in_dim) * out_dim +    // dW write
               static_cast<double>(n) * in_dim) +         // dX write
        2.0 * cbsr_bytes;                                 // dY read twice
    const double t_compute = flops / cfg.flopsPerSec();
    const double t_memory = bytes / cfg.hbmBytesPerSec();
    return cfg.launchOverheadUs * 1e-6 +
           std::max(t_compute, t_memory) / efficiency;
}

} // namespace maxk
