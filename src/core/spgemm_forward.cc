#include "core/spgemm_forward.hh"

#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/maxk.hh"
#include "gpusim/context.hh"

namespace maxk
{

namespace
{

/** Rows per chunk for the row-parallel select sweep (matches maxk.cc). */
constexpr std::size_t kRowGrain = 16;

/**
 * The row-wise-product aggregation sweep shared by the unfused and
 * fused kernels. When `data_onchip` is set (fused launch), the per-edge
 * sp_data fetch is charged to shared memory — the select stage of the
 * same launch produced it on-chip — instead of a global read; the
 * arithmetic is identical either way.
 */
void
runAggregation(gpusim::KernelContext &ctx, const CsrGraph &a,
               const EdgeGroupPartition &part, const CbsrMatrix &xs,
               Matrix &y, const SimOptions &opt, bool data_onchip)
{
    const std::uint32_t dim_k = xs.dimK();
    const std::uint32_t dim_origin = xs.dimOrigin();

    // Warp packing: Case 1 packs several EGs per warp when dim_k <= 16.
    const std::uint32_t egs_per_warp = EdgeGroupPartition::egsPerWarp(dim_k);

    // EG-parallel with row-aligned chunk boundaries: all EGs of one
    // adjacency row stay in one chunk, so every output row has exactly
    // one writer accumulating in serial EG order (bitwise-identical
    // result), and the first-EG-of-row write-back discount stays local.
    const auto chunks = rowAlignedChunks(part.groups(), 32,
                                         resolveThreads(opt.threads));
    gpusim::runSharded(ctx, chunks, [&](auto &dev, std::uint32_t,
                                        IndexRange egs) {
        std::vector<Float> buf(dim_origin);
        std::vector<const void *> scatter_addrs(dim_k);
        for (std::size_t gi = egs.begin; gi < egs.end; ++gi) {
            const EdgeGroup &eg = part.groups()[gi];
            const std::uint64_t warp = gi / egs_per_warp;

            dev.usePhase("compute+accumulate");
            // Edge values and destination columns for this EG (coalesced).
            dev.globalReadStreaming(warp, &a.values()[eg.begin],
                                    (eg.end - eg.begin) * sizeof(Float));
            dev.globalReadStreaming(warp, &a.colIdx()[eg.begin],
                                    (eg.end - eg.begin) * sizeof(NodeId));

            std::fill(buf.begin(), buf.end(), 0.0f);
            Float *yr = y.row(eg.row);
            for (EdgeId e = eg.begin; e < eg.end; ++e) {
                const NodeId j = a.colIdx()[e];
                const Float v = a.values()[e];
                // CBSR fetch: both segments are contiguous, coalesced
                // reads — (4 + indexBytes) * dim_k bytes per nonzero
                // (Sec. 4.3). In the fused launch the 4-byte data
                // segment never left the chip: the fetch is one
                // warp-wide ld.shared per 32 lanes (contiguous row
                // segment), not the scalar scatter path sharedOps is
                // calibrated for.
                if (data_onchip)
                    dev.sharedOps((dim_k + 31) / 32, xs.dataRowBytes());
                else
                    dev.globalRead(warp, xs.dataRow(j),
                                   xs.dataRowBytes());
                dev.globalRead(warp, xs.indexRowAddr(j),
                               xs.indexRowBytes());
                dev.flops(2ull * dim_k);
                const Float *data = xs.dataRow(j);
                if (opt.spgemmSharedBuffer) {
                    // Sparse accumulation into the shared-memory buffer,
                    // mapped through sp_index (Algorithm 1 line 8).
                    dev.sharedOps(dim_k, dim_k * sizeof(Float));
                    for (std::uint32_t kk = 0; kk < dim_k; ++kk)
                        buf[xs.indexAt(j, kk)] += v * data[kk];
                } else {
                    // Ablation: scatter each product straight into global
                    // memory — one uncoalesced atomic per element.
                    for (std::uint32_t kk = 0; kk < dim_k; ++kk) {
                        const std::uint32_t col = xs.indexAt(j, kk);
                        scatter_addrs[kk] = yr + col;
                        yr[col] += v * data[kk];
                    }
                    dev.globalAtomicScattered(warp, scatter_addrs.data(),
                                              dim_k, sizeof(Float));
                }
            }

            if (opt.spgemmSharedBuffer) {
                // Stage 2 (after barrier): atomic, coalesced merge of the
                // buffer into the output row (Algorithm 1 lines 13-16).
                // The first EG of a row costs a vectorised store; every
                // further EG serializes against it (same-address RMW
                // contention), which is the k-independent low-k floor of
                // Sec. 5.2.
                dev.usePhase("writeback");
                for (std::uint32_t d = 0; d < dim_origin; ++d)
                    yr[d] += buf[d];
                const bool first_eg_of_row =
                    eg.begin == a.rowPtr()[eg.row];
                dev.sharedOps(first_eg_of_row ? dim_origin / 4
                                              : 2ull * dim_origin,
                              dim_origin * sizeof(Float));
                dev.globalAtomicAccum(warp, yr,
                                      dim_origin * sizeof(Float));
            }
        }
    });
}

} // namespace

gpusim::KernelStats
spgemmForward(const CsrGraph &a, const EdgeGroupPartition &part,
              const CbsrMatrix &xs, Matrix &y, const SimOptions &opt)
{
    checkInvariant(xs.rows() == a.numNodes(),
                   "spgemmForward: CBSR row count != |V|");
    checkInvariant(part.covers(a),
                   "spgemmForward: partition does not cover A");

    // ensureShape: a shape-matching relaunch must not reallocate or
    // double-fill (the setZero below is the only write before accumulate).
    y.ensureShape(a.numNodes(), xs.dimOrigin());
    y.setZero();

    gpusim::KernelContext ctx(opt.device, "spgemm_forward",
                              opt.simulateCaches);
    runAggregation(ctx, a, part, xs, y, opt, /*data_onchip=*/false);
    return ctx.finish(opt.efficiency);
}

gpusim::KernelStats
spgemmForwardFused(const CsrGraph &a, const EdgeGroupPartition &part,
                   const Matrix &x, std::uint32_t k, CbsrMatrix &xs,
                   Matrix &y, const SimOptions &opt)
{
    checkInvariant(x.rows() == a.numNodes(),
                   "spgemmForwardFused: X row count != |V|");
    checkInvariant(part.covers(a),
                   "spgemmForwardFused: partition does not cover A");
    checkInvariant(k >= 1 && k <= x.cols(),
                   "spgemmForwardFused: need 1 <= k <= dimOrigin");

    const NodeId n = static_cast<NodeId>(x.rows());
    const std::uint32_t dim = static_cast<std::uint32_t>(x.cols());
    xs.ensureShape(n, k, dim);
    y.ensureShape(a.numNodes(), dim);
    y.setZero();

    gpusim::KernelContext ctx(opt.device, "spgemm_forward_fused",
                              opt.simulateCaches);

    // Stage 1 — the maxk_select program (maxk.cc), run as the first
    // phase of this launch: buffer the row on-chip, bisect the pivot,
    // emit the survivors. sp_index goes to global (the backward pass
    // owns that pattern); sp_data stays in shared memory for stage 2.
    const auto row_chunks =
        splitRange(0, n, kRowGrain, resolveThreads(opt.threads));
    gpusim::runSharded(ctx, row_chunks, [&](auto &dev, std::uint32_t,
                                            IndexRange rows) {
        dev.usePhase("select+compress");
        for (std::size_t r = rows.begin; r < rows.end; ++r) {
            const std::uint64_t warp = r; // one warp per row, id == row
            const Float *row = x.row(r);
            dev.globalRead(warp, row, dim * sizeof(Float));
            dev.sharedOps(dim, dim * sizeof(Float));

            const std::uint32_t iters =
                maxkSelectRow(row, dim, k, xs, static_cast<NodeId>(r));
            dev.sharedOps(std::uint64_t(iters + 1) * dim / 20, 0);
            dev.flops(std::uint64_t(iters + 1) * dim);

            // sp_data is handed to the aggregation stage on-chip — the
            // global store (and its later reload) is the round-trip the
            // fusion removes. One warp-wide st.shared per 32 lanes.
            dev.sharedOps((k + 31) / 32, xs.dataRowBytes());
            dev.globalWrite(warp,
                            xs.indexRowAddr(static_cast<NodeId>(r)),
                            xs.indexRowBytes());
        }
    });

    // Stage 2 — identical arithmetic to spgemmForward, with the sp_data
    // fetches charged on-chip.
    runAggregation(ctx, a, part, xs, y, opt, /*data_onchip=*/true);
    return ctx.finish(opt.efficiency);
}

} // namespace maxk
