#include "nn/gnn_layer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "core/maxk.hh"
#include "core/transpose_gather.hh"
#include "tensor/ops.hh"

namespace maxk::nn
{

namespace
{
/** Rows per chunk for the row-parallel aggregation loops. */
constexpr std::size_t kRowGrain = 16;
} // namespace

const char *
gnnKindName(GnnKind kind)
{
    switch (kind) {
      case GnnKind::Sage: return "SAGE";
      case GnnKind::Gcn:  return "GCN";
      case GnnKind::Gin:  return "GIN";
    }
    return "?";
}

const char *
nonlinearityName(Nonlinearity n)
{
    return n == Nonlinearity::Relu ? "ReLU" : "MaxK";
}

Aggregator
aggregatorFor(GnnKind kind)
{
    switch (kind) {
      case GnnKind::Sage: return Aggregator::SageMean;
      case GnnKind::Gcn:  return Aggregator::Gcn;
      case GnnKind::Gin:  return Aggregator::Gin;
    }
    return Aggregator::SageMean;
}

void
aggregateDense(const CsrGraph &a, const Matrix &x, Matrix &out,
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
aggregateDenseTransposed(const CsrGraph &a, const Matrix &x, Matrix &out,
                         RowSet sources, RowSet dests)
{
    const std::size_t dim = x.cols();
    out.ensureShape(a.numNodes(), dim);
    for (std::size_t r = 0; r < dests.size(a.numNodes()); ++r)
        std::fill_n(out.row(dests[r]), dim, 0.0f);
    if (resolveThreads(0) <= 1) {
        for (std::size_t s = 0; s < sources.size(a.numNodes()); ++s) {
            const NodeId i = static_cast<NodeId>(sources[s]);
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
    gatherTransposedDense(a, x, out, 0, sources, dests);
}

void
aggregateCbsr(const CsrGraph &a, const CbsrMatrix &xs, Matrix &out,
              RowSet rows)
{
    const std::uint32_t dim_k = xs.dimK();
    out.ensureShape(a.numNodes(), xs.dimOrigin());
    parallelFor(0, rows.size(a.numNodes()), kRowGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    for (std::size_t r = begin; r < end; ++r) {
                        const NodeId i = static_cast<NodeId>(rows[r]);
                        Float *o = out.row(i);
                        std::fill_n(o, out.cols(), 0.0f);
                        for (EdgeId e = a.rowPtr()[i];
                             e < a.rowPtr()[i + 1]; ++e) {
                            const NodeId j = a.colIdx()[e];
                            const Float v = a.values()[e];
                            const Float *data = xs.dataRow(j);
                            for (std::uint32_t kk = 0; kk < dim_k; ++kk)
                                o[xs.indexAt(j, kk)] += v * data[kk];
                        }
                    }
                });
}

void
aggregateCbsrBackward(const CsrGraph &a, const Matrix &dxl,
                      CbsrMatrix &dxs, RowSet sources, RowSet dests)
{
    const std::uint32_t dim_k = dxs.dimK();
    for (std::size_t r = 0; r < dests.size(a.numNodes()); ++r)
        std::fill_n(dxs.dataRow(static_cast<NodeId>(dests[r])), dim_k,
                    0.0f);
    if (resolveThreads(0) <= 1) {
        for (std::size_t s = 0; s < sources.size(a.numNodes()); ++s) {
            const NodeId i = static_cast<NodeId>(sources[s]);
            const Float *g = dxl.row(i);
            for (EdgeId e = a.rowPtr()[i]; e < a.rowPtr()[i + 1]; ++e) {
                const NodeId j = a.colIdx()[e];
                const Float v = a.values()[e];
                Float *out = dxs.dataRow(j);
                for (std::uint32_t kk = 0; kk < dim_k; ++kk)
                    out[kk] += v * g[dxs.indexAt(j, kk)];
            }
        }
        return;
    }

    // Scatter-shaped: bitwise-deterministic gather over the stable
    // transpose (see core/transpose_gather.hh).
    gatherTransposedCbsr(a, dxl, dxs, 0, sources, dests);
}

void
maxkCompressFast(const Matrix &x, std::uint32_t k, CbsrMatrix &out,
                 RowSet rows)
{
    const NodeId n = static_cast<NodeId>(x.rows());
    const std::uint32_t dim = static_cast<std::uint32_t>(x.cols());
    out.ensureShape(n, k, dim);
    parallelFor(0, rows.size(n), kRowGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    for (std::size_t r = begin; r < end; ++r) {
                        const NodeId row = static_cast<NodeId>(rows[r]);
                        maxkSelectRow(x.row(row), dim, k, out, row);
                    }
                });
}

GnnLayer::GnnLayer(const GnnLayerConfig &cfg, std::size_t in_dim,
                   std::size_t out_dim, Rng &rng, const std::string &name)
    : cfg_(cfg), name_(name),
      linear1_(in_dim, out_dim, rng, name + ".linear1"),
      dropout_(cfg.dropout)
{
    if (cfg_.kind == GnnKind::Sage)
        linear2_ = Linear(in_dim, out_dim, rng, name + ".linear2");
}

std::uint32_t
GnnLayer::effectiveK() const
{
    return std::min<std::uint32_t>(
        cfg_.maxkK, static_cast<std::uint32_t>(linear1_.outDim()));
}

void
GnnLayer::forward(const CsrGraph &a, const Matrix &x, Matrix &out,
                  bool training, Rng &rng)
{
    checkInvariant(x.rows() == a.numNodes(),
                   "GnnLayer::forward: feature row count != |V|");
    // The two phases run back-to-back here; the sharded executor
    // (dist::ShardedModel) inserts the boundary-row halo exchange
    // between them.
    forwardCompute(x, training, rng);
    forwardCombine(a, out);
}

void
GnnLayer::forwardCompute(const Matrix &x, bool training, Rng &rng,
                         RowSet compute)
{
    MAXK_TRACE_SCOPE("nn.fwd_compute", name_);
    dropout_.forward(x, xDropped_, training, rng, compute);
    linearAndNonlin(xDropped_, compute);
}

void
GnnLayer::forwardCombine(const CsrGraph &a, Matrix &out, RowSet target)
{
    forwardCombine(a, xDropped_, out, target);
}

void
GnnLayer::forwardCompute(const Matrix &x, RowSet compute)
{
    MAXK_TRACE_SCOPE("nn.fwd_compute", name_);
    linearAndNonlin(x, compute);
}

void
GnnLayer::linearAndNonlin(const Matrix &x, RowSet compute)
{
    linear1_.forward(x, y_, compute);

    usedCbsr_ = cfg_.nonlin == Nonlinearity::MaxK && !cfg_.lastLayer;
    if (usedCbsr_) {
        // MaxK -> CBSR (Fig. 2b path); aggregated in forwardCombine.
        maxkCompressFast(y_, effectiveK(), cbsr_, compute);
    } else if (cfg_.lastLayer) {
        copyRows(y_, hDense_, compute); // identity: logits stay dense
    } else {
        reluForward(y_, hDense_, compute);
    }
}

void
GnnLayer::forwardCombine(const CsrGraph &a, const Matrix &x, Matrix &out,
                         RowSet target)
{
    MAXK_TRACE_SCOPE("nn.fwd_combine", name_);
    if (usedCbsr_) {
        aggregateCbsr(a, cbsr_, out, target);
    } else {
        aggregateDense(a, hDense_, out, target);
    }

    if (cfg_.kind == GnnKind::Sage) {
        linear2_.forward(x, self_, target);
        addInPlace(out, self_, target);
    } else if (cfg_.kind == GnnKind::Gin) {
        // out += (1 + eps) * h
        const Float w = 1.0f + cfg_.ginEps;
        if (usedCbsr_) {
            // Row-aligned scatter: each output row has one writer, so
            // the parallel sweep is bitwise-identical to the serial one.
            parallelFor(0, target.size(cbsr_.rows()), kRowGrain,
                        [&](std::uint32_t, std::size_t begin,
                            std::size_t end) {
                            for (std::size_t r = begin; r < end; ++r) {
                                const NodeId row =
                                    static_cast<NodeId>(target[r]);
                                const Float *data = cbsr_.dataRow(row);
                                Float *o = out.row(row);
                                for (std::uint32_t kk = 0;
                                     kk < cbsr_.dimK(); ++kk)
                                    o[cbsr_.indexAt(row, kk)] +=
                                        w * data[kk];
                            }
                        });
        } else {
            axpy(out, w, hDense_, target);
        }
    }
}

void
GnnLayer::backward(const CsrGraph &a, const Matrix &d_out, Matrix &dx)
{
    checkInvariant(d_out.rows() == a.numNodes(),
                   "GnnLayer::backward: gradient row count != |V|");
    // Phase split mirrors forward(): the sharded executor inserts the
    // reverse halo exchange (partial gradients back to their owners)
    // between the two calls.
    backwardAgg(a, d_out);
    backwardPost(a, d_out, dx);
}

void
GnnLayer::backwardAgg(const CsrGraph &a, const Matrix &d_out,
                      RowSet compute, RowSet target)
{
    checkInvariant(d_out.rows() == a.numNodes(),
                   "GnnLayer::backwardAgg: gradient row count != |V|");
    MAXK_TRACE_SCOPE("nn.bwd_agg", name_);
    // Only the target rows of d_out can be nonzero, and the Linear
    // backward reads the compute rows.
    if (usedCbsr_) {
        // SSpMM: sampled A^T * d_out at the forward pattern.
        dcbsr_.adoptPattern(cbsr_);
        aggregateCbsrBackward(a, d_out, dcbsr_, target, compute);
    } else {
        aggregateDenseTransposed(a, d_out, dh_, target, compute);
    }
}

void
GnnLayer::preActivationGrad(const Matrix &d_out, RowSet compute,
                            RowSet target)
{
    const Float gin_w = 1.0f + cfg_.ginEps;
    if (usedCbsr_) {
        if (cfg_.kind == GnnKind::Gin) {
            // Direct (1+eps) h path, masked by the same pattern —
            // folded into the CBSR gradient by the same row-aligned
            // gather (one writer per row, bitwise-deterministic).
            parallelFor(0, target.size(dcbsr_.rows()), kRowGrain,
                        [&](std::uint32_t, std::size_t begin,
                            std::size_t end) {
                            for (std::size_t r = begin; r < end; ++r) {
                                const NodeId row =
                                    static_cast<NodeId>(target[r]);
                                Float *g = dcbsr_.dataRow(row);
                                const Float *go = d_out.row(row);
                                for (std::uint32_t kk = 0;
                                     kk < dcbsr_.dimK(); ++kk)
                                    g[kk] += gin_w *
                                             go[dcbsr_.indexAt(row, kk)];
                            }
                        });
        }
        return;
    }
    if (cfg_.kind == GnnKind::Gin)
        axpy(dh_, gin_w, d_out, target);
    if (!cfg_.lastLayer)
        reluBackward(y_, dh_, dy_, compute);
}

void
GnnLayer::backwardPost(const CsrGraph &a, const Matrix &d_out,
                       RowSet compute, RowSet target)
{
    (void)a;
    MAXK_TRACE_SCOPE("nn.bwd_post", name_);
    preActivationGrad(d_out, compute, target);
    if (usedCbsr_)
        linear1_.backward(xDropped_, dcbsr_, compute);
    else
        linear1_.backward(xDropped_, denseGradY(), compute);
    if (cfg_.kind == GnnKind::Sage)
        linear2_.backward(xDropped_, d_out, target);
}

void
GnnLayer::backwardPost(const CsrGraph &a, const Matrix &d_out, Matrix &dx,
                       RowSet compute, RowSet target)
{
    (void)a;
    MAXK_TRACE_SCOPE("nn.bwd_post", name_);
    preActivationGrad(d_out, compute, target);
    // MaxK's backward reuses the forward sparsity (Sec. 3.1), so the
    // gradient stays in CBSR form all the way into the linear backward —
    // no dense decompress round-trip.
    if (usedCbsr_)
        linear1_.backward(xDropped_, dcbsr_, dxDropped_, compute);
    else
        linear1_.backward(xDropped_, denseGradY(), dxDropped_, compute);

    if (cfg_.kind == GnnKind::Sage) {
        linear2_.backward(xDropped_, d_out, dxSelf_, target);
        addInPlace(dxDropped_, dxSelf_, target);
    }

    dropout_.backward(dxDropped_, dx, compute);
}

void
GnnLayer::collectParams(ParamRefs &out)
{
    linear1_.collectParams(out);
    if (cfg_.kind == GnnKind::Sage)
        linear2_.collectParams(out);
}

} // namespace maxk::nn
