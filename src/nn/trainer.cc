#include "nn/trainer.hh"

#include <algorithm>

#include "common/trace.hh"
#include "core/linear_backward_cbsr.hh"
#include "core/maxk.hh"
#include "core/spgemm_forward.hh"
#include "core/sspmm_backward.hh"
#include "kernels/gemm_cost.hh"
#include "kernels/registry.hh"
#include "nn/loss.hh"
#include "nn/metrics.hh"
#include "nn/optimizer.hh"
#include "tensor/init.hh"

namespace maxk::nn
{

namespace
{

/** Simulated latency of one `variant` SpMM of width dim on graph a. */
double
baselineAggSeconds(const CsrGraph &a, std::size_t dim, const SimOptions &opt,
                   const kernels::KernelVariant &variant, Rng &rng)
{
    Matrix x(a.numNodes(), dim);
    fillNormal(x, rng, 0.0f, 1.0f);
    Matrix y;
    return variant.run(a, x, y, opt).totalSeconds;
}

} // namespace

EpochTiming
profileEpoch(const ModelConfig &cfg, const CsrGraph &a,
             const EdgeGroupPartition &part, const SimOptions &opt,
             const kernels::KernelVariant &baseline)
{
    checkInvariant(baseline.simulated && !baseline.transposed,
                   "profileEpoch: the baseline must be a simulated "
                   "forward SpMM");
    EpochTiming t;
    const NodeId n = a.numNodes();
    Rng rng(0xBADF00Dull + cfg.maxkK * 7919 + cfg.numLayers);

    std::uint64_t param_elems = 0;
    for (std::uint32_t l = 0; l < cfg.numLayers; ++l) {
        const std::size_t in_dim =
            l == 0 ? cfg.inDim : cfg.hiddenDim;
        const std::size_t out_dim =
            l + 1 == cfg.numLayers ? cfg.outDim : cfg.hiddenDim;
        const bool last = l + 1 == cfg.numLayers;
        const bool maxk_layer =
            cfg.nonlin == Nonlinearity::MaxK && !last;

        // Linear stages: forward GEMM, backward dW and dX GEMMs. SAGE
        // adds the self-path linear with identical shapes.
        const std::uint32_t linears =
            cfg.kind == GnnKind::Sage ? 2 : 1;
        // Optimizer-sweep footprint of this layer: weight + bias of
        // every linear, honouring the true layer shapes (the last layer
        // is hiddenDim x outDim, and SAGE carries a second linear).
        param_elems += static_cast<std::uint64_t>(linears) *
                       (static_cast<std::uint64_t>(in_dim) * out_dim +
                        out_dim);
        const std::uint32_t k = std::min<std::uint32_t>(
            cfg.maxkK, static_cast<std::uint32_t>(out_dim));
        const double fwd = gemmSimSeconds(n, in_dim, out_dim, opt.device);
        const double bwd_dw =
            gemmSimSeconds(in_dim, n, out_dim, opt.device);
        const double bwd_dx =
            gemmSimSeconds(n, out_dim, in_dim, opt.device);
        t.linear += linears * fwd;
        if (maxk_layer) {
            // The primary linear's upstream gradient stays in CBSR form
            // (GnnLayer::backward never densifies it), so its dW/dX pass
            // is the sparse kernel; SAGE's self path still sees the
            // dense d_out.
            t.linear += linearBackwardCbsrSimSeconds(n, in_dim, out_dim,
                                                     k, opt.device);
            t.linear += (linears - 1) * (bwd_dw + bwd_dx);
        } else {
            t.linear += linears * (bwd_dw + bwd_dx);
        }

        // Nonlinearity + aggregation.
        if (maxk_layer) {
            Matrix h(n, out_dim);
            fillNormal(h, rng, 0.0f, 1.0f);

            CbsrMatrix pattern;
            {
                // Scoped: the forward output is freed before the
                // backward operands are allocated.
                MaxKResult mk = maxkCompress(h, k, opt);
                t.nonlin += mk.stats.totalSeconds;
                Matrix y;
                t.aggFwd +=
                    spgemmForward(a, part, mk.cbsr, y, opt).totalSeconds;
                pattern = std::move(mk.cbsr);
            }
            // Backward of MaxK: the gradient keeps the forward pattern
            // and stays in CBSR form end-to-end, so the only extra pass
            // is over the N*k survivors (no dense decompress).
            t.nonlin += elementwiseSimSeconds(
                static_cast<std::uint64_t>(n) * k, opt.device);

            Matrix dxl(n, out_dim);
            fillNormal(dxl, rng, 0.0f, 1.0f);
            CbsrMatrix dxs;
            dxs.adoptPattern(pattern);
            t.aggBwd +=
                sspmmBackward(a, part, dxl, dxs, opt).totalSeconds;
        } else {
            if (!last) {
                // ReLU forward + backward masks.
                t.nonlin += 2.0 * elementwiseSimSeconds(
                                      static_cast<std::uint64_t>(n) *
                                          out_dim,
                                      opt.device);
            }
            t.aggFwd += baselineAggSeconds(a, out_dim, opt, baseline, rng);
            // Backward SpMM on A^T (same structure for the symmetric
            // twins; identical traffic).
            t.aggBwd += baselineAggSeconds(a, out_dim, opt, baseline, rng);
        }
    }

    // Loss + metric + optimizer sweeps: a few elementwise passes over
    // logits and parameters.
    t.other = 3.0 * elementwiseSimSeconds(
                        static_cast<std::uint64_t>(n) * cfg.outDim +
                            param_elems,
                        opt.device);
    // Framework dispatch overhead (the PyTorch/DGL op-launch cost that
    // Fig. 1 buckets under "Others"): ~12 host-dispatched ops per layer
    // per step at ~10 us each, independent of graph size.
    t.other += cfg.numLayers * 12 * 10e-6;

    // Publish the Fig. 1 buckets as live counters (integer ns) so the
    // breakdown is reproducible from a metrics snapshot
    // (bench_fig1_breakdown --metrics-json).
    if (telemetry::armed()) {
        const auto ns = [](double s) {
            return static_cast<std::uint64_t>(s * 1e9 + 0.5);
        };
        telemetry::counterAdd("profile.agg_fwd.sim_ns", ns(t.aggFwd));
        telemetry::counterAdd("profile.agg_bwd.sim_ns", ns(t.aggBwd));
        telemetry::counterAdd("profile.linear.sim_ns", ns(t.linear));
        telemetry::counterAdd("profile.nonlin.sim_ns", ns(t.nonlin));
        telemetry::counterAdd("profile.other.sim_ns", ns(t.other));
    }
    return t;
}

Trainer::Trainer(GnnModel &model, TrainingData &data,
                 const TrainingTask &task)
    : model_(model), data_(data), task_(task)
{
    data_.graph.setAggregatorWeights(aggregatorFor(model.config().kind));
    if (task_.multiLabel)
        multiTargets_ = multiLabelTargets(data_.labels, task_.numClasses);
}

TrainResult
Trainer::run(const TrainConfig &cfg)
{
    checkInvariant(model_.config().outDim == task_.numClasses,
                   "Trainer: model outDim != task classes");
    static const telemetry::Phase span("train.epoch");
    EpochLoop loop(cfg, {"Trainer", "trainer", "trainer.epoch", span});
    Adam adam(model_.params(), cfg.lr);
    Matrix grad, probs;  // loss workspaces, warm after one epoch

    EpochSteps steps;
    steps.trainEpoch = [&](std::uint32_t) {
        const Matrix *logits = nullptr;
        {
            MAXK_TRACE_SCOPE("train.forward");
            logits = &model_.forward(data_.graph, data_.features, true);
        }
        double loss = 0.0;
        {
            MAXK_TRACE_SCOPE("train.loss");
            // norm_count 0: the mean over the masked training nodes.
            loss = task_.multiLabel
                       ? sigmoidBceInto(*logits, multiTargets_,
                                        data_.trainMask, 0, grad)
                       : softmaxCrossEntropyInto(*logits, data_.labels,
                                                 data_.trainMask, 0, grad,
                                                 probs);
        }
        {
            MAXK_TRACE_SCOPE("train.backward");
            model_.backward(data_.graph, grad);
        }
        {
            MAXK_TRACE_SCOPE("train.optimizer");
            adam.step();
        }
        return loss;
    };
    steps.evaluate = [&](std::uint32_t) {
        MAXK_TRACE_SCOPE("train.eval");
        return evalMetrics(model_.forward(data_.graph, data_.features, false),
                           task_, data_, multiTargets_);
    };

    TrainResult result;
    loop.run(steps, model_, adam, result);
    return result;
}

} // namespace maxk::nn
