/**
 * @file
 * full-reddit-maxk: full-batch nn::Trainer on the Reddit twin (4,096
 * nodes, degree 100), SAGE 3x256 with MaxK k = 32 (k/dim = 1/8, the
 * paper's Fig. 9 point), two pool threads. It runs the paper's
 * headline path — MaxK select, CBSR SpGEMM forward, SSpMM backward —
 * at a degree where aggregation is a large share, and is the only
 * workload where host threading can show.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/maxk.hh"
#include "core/spgemm_forward.hh"
#include "graph/edge_groups.hh"
#include "kernels/registry.hh"
#include "nn/metrics.hh"
#include "nn/trainer.hh"
#include "tensor/alloc_probe.hh"
#include "tensor/init.hh"
#include "workloads.hh"

namespace hostbench
{

using namespace maxk;

namespace
{

struct FullState
{
    TrainingTask task;
    TrainingData data;
    nn::ModelConfig cfg;
    std::unique_ptr<nn::GnnModel> model;
    std::unique_ptr<nn::Trainer> trainer;
};

std::unique_ptr<FullState>
buildFull(const RunOptions &opt, Tracer *t, std::uint32_t unit)
{
    auto s = std::make_unique<FullState>();
    s->task = redditTask(opt.tiny);
    Rng rng(streamSeed(opt.seed, kGraph));
    s->data = timedCall(t, "graph.materialize", unit, [&] {
        return materializeTrainingData(s->task, rng);
    });
    s->cfg.kind = nn::GnnKind::Sage;
    s->cfg.nonlin = nn::Nonlinearity::MaxK;
    s->cfg.numLayers = 3;
    s->cfg.inDim = s->task.featureDim;
    s->cfg.hiddenDim = opt.tiny ? 32 : 256;
    s->cfg.maxkK = opt.tiny ? 4 : 32;
    s->cfg.outDim = s->task.numClasses;
    s->cfg.dropout = 0.5f;
    s->cfg.seed = streamSeed(opt.seed, kModel);
    s->model = timedCall(t, "nn.model", unit, [&] {
        return std::make_unique<nn::GnnModel>(s->cfg);
    });
    s->trainer =
        std::make_unique<nn::Trainer>(*s->model, s->data, s->task);
    return s;
}

/** Wall ms of host kernel probes and their simulated counterparts at
 *  the workload's graph and width, plus the Fig. 1 gpusim buckets. */
void
probeKernels(const RunOptions &opt, FullState &s, Tracer &tr,
             Report &rep)
{
    const CsrGraph &g = s.data.graph;
    const NodeId n = g.numNodes();
    const std::size_t dim = s.cfg.hiddenDim;
    const std::uint32_t k = s.cfg.maxkK;
    const std::uint32_t reps = opt.tiny ? 2 : 7;
    Rng rng(streamSeed(opt.seed, kProbe));
    Matrix x(n, dim), xk(n, k), y;
    fillNormal(x, rng, 0.0f, 1.0f);
    fillNormal(xk, rng, 0.0f, 1.0f);

    // The first MaxK layer's live CBSR activation (from the last
    // evaluation forward) and a gradient at its pattern.
    const CbsrMatrix &live = s.model->layers()[0].lastCbsr();
    CbsrMatrix grad_pattern, selected;
    grad_pattern.adoptPattern(live);

    const double spgemm = probeMs(tr, "core.spgemm_fwd", reps,
                                  [&] { nn::aggregateCbsr(g, live, y); });
    const double sspmm = probeMs(tr, "core.sspmm_bwd", reps, [&] {
        nn::aggregateCbsrBackward(g, x, grad_pattern);
    });
    const double select = probeMs(tr, "core.maxk_select", reps, [&] {
        nn::maxkCompressFast(x, k, selected);
    });
    const double dense = probeMs(tr, "kernels.spmm_fwd", reps,
                                 [&] { nn::aggregateDense(g, x, y); });
    const double dense_t = probeMs(tr, "kernels.spmm_bwd", reps, [&] {
        nn::aggregateDenseTransposed(g, x, y);
    });
    const double dense_k = probeMs(tr, "kernels.spmm_fwd_k", reps,
                                   [&] { nn::aggregateDense(g, xk, y); });
    rep.set("core.spgemm_fwd_ms", spgemm, "ms");
    rep.set("core.sspmm_bwd_ms", sspmm, "ms");
    rep.set("core.maxk_select_ms", select, "ms");
    rep.set("kernels.spmm_fwd_ms", dense, "ms");
    rep.set("kernels.spmm_bwd_ms", dense_t, "ms");
    rep.set("kernels.spmm_fwd_k_ms", dense_k, "ms");
    rep.set("kernels.dense_over_cbsr_fwd", dense / spgemm, "x");

    // The same comparison on the simulated A100, caches off so the
    // numbers are structural and repeat exactly.
    SimOptions so;
    so.simulateCaches = false;
    const EdgeGroupPartition part = EdgeGroupPartition::build(g, so.workloadCap);
    const auto sim_dense = [&](const Matrix &m) {
        Matrix out;
        return kernels::defaultSpmmVariant().run(g, m, out, so).totalSeconds;
    };
    const double sim_d = sim_dense(x);
    const double sim_dk = sim_dense(xk);
    MaxKResult mk = maxkCompress(x, k, so);
    Matrix out;
    const double sim_c = spgemmForward(g, part, mk.cbsr, out, so).totalSeconds;
    rep.set("gpusim.dense_over_cbsr_fwd", sim_d / sim_c, "x");

    const nn::EpochTiming et = nn::profileEpoch(s.cfg, g, part, so);
    setGpusimBuckets(rep, et);

    // Host vs simulated MaxK aggregation speedup at k/dim, split into
    // the width factor (dense at dim vs dense at k; ideal dim/k) and the
    // CBSR factor (dense at k vs CBSR at k; ideal 1: the index gather
    // costs nothing). The factor that falls furthest below its
    // simulated value is the phase that keeps the host from
    // reproducing the simulated speedup.
    const double host = dense / spgemm, sim = sim_d / sim_c;
    const double host_width = dense / dense_k, sim_width = sim_d / sim_dk;
    const double host_cbsr = dense_k / spgemm, sim_cbsr = sim_dk / sim_c;
    std::printf("maxk aggregation speedup at k/dim = %u/%zu: host %.2fx, "
                "gpusim %.2fx\n",
                k, dim, host, sim);
    std::printf("  width factor (dense %zu vs dense %u): host %.2fx, "
                "gpusim %.2fx\n",
                dim, k, host_width, sim_width);
    std::printf("  cbsr factor (dense %u vs cbsr %u): host %.2fx, "
                "gpusim %.2fx\n",
                k, k, host_cbsr, sim_cbsr);
    if (host >= sim) {
        std::printf("  host reproduces the simulated speedup\n");
    } else {
        const bool width = host_width / sim_width < host_cbsr / sim_cbsr;
        std::printf(
            "  host does not reproduce it; responsible phase: %s\n",
            width ? "per-edge traversal in the dense row loop "
                    "(kernels.spmm_fwd does not scale with width)"
                  : "CBSR index gather in aggregateCbsr "
                    "(core.spgemm_fwd is slower than dense at width k)");
    }
}

/**
 * Traced: the training step driven phase by phase from this file, one
 * span per GnnLayer phase call, over the epochs the untraced run then
 * times (the engine's resume restores the epoch-2 weights afterwards).
 */
void
tracedEpochs(const RunOptions &opt, FullState &s, Tracer &t, Report &rep)
{
    TracedStep step(*s.model, t);
    nn::Adam adam(s.model->params(), nn::TrainConfig{}.lr);
    const std::uint32_t epoch_span = t.intern("epoch");
    const std::uint32_t warm_span = t.intern("warmup");
    const std::uint32_t epochs = unitsFor(opt, 0.15, 2);
    std::uint64_t allocs = 0;
    for (std::uint32_t e = 0; e < kWarmupEpochs + epochs; ++e) {
        if (e == kWarmupEpochs)
            allocs = AllocProbe::totalAllocCount();
        Scope unit(&t, 0, e < kWarmupEpochs ? warm_span : epoch_span, e);
        const double loss =
            step.train(s.data.graph, s.data.features, s.data.labels,
                       s.data.trainMask, adam, e);
        rep.check(std::isfinite(loss), "traced step loss not finite");
        Scope ev(&t, 0, step.spans().eval, e);
        const Matrix &logits =
            s.model->forward(s.data.graph, s.data.features, false);
        nn::accuracy(logits, s.data.labels, s.data.valMask);
        nn::accuracy(logits, s.data.labels, s.data.testMask);
    }
    rep.set("tensor.steady_allocs",
            static_cast<double>(AllocProbe::totalAllocCount() - allocs),
            "count");
}

} // namespace

void
runFullRedditMaxk(const RunOptions &opt, Report &rep)
{
    std::unique_ptr<Tracer> tracer;
    if (opt.trace)
        tracer = std::make_unique<Tracer>(1);
    Tracer *tr = tracer.get();

    double setup_s = 0.0;
    auto s = setupRepeated<FullState>(
        setupRepeats(opt), tr,
        [&](std::uint32_t i) { return buildFull(opt, tr, i); }, setup_s);

    // Untraced: the engine's public run(), epoch 2 timed again and
    // again from the warm-up checkpoint. About 0.8 s per epoch on a
    // 4-core x86 VM.
    nn::TrainConfig tc;
    tc.seed = streamSeed(opt.seed, kTrainer);
    tc.evalEvery = 1;
    tc.checkpointDir = checkpointDir(opt, "full");
    tc.checkpointEvery = kNoIntermediateCheckpoints;
    tc.checkpointKeep = 1;
    nn::TrainResult last;
    const std::vector<double> epoch_ms = runRepeated(
        unitsFor(opt, opt.trace ? 0.2 : 0.8, 3), tc.checkpointDir, rep,
        [&](std::uint32_t epochs) {
            tc.epochs = epochs;
            last = s->trainer->run(tc);
        },
        [&] {
            if (tr)
                tracedEpochs(opt, *s, *tr, rep);
        });
    const double rss = peakRssMb();
    checkLosses(rep, last.trainLoss, true);
    const double unit_ms = fastest(epoch_ms);
    rep.set("setup_s", setup_s, "s");
    rep.set("unit_ms", unit_ms, "ms");
    rep.set("peak_rss_mb", rss, "MB");
    if (!tracer)
        return;

    const TraceSummary sum = summarize(*tr, "epoch", nnGroups(3));
    setTraceMetrics(rep, sum, sum.fastestUnitMs, unit_ms);
    const TraceSummary setup = summarize(
        *tr, "setup", {{"graph.materialize_ms", {"graph.materialize"}}});
    rep.set("graph.materialize_ms", setup.ms.at("graph.materialize_ms"),
            "ms");
    probeKernels(opt, *s, *tr, rep);
    writeTrace(*tr, opt, rep);
}

} // namespace hostbench
