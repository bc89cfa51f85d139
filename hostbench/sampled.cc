/**
 * @file
 * sampled-flickr-relu: pipelined mini-batch sample::SampledTrainer
 * (queue depth 2) on the Flickr twin (8,192 nodes, degree ~11), SAGE
 * 2x64 ReLU, fanouts {5, 5}, batch 64 (padded capacity 1,984 rows, ~78
 * batches per epoch), one pool thread plus the producer thread. It is
 * the only workload for the sampler, the extractor and the queue, runs
 * the dense SpMM on short sampled rows, and never calls the CBSR
 * kernels, so a core change must leave it unmoved.
 */

#include <cmath>
#include <memory>

#include "nn/metrics.hh"
#include "sample/extractor.hh"
#include "sample/sampled_trainer.hh"
#include "sample/sampler.hh"
#include "tensor/alloc_probe.hh"
#include "workloads.hh"

namespace hostbench
{

using namespace maxk;

namespace
{

struct SampledState
{
    TrainingTask task;
    TrainingData data;
    nn::ModelConfig cfg;
    sample::SamplerConfig scfg;
    std::unique_ptr<nn::GnnModel> model;
    std::unique_ptr<sample::SampledTrainer> trainer;
};

std::unique_ptr<SampledState>
buildSampled(const RunOptions &opt, Tracer *t, std::uint32_t unit)
{
    auto s = std::make_unique<SampledState>();
    s->task = flickrTask(opt.tiny);
    Rng rng(streamSeed(opt.seed, kGraph));
    s->data = timedCall(t, "graph.materialize", unit, [&] {
        return materializeTrainingData(s->task, rng);
    });
    s->cfg.kind = nn::GnnKind::Sage;
    s->cfg.nonlin = nn::Nonlinearity::Relu;
    s->cfg.numLayers = 2;
    s->cfg.inDim = s->task.featureDim;
    s->cfg.hiddenDim = opt.tiny ? 16 : 64;
    s->cfg.outDim = s->task.numClasses;
    s->cfg.dropout = 0.5f;
    s->cfg.seed = streamSeed(opt.seed, kModel);
    s->scfg.fanouts = {5, 5};
    s->scfg.batchSize = opt.tiny ? 16 : 64;
    s->scfg.seed = streamSeed(opt.seed, kSampler);
    s->model = timedCall(t, "nn.model", unit, [&] {
        return std::make_unique<nn::GnnModel>(s->cfg);
    });
    s->trainer = timedCall(t, "sample.trainer", unit, [&] {
        return std::make_unique<sample::SampledTrainer>(
            *s->model, s->data, s->task, s->scfg);
    });
    return s;
}

std::vector<NodeId>
trainIds(const TrainingData &data)
{
    std::vector<NodeId> ids;
    for (NodeId v = 0; v < data.graph.numNodes(); ++v)
        if (data.trainMask[v])
            ids.push_back(v);
    return ids;
}

/**
 * Output check: re-draw every batch of `epochs` epochs with a sampler
 * of the same config (draws are keyed by (epoch, batch), so they are
 * the trainer's batches) and require real rows <= capacity per batch,
 * and Σ real rows == the trainer's own count.
 */
void
checkBatches(SampledState &s, std::uint32_t epochs,
             std::uint64_t trainer_rows, Report &rep)
{
    sample::NeighborSampler sampler(s.data.graph, s.scfg);
    const std::vector<NodeId> ids = trainIds(s.data);
    const std::uint32_t nb = sampler.numBatches(ids.size());
    std::vector<NodeId> order, seeds;
    sample::SampleBatch sb;
    std::uint64_t rows = 0, over = 0;
    for (std::uint32_t e = 0; e < epochs; ++e) {
        sampler.epochOrder(e, ids, order);
        for (std::uint32_t b = 0; b < nb; ++b) {
            const std::size_t lo = std::size_t(b) * s.scfg.batchSize;
            const std::size_t hi =
                std::min(lo + s.scfg.batchSize, order.size());
            seeds.assign(order.begin() + lo, order.begin() + hi);
            sampler.sample(e, b, seeds, sb);
            rows += sb.numNodes();
            over += sb.numNodes() > sampler.nodeCapacity() ? 1 : 0;
        }
    }
    rep.check(over == 0, std::to_string(over) +
                             " batches exceed the padded capacity");
    rep.check(rows == trainer_rows,
              "re-drawn real rows " + std::to_string(rows) +
                  " != trainer's " + std::to_string(trainer_rows));
}

/**
 * Traced: a synchronous replay of the batches of epochs [first,
 * first + epochs), from the weights the untraced run then starts from,
 * with each stage — sample, extract, every GnnLayer phase, loss, Adam,
 * evaluation — one span called from this file.
 */
void
tracedReplay(const RunOptions &opt, SampledState &s, std::uint32_t first,
             Tracer &t, Report &rep)
{
    sample::NeighborSampler sampler(s.data.graph, s.scfg);
    sample::MinibatchExtractor extractor(
        sampler.nodeCapacity(), nn::aggregatorFor(s.cfg.kind),
        s.data.features, s.data.labels);
    nn::GnnModel eval_model(s.cfg);
    const nn::ParamRefs params = s.model->params();
    const nn::ParamRefs eval_params = eval_model.params();
    TracedStep step(*s.model, t);
    nn::Adam adam(params, sample::SampledTrainConfig{}.lr);
    const std::vector<NodeId> ids = trainIds(s.data);
    const std::uint32_t nb = sampler.numBatches(ids.size());
    const std::uint32_t epoch_span = t.intern("epoch");
    const std::uint32_t batch_span = t.intern("batch");
    const std::uint32_t sample_span = t.intern("sample.sample");
    const std::uint32_t extract_span = t.intern("sample.extract");
    std::vector<NodeId> order, seeds;
    sample::SampleBatch sb;
    sample::Minibatch mb;
    const std::uint32_t epochs = unitsFor(opt, 0.1, 2);
    std::uint64_t allocs = 0;
    for (std::uint32_t e = first; e < first + epochs; ++e) {
        // The first replayed epoch warms the replay's workspaces.
        if (e == first + 1)
            allocs = AllocProbe::totalAllocCount();
        Scope unit(&t, 0, epoch_span, e);
        sampler.epochOrder(e, ids, order);
        for (std::uint32_t b = 0; b < nb; ++b) {
            const std::uint32_t u = e * nb + b;
            Scope batch(&t, 0, batch_span, u);
            const std::size_t lo = std::size_t(b) * s.scfg.batchSize;
            const std::size_t hi =
                std::min(lo + s.scfg.batchSize, order.size());
            seeds.assign(order.begin() + lo, order.begin() + hi);
            {
                Scope sp(&t, 0, sample_span, u);
                sampler.sample(e, b, seeds, sb);
            }
            {
                Scope sp(&t, 0, extract_span, u);
                extractor.extract(sb, mb);
            }
            const double loss = step.train(mb.graph, mb.features, mb.labels,
                                           mb.trainMask, adam, u);
            rep.check(std::isfinite(loss), "traced batch loss not finite");
        }
        Scope ev(&t, 0, step.spans().eval, e);
        for (std::size_t p = 0; p < params.size(); ++p)
            eval_params[p]->value = params[p]->value;
        const Matrix &logits =
            eval_model.forward(s.data.graph, s.data.features, false);
        nn::accuracy(logits, s.data.labels, s.data.valMask);
        nn::accuracy(logits, s.data.labels, s.data.testMask);
    }
    rep.set("tensor.steady_allocs",
            static_cast<double>(AllocProbe::totalAllocCount() - allocs),
            "count");
}

} // namespace

void
runSampledFlickrRelu(const RunOptions &opt, Report &rep)
{
    std::unique_ptr<Tracer> tracer;
    if (opt.trace)
        tracer = std::make_unique<Tracer>(1);
    Tracer *tr = tracer.get();

    double setup_s = 0.0;
    auto s = setupRepeated<SampledState>(
        setupRepeats(opt), tr,
        [&](std::uint32_t i) { return buildSampled(opt, tr, i); },
        setup_s);

    // Epoch 2 timed again and again from the warm-up checkpoint. About
    // 1.8 s per epoch on a 4-core x86 VM.
    sample::SampledTrainConfig sc;
    sc.pipeline = true;
    sc.queueDepth = 2;
    sc.evalEvery = 1;
    sc.checkpointDir = checkpointDir(opt, "sampled");
    sc.checkpointEvery = kNoIntermediateCheckpoints;
    sc.checkpointKeep = 1;
    sample::SampledTrainResult last;
    std::uint32_t trained = 0;
    const std::vector<double> epoch_ms = runRepeated(
        unitsFor(opt, opt.trace ? 0.1 : 0.4, 2), sc.checkpointDir, rep,
        [&](std::uint32_t epochs) {
            sc.epochs = epochs;
            last = s->trainer->run(sc);
            trained = epochs;
        },
        [&] {
            if (tr)
                tracedReplay(opt, *s, kWarmupEpochs, *tr, rep);
        });
    const double rss = peakRssMb();
    checkLosses(rep, last.trainLoss, true);
    checkBatches(*s, trained, last.sampledNodes, rep);
    const double unit_ms = fastest(epoch_ms);
    rep.set("setup_s", setup_s, "s");
    rep.set("unit_ms", unit_ms, "ms");
    rep.set("peak_rss_mb", rss, "MB");
    if (!tracer)
        return;

    // Counts from the engine's result struct (the last call restored
    // the earlier counters from its checkpoint).
    const NodeId capacity = s->trainer->sampler().nodeCapacity();
    rep.set("sample.real_rows_ratio",
            static_cast<double>(last.sampledNodes) /
                (static_cast<double>(last.batchesTrained) * capacity),
            "ratio");

    auto groups = nnGroups(2);
    std::vector<std::string> step_spans;
    for (const auto &[metric, members] : groups)
        if (metric.rfind("nn.layer", 0) == 0 || metric == "nn.loss_ms" ||
            metric == "nn.adam_ms")
            step_spans.insert(step_spans.end(), members.begin(),
                              members.end());
    groups.push_back({"sample.sample_ms", {"sample.sample"}});
    groups.push_back({"sample.extract_ms", {"sample.extract"}});
    groups.push_back({"sample.step_ms", step_spans});
    const TraceSummary per_batch = summarize(*tr, "batch", groups);
    const TraceSummary per_epoch =
        summarize(*tr, "epoch", {{"nn.eval_ms", {"nn.eval"}}});
    setTraceMetrics(rep, per_batch, per_epoch.fastestUnitMs, unit_ms);
    rep.set("nn.eval_ms", per_epoch.ms.at("nn.eval_ms"), "ms");
    // Share of the input work (sample + extract) the pipeline hides:
    // synchronous epoch minus pipelined epoch, over the input time.
    const double nb = static_cast<double>(last.batchesTrained) / trained;
    const double input_ms = (per_batch.ms.at("sample.sample_ms") +
                             per_batch.ms.at("sample.extract_ms")) *
                            nb;
    rep.set("sample.overlap_ratio",
            input_ms > 0.0 ? (per_epoch.fastestUnitMs - unit_ms) / input_ms
                           : 0.0,
            "ratio");
    const TraceSummary setup = summarize(
        *tr, "setup", {{"graph.materialize_ms", {"graph.materialize"}}});
    rep.set("graph.materialize_ms", setup.ms.at("graph.materialize_ms"),
            "ms");
    writeTrace(*tr, opt, rep);
}

} // namespace hostbench
