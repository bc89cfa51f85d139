#include "sample/sampled_trainer.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "common/trace.hh"
#include "nn/gnn_layer.hh"
#include "nn/loss.hh"
#include "nn/metrics.hh"
#include "sample/pipeline.hh"

namespace maxk::sample
{

SampledTrainer::SampledTrainer(nn::GnnModel &model, TrainingData &data,
                               const TrainingTask &task,
                               const SamplerConfig &scfg)
    : model_(model), data_(data), task_(task),
      sampler_(data.graph, scfg), evalModel_(model.config())
{
    if (scfg.fanouts.size() != model_.config().numLayers)
        fatal("SampledTrainer: fanout arity (" +
              std::to_string(scfg.fanouts.size()) +
              ") must equal the model layer count (" +
              std::to_string(model_.config().numLayers) + ")");

    for (NodeId v = 0; v < data_.graph.numNodes(); ++v)
        if (data_.trainMask[v])
            trainIds_.push_back(v);
    if (trainIds_.empty())
        fatal("SampledTrainer: training mask selects no nodes");

    // Full-graph weights for the evaluation forward (same convention as
    // nn::Trainer); minibatch CSRs get their own local weights from the
    // extractor.
    data_.graph.setAggregatorWeights(
        nn::aggregatorFor(model_.config().kind));
    if (task_.multiLabel)
        multiTargets_ =
            nn::multiLabelTargets(data_.labels, task_.numClasses);

    extractor_.emplace(sampler_.nodeCapacity(),
                       nn::aggregatorFor(model_.config().kind),
                       data_.features, data_.labels,
                       task_.multiLabel ? &multiTargets_ : nullptr);
}

void
SampledTrainer::syncEvalParams()
{
    const nn::ParamRefs src = model_.params();
    const nn::ParamRefs dst = evalModel_.params();
    checkInvariant(src.size() == dst.size(),
                   "SampledTrainer: eval replica parameter mismatch");
    // Same config => identical shapes; same-size Matrix copy-assign
    // reuses the destination storage (no allocation event).
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i]->value = src[i]->value;
}

double
SampledTrainer::trainStep(const Minibatch &mb, nn::Adam &adam)
{
    // Each layer computes only its frontier rows (extractor.hh); the
    // step is bitwise the all-rows step on the padded minibatch.
    const Matrix &logits =
        model_.forward(mb.graph, mb.features, true, mb.rows);
    // norm_count 0: normalise by the active masked count, i.e. the mean
    // over this batch's seeds (padding rows are never masked).
    const double mean_loss =
        task_.multiLabel
            ? nn::sigmoidBceInto(logits, mb.targets, mb.trainMask, 0,
                                 gradWs_)
            : nn::softmaxCrossEntropyInto(logits, mb.labels, mb.trainMask,
                                          0, gradWs_, probsWs_);
    model_.backward(mb.graph, gradWs_, mb.rows);
    adam.step();
    return mean_loss;
}

void
SampledTrainer::produce(std::uint32_t epoch, std::uint32_t b,
                        Minibatch &slot)
{
    // The epoch seed order is computed by whoever produces batch 0 of
    // that epoch — in pipelined mode that is the producer thread, which
    // is the only reader/writer of order_/seedsWs_/batchWs_.
    if (b == 0)
        sampler_.epochOrder(epoch, trainIds_, order_);
    const std::uint32_t batch_size = sampler_.config().batchSize;
    const std::size_t lo = b * static_cast<std::size_t>(batch_size);
    const std::size_t hi =
        std::min<std::size_t>(lo + batch_size, order_.size());
    seedsWs_.assign(order_.begin() + lo, order_.begin() + hi);
    {
        MAXK_TRACE_SCOPE("sample.draw");
        sampler_.sample(epoch, b, seedsWs_, batchWs_);
    }
    {
        MAXK_TRACE_SCOPE("sample.extract");
        extractor_->extract(batchWs_, slot);
    }
}

SampledTrainResult
SampledTrainer::run(const SampledTrainConfig &cfg)
{
    checkInvariant(model_.config().outDim == task_.numClasses,
                   "SampledTrainer: model outDim != task classes");
    static const telemetry::Phase span("sample.epoch");
    nn::EpochLoop loop(cfg, {"SampledTrainer", "sampled",
                             "sampled_trainer.epoch", span});
    nn::Adam adam(model_.params(), cfg.lr);
    SampledTrainResult result;
    const std::uint32_t depth = std::max<std::uint32_t>(cfg.queueDepth, 1);
    const std::uint32_t nb = sampler_.numBatches(trainIds_.size());

    // Slot workspaces persist across epochs; the pipeline recycles them,
    // so after warmup no stage allocates tracked storage.
    std::vector<Minibatch> slots(cfg.pipeline ? depth + 1 : 1);
    // Cross-epoch production: one produce function maps a GLOBAL batch
    // index to (epoch, batch), counted from the first epoch this run
    // trains (after any resume, so the keyed sample streams line up),
    // and a single producer thread runs ahead across epoch boundaries
    // (it samples epoch e+1 while the consumer still trains and
    // evaluates epoch e). Started by the first trainEpoch; declared
    // after `slots` so it joins before they go.
    std::optional<Pipeline<Minibatch>> pipe;
    auto start_pipeline = [&](std::uint32_t first) {
        pipe.emplace(depth, slots, [&, first](Minibatch &slot,
                                              std::size_t idx) {
            const std::size_t epoch = first + idx / nb;
            if (epoch >= cfg.epochs)
                return false;
            produce(static_cast<std::uint32_t>(epoch),
                    static_cast<std::uint32_t>(idx % nb), slot);
            return true;
        });
        ++result.producerSpawns;
    };

    nn::EpochSteps steps;
    steps.trainEpoch = [&](std::uint32_t epoch) {
        if (cfg.pipeline && !pipe)
            start_pipeline(epoch);
        // Σ_b mean_b * (n_b / N): a one-batch epoch reports its batch
        // mean exactly, as the full-batch Trainer does ((mean * N) / N
        // can round).
        const double num_train = static_cast<double>(trainIds_.size());
        double loss = 0.0;
        std::size_t seed_sum = 0;
        // Exactly nb batches belong to this epoch in either mode.
        for (std::uint32_t b = 0; b < nb; ++b) {
            Minibatch *mb = &slots[0];
            if (pipe) {
                mb = pipe->next();
                checkInvariant(mb != nullptr,
                               "SampledTrainer: pipeline ended early");
            } else {
                produce(epoch, b, *mb);
            }
            {
                MAXK_TRACE_SCOPE("sample.train_step");
                loss += trainStep(*mb, adam) *
                        (static_cast<double>(mb->numSeeds) / num_train);
            }
            seed_sum += mb->numSeeds;
            ++result.batchesTrained;
            result.sampledNodes += mb->numNodes;
            result.sampledEdges += mb->graph.numEdges();
            if (telemetry::armed()) {
                telemetry::counterAdd("sample.batches", 1);
                telemetry::counterAdd("sample.nodes", mb->numNodes);
                telemetry::counterAdd("sample.edges",
                                      mb->graph.numEdges());
            }
            if (pipe)
                pipe->recycle(mb);
        }
        checkInvariant(seed_sum == trainIds_.size(),
                       "SampledTrainer: epoch did not visit every seed");
        return loss;
    };
    steps.evaluate = [&](std::uint32_t) {
        MAXK_TRACE_SCOPE("sample.eval");
        syncEvalParams();
        result.finalLogits =
            evalModel_.forward(data_.graph, data_.features, false);
        return nn::evalMetrics(result.finalLogits, task_, data_,
                               multiTargets_);
    };
    // The pipeline counters persist, so a resumed run continues them.
    steps.checkSections = [](const formats::Checkpoint &ck) {
        return ck.checkU64s("counters", 3);
    };
    steps.readSections = [&](const formats::Checkpoint &ck) {
        const std::vector<std::uint64_t> c = ck.getU64s("counters").value();
        result.batchesTrained = c[0];
        result.sampledNodes = c[1];
        result.sampledEdges = c[2];
    };
    steps.writeSections = [&](formats::Checkpoint *ck) {
        ck->setU64s("counters", {result.batchesTrained,
                                 result.sampledNodes,
                                 result.sampledEdges});
    };

    loop.run(steps, model_, adam, result);
    return result;
}

} // namespace maxk::sample
