/**
 * @file
 * Sample-based mini-batch trainer: the third stage of the pipeline,
 * driving the existing GnnModel forward/backward on extracted
 * minibatches (ISSUE 6).
 *
 * Each step computes, layer by layer, only the rows the next layer
 * reads (the extractor's row sets, GnnModel::forward/backward with
 * rows): Linear1 on the rows within L - l hops of a seed, the
 * aggregation and self path on those within L - 1 - l. Dropout still
 * draws over every padded row, so the loss, every gradient and every
 * weight are bitwise those of the all-rows step on the padded batch.
 *
 * Loss semantics: each batch contributes the mean loss over its seed
 * vertices (softmaxCrossEntropyInto / sigmoidBceInto with norm_count =
 * 0, i.e. the active masked count), and the reported epoch loss is
 * Σ_b mean_b * (n_b / N) over the epoch's batches (n_b seeds each, N
 * training vertices) — the mean over all training vertices visited
 * once per epoch, and for a one-batch epoch exactly the batch mean the
 * full-batch Trainer reports.
 *
 * Determinism contract (asserted by tests/test_pipeline.cc): the
 * pipelined run (`pipeline = true`, any queueDepth >= 1) is
 * bitwise-identical to the synchronous run at any MAXK_THREADS.
 * Sampling draws only from per-(epoch, batch, vertex) keyed streams;
 * the model's dropout stream is consumed exclusively on the consumer
 * thread in batch order; and padding to the sampler's fixed node
 * capacity makes every forward shape-constant, so stream consumption
 * cannot depend on sampled sizes either.
 *
 * Cross-engine anchor (tests/test_pipeline.cc): with every fanout at
 * the maximum degree, one batch holding every training node and no
 * dropout, the weights and epoch losses are bitwise nn::Trainer's for
 * SAGE and GIN. GCN differs: the extractor weighs each edge by local
 * sampled degrees, and a last-hop row has none.
 *
 * Evaluation runs full-graph on a second, identically-configured model
 * whose parameter values are copied from the training model at each
 * eval point. Two models keep the minibatch-shaped and graph-shaped
 * workspaces separate, which is what makes steady-state epochs
 * (epoch >= 2) free of Matrix/CbsrMatrix heap allocations across all
 * pipeline stages (sampling, extraction, training, evaluation).
 */

#ifndef MAXK_SAMPLE_SAMPLED_TRAINER_HH
#define MAXK_SAMPLE_SAMPLED_TRAINER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/registry.hh"
#include "nn/epoch_loop.hh"
#include "nn/model.hh"
#include "nn/optimizer.hh"
#include "sample/extractor.hh"
#include "sample/sampler.hh"

namespace maxk::sample
{

/**
 * Mini-batch training hyper-parameters: the shared loop's config plus
 * the pipeline knobs. On resume the produce index restarts at
 * start_epoch * numBatches, so the keyed sample streams line up
 * exactly with the uninterrupted run.
 */
struct SampledTrainConfig : nn::TrainConfig
{
    bool pipeline = true;          //!< overlap sampling with training
    std::uint32_t queueDepth = 2;  //!< batches buffered ahead (>= 1)
};

/** Outcome of a mini-batch run: the shared result plus the full-graph
 *  logits and the pipeline counters the tests and bench pin down. The
 *  counters persist in checkpoints, so a resumed run continues them. */
struct SampledTrainResult : nn::TrainResult
{
    /** Full-graph logits of the last evaluation. */
    Matrix finalLogits;

    std::uint64_t batchesTrained = 0;
    std::uint64_t sampledNodes = 0;  //!< Σ real (unpadded) batch nodes
    std::uint64_t sampledEdges = 0;  //!< Σ sampled minibatch edges

    /** Producer threads spawned over the whole run: 1 in pipelined mode
     *  (the producer lives across epochs — cross-epoch pipelining), 0 in
     *  synchronous mode. Pinned by tests/test_pipeline.cc as the
     *  regression guard against reintroducing a per-epoch join. */
    std::uint32_t producerSpawns = 0;
};

/** Mini-batch trainer over NeighborSampler + MinibatchExtractor. */
class SampledTrainer
{
  public:
    /**
     * fatal() on config errors: sampler fanout arity != model layer
     * count, empty training mask, or an invalid SamplerConfig (zero
     * batch size, empty fanout list — checked by NeighborSampler).
     *
     * @param model training model (its dropout stream is the only
     *              shared RNG; consumed in batch order)
     * @param data  graph + features + labels + masks (mutated: edge
     *              weights are set for the model's aggregator, for the
     *              full-graph evaluation forward)
     * @param task  metric / multi-label configuration
     * @param scfg  sampling configuration
     */
    SampledTrainer(nn::GnnModel &model, TrainingData &data,
                   const TrainingTask &task, const SamplerConfig &scfg);

    /** Run the shared epoch loop; bitwise-deterministic given seeds
     *  (any threads, any pipeline mode/depth). */
    SampledTrainResult run(const SampledTrainConfig &cfg);

    const NeighborSampler &sampler() const { return sampler_; }

  private:
    /** Sample and extract batch `b` of `epoch` into `slot`. */
    void produce(std::uint32_t epoch, std::uint32_t b, Minibatch &slot);

    /** Copy training parameter values into the eval replica. */
    void syncEvalParams();

    /** Forward/backward/step on one extracted minibatch. */
    double trainStep(const Minibatch &mb, nn::Adam &adam);

    nn::GnnModel &model_;
    TrainingData &data_;
    const TrainingTask &task_;
    NeighborSampler sampler_;
    nn::GnnModel evalModel_;   //!< full-graph eval replica (same cfg)
    Matrix multiTargets_;      //!< global BCE targets when multiLabel
    std::optional<MinibatchExtractor> extractor_;
    std::vector<NodeId> trainIds_;

    // Persistent run() workspaces.
    std::vector<NodeId> order_;    //!< epoch seed order
    std::vector<NodeId> seedsWs_;  //!< current batch seeds
    SampleBatch batchWs_;          //!< sampler output
    Matrix gradWs_;                //!< d(loss)/d(logits)
    Matrix probsWs_;               //!< softmax scratch
};

} // namespace maxk::sample

#endif // MAXK_SAMPLE_SAMPLED_TRAINER_HH
