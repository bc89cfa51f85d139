/**
 * @file
 * Acceptance suite for the mini-batch training pipeline (ISSUE 6):
 *
 *  - BoundedQueue / Pipeline: FIFO slot delivery, bounded look-ahead,
 *    clean shutdown, and producer-exception propagation to next();
 *  - SampledTrainer: the pipelined run is BITWISE-identical to the
 *    synchronous (--no-pipeline) run across queue depths {1,2,4} and
 *    MAXK_THREADS {1,4}, for both softmax and multi-label BCE tasks;
 *  - steady-state epochs (>= 2) perform zero Matrix/CbsrMatrix heap
 *    allocations across ALL stages — sampling, extraction, training,
 *    and full-graph evaluation (AllocProbe-enforced);
 *  - the mini-batch loop actually learns on the community task.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "graph/registry.hh"
#include "nn/loss.hh"
#include "nn/model.hh"
#include "nn/optimizer.hh"
#include "nn/trainer.hh"
#include "sample/pipeline.hh"
#include "sample/sampled_trainer.hh"
#include "support/comparators.hh"
#include "support/fixtures.hh"

namespace maxk
{
namespace
{

using sample::BoundedQueue;
using sample::Pipeline;
using sample::SampledTrainConfig;
using sample::SampledTrainer;
using sample::SampledTrainResult;
using sample::SamplerConfig;

struct ThreadGuard
{
    ~ThreadGuard() { setDefaultThreads(0); }
};

/* ----------------------------------------------------- bounded queue */

TEST(BoundedQueue, FifoWithCloseDrain)
{
    BoundedQueue<int> q(4);
    int items[3] = {1, 2, 3};
    for (int &v : items)
        ASSERT_TRUE(q.push(&v));
    q.close();
    EXPECT_FALSE(q.push(&items[0])); // closed: push refused

    int *got = nullptr;
    for (int &v : items) { // close() drains before reporting closed
        ASSERT_TRUE(q.pop(got));
        EXPECT_EQ(got, &v);
    }
    EXPECT_FALSE(q.pop(got));
}

TEST(Pipeline, DeliversAllItemsInOrderAndRecyclesSlots)
{
    std::vector<int> slots(3, -1);
    std::atomic<int> produced{0};
    Pipeline<int> pipe(2, slots, [&](int &slot, std::size_t index) {
        if (index >= 100)
            return false;
        slot = static_cast<int>(index);
        produced.fetch_add(1);
        return true;
    });

    int expect = 0;
    while (int *item = pipe.next()) {
        EXPECT_EQ(*item, expect++);
        pipe.recycle(item);
    }
    EXPECT_EQ(expect, 100);
    EXPECT_EQ(produced.load(), 100);
}

TEST(Pipeline, ProducerExceptionReachesConsumer)
{
    std::vector<int> slots(2);
    Pipeline<int> pipe(1, slots, [](int &slot, std::size_t index) {
        if (index == 3)
            throw std::runtime_error("producer failed on batch 3");
        slot = static_cast<int>(index);
        return true;
    });

    int delivered = 0;
    try {
        while (int *item = pipe.next()) {
            ++delivered;
            pipe.recycle(item);
        }
        FAIL() << "producer exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "producer failed on batch 3");
    }
    EXPECT_EQ(delivered, 3);
}

TEST(Pipeline, EarlyConsumerTeardownJoinsProducer)
{
    std::vector<int> slots(2);
    // Unbounded stream: the destructor must unblock and join the
    // producer even though the consumer abandons after one item.
    Pipeline<int> pipe(1, slots, [](int &slot, std::size_t index) {
        slot = static_cast<int>(index);
        return true;
    });
    int *item = pipe.next();
    ASSERT_NE(item, nullptr);
    // No recycle, no drain: ~Pipeline handles it.
}

/* ---------------------------------------------- trainer equivalence */

TrainingTask
miniTask(const char *name, NodeId nodes)
{
    TrainingTask task = *findTrainingTask(name);
    task.accuracyNodes = nodes;
    task.accuracyAvgDegree = 8.0;
    return task;
}

nn::ModelConfig
miniModel(const TrainingTask &task, std::uint32_t layers)
{
    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Sage;
    cfg.nonlin = nn::Nonlinearity::MaxK;
    cfg.maxkK = 8;
    cfg.numLayers = layers;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = 32;
    cfg.outDim = task.numClasses;
    cfg.dropout = 0.3f;
    return cfg;
}

SamplerConfig
miniSampler(std::uint32_t layers)
{
    SamplerConfig scfg;
    scfg.fanouts.assign(layers, 4);
    scfg.batchSize = 48;
    scfg.seed = 77;
    return scfg;
}

SampledTrainResult
runOnce(const TrainingTask &task, TrainingData &data, bool pipeline,
        std::uint32_t depth)
{
    const nn::ModelConfig cfg = miniModel(task, 2);
    nn::GnnModel model(cfg);
    SampledTrainer trainer(model, data, task, miniSampler(2));

    SampledTrainConfig tc;
    tc.epochs = 4;
    tc.evalEvery = 2;
    tc.pipeline = pipeline;
    tc.queueDepth = depth;
    return trainer.run(tc);
}

void
expectBitwiseEqual(const SampledTrainResult &a,
                   const SampledTrainResult &b)
{
    ASSERT_EQ(a.trainLoss, b.trainLoss);
    ASSERT_EQ(a.evalEpochs, b.evalEpochs);
    ASSERT_EQ(a.valMetric, b.valMetric);
    ASSERT_EQ(a.testMetric, b.testMetric);
    ASSERT_EQ(a.bestValMetric, b.bestValMetric);
    ASSERT_EQ(a.finalTestMetric, b.finalTestMetric);
    ASSERT_TRUE(a.finalLogits.equals(b.finalLogits));
    ASSERT_EQ(a.batchesTrained, b.batchesTrained);
    ASSERT_EQ(a.sampledNodes, b.sampledNodes);
    ASSERT_EQ(a.sampledEdges, b.sampledEdges);
}

TEST(SampledTrainer, PipelinedBitwiseEqualsSyncAcrossDepthsAndThreads)
{
    ThreadGuard guard;
    const TrainingTask task = miniTask("Flickr", 500);
    Rng rng(51);
    TrainingData data = materializeTrainingData(task, rng);

    setDefaultThreads(1);
    const SampledTrainResult ref = runOnce(task, data, false, 1);
    ASSERT_EQ(ref.trainLoss.size(), 4u);
    ASSERT_GT(ref.batchesTrained, 0u);

    for (const std::uint32_t threads : {1u, 4u}) {
        setDefaultThreads(threads);
        // The synchronous path must not depend on threads either.
        expectBitwiseEqual(runOnce(task, data, false, 1), ref);
        for (const std::uint32_t depth : {1u, 2u, 4u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " depth=" + std::to_string(depth));
            expectBitwiseEqual(runOnce(task, data, true, depth), ref);
        }
    }
}

TEST(SampledTrainer, MultiLabelPipelinedBitwiseEqualsSync)
{
    ThreadGuard guard;
    const TrainingTask task = miniTask("Yelp", 400);
    ASSERT_TRUE(task.multiLabel);
    Rng rng(52);
    TrainingData data = materializeTrainingData(task, rng);

    setDefaultThreads(4);
    const SampledTrainResult sync = runOnce(task, data, false, 1);
    const SampledTrainResult piped = runOnce(task, data, true, 2);
    expectBitwiseEqual(piped, sync);
}

TEST(SampledTrainer, ProducerLivesAcrossEpochs)
{
    // Cross-epoch pipelining: ONE producer thread spans the whole run
    // (epoch boundaries are just indices in its stream), so epoch N+1's
    // first batches are sampled while epoch N still trains. This pins
    // the thread count as the regression guard against reintroducing a
    // per-epoch spawn/join — and the bitwise sweep above proves the
    // pipelined stream stays identical to the synchronous one.
    ThreadGuard guard;
    const TrainingTask task = miniTask("Flickr", 400);
    Rng rng(55);
    TrainingData data = materializeTrainingData(task, rng);

    setDefaultThreads(4);
    const SampledTrainResult piped = runOnce(task, data, true, 2);
    EXPECT_EQ(piped.producerSpawns, 1u)
        << "expected one producer across all epochs (cross-epoch "
           "pipelining), not one per epoch";
    const SampledTrainResult sync = runOnce(task, data, false, 1);
    EXPECT_EQ(sync.producerSpawns, 0u);
    expectBitwiseEqual(piped, sync);
}

/* ------------------------------------------------- zero-alloc steady */

TEST(SampledTrainer, SteadyStateEpochsAreAllocationFree)
{
    ThreadGuard guard;
    const TrainingTask task = miniTask("Flickr", 500);
    Rng rng(53);
    TrainingData data = materializeTrainingData(task, rng);

    for (const bool pipeline : {true, false}) {
        SCOPED_TRACE(pipeline ? "pipelined" : "sync");
        setDefaultThreads(pipeline ? 4 : 1);
        const nn::ModelConfig cfg = miniModel(task, 2);
        nn::GnnModel model(cfg);
        SampledTrainer trainer(model, data, task, miniSampler(2));

        SampledTrainConfig tc;
        tc.epochs = 6;
        tc.evalEvery = 2; // evals inside the steady window too
        tc.pipeline = pipeline;
        tc.queueDepth = 2;
        const SampledTrainResult res = trainer.run(tc);
        EXPECT_EQ(res.steadyStateAllocCount, 0u)
            << res.steadyStateAllocCount
            << " Matrix/CbsrMatrix allocations in epochs >= 2";
    }
}

/* -------------------------------------------- row-set training step */

/** (kind, nonlinearity, layers). */
using StepParam = std::tuple<nn::GnnKind, nn::Nonlinearity, std::uint32_t>;

std::string
stepName(const ::testing::TestParamInfo<StepParam> &info)
{
    const auto [kind, nonlin, layers] = info.param;
    return std::string(nn::gnnKindName(kind)) +
           nn::nonlinearityName(nonlin) + "_" + std::to_string(layers) +
           "layers";
}

/**
 * The row-set training step (each layer on its frontier rows) against
 * the padded step (GnnModel::forward/backward on every row) on the same
 * sampled minibatches and dropout stream. Before the first step every
 * activation, cache and workspace row the public calls reach is NaN in
 * the row-set model, and so is every padding row of its input; later
 * steps see the stale rows of the batch before. A single read outside
 * the sets would reach the loss, a gradient or a weight.
 */
class RowSetStep : public ::testing::TestWithParam<StepParam>
{
  protected:
    void
    SetUp() override
    {
        const auto [kind, nonlin, layers] = GetParam();
        task_ = miniTask("Flickr", 400);
        Rng rng(71);
        data_ = materializeTrainingData(task_, rng);
        cfg_ = miniModel(task_, layers);
        cfg_.kind = kind;
        cfg_.nonlin = nonlin;
        cfg_.dropout = 0.5f;
        cfg_.ginEps = 0.25f;
        data_.graph.setAggregatorWeights(nn::aggregatorFor(kind));

        SamplerConfig scfg;
        scfg.fanouts.assign(layers, 3);
        scfg.batchSize = 8;
        scfg.seed = 77;
        sample::NeighborSampler sampler(data_.graph, scfg);
        sample::MinibatchExtractor extractor(
            sampler.nodeCapacity(), nn::aggregatorFor(kind),
            data_.features, data_.labels);
        std::vector<NodeId> ids, order, seeds;
        for (NodeId v = 0; v < data_.graph.numNodes(); ++v)
            if (data_.trainMask[v])
                ids.push_back(v);
        sampler.epochOrder(0, ids, order);
        sample::SampleBatch sb;
        batches_.resize(3);
        for (std::uint32_t b = 0; b < batches_.size(); ++b) {
            seeds.assign(order.begin() + b * scfg.batchSize,
                         order.begin() + (b + 1) * scfg.batchSize);
            sampler.sample(0, b, seeds, sb);
            extractor.extract(sb, batches_[b]);
            ASSERT_LT(batches_[b].numNodes, sampler.nodeCapacity());
        }
        const sample::Minibatch &mb = batches_[0];
        ASSERT_LT(mb.rows.back().compute.size(), mb.numNodes);
        ASSERT_EQ(mb.rows.back().target.size(), mb.numSeeds);
    }

    /** NaN in every workspace row of `model` the public calls reach:
     *  an eval forward of all-NaN features (no dropout draw) and a
     *  backward of an all-NaN gradient, whose parameter gradients are
     *  then zeroed. */
    void
    poison(nn::GnnModel &model)
    {
        const sample::Minibatch &mb = batches_[0];
        const Matrix nan_x(mb.features.rows(), mb.features.cols(), kNan);
        const Matrix &logits = model.forward(mb.graph, nan_x, false);
        const Matrix nan_grad(logits.rows(), logits.cols(), kNan);
        for (nn::GnnLayer &layer : model.layers()) {
            layer.activationDense().fill(kNan);
            CbsrMatrix &cbsr = layer.activationCbsr();
            for (NodeId r = 0; r < cbsr.rows(); ++r)
                std::fill_n(cbsr.dataRow(r), cbsr.dimK(), kNan);
        }
        model.backward(mb.graph, nan_grad);
        for (nn::Param *p : model.params())
            p->resetGrad();
    }

    static constexpr Float kNan = std::numeric_limits<Float>::quiet_NaN();
    TrainingTask task_;
    TrainingData data_;
    nn::ModelConfig cfg_;
    std::vector<sample::Minibatch> batches_;
};

TEST_P(RowSetStep, LossGradientsAndWeightsAreThePaddedStepsBitForBit)
{
    ThreadGuard guard;
    for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
        setDefaultThreads(threads);
        nn::GnnModel padded(cfg_);
        nn::GnnModel rows(cfg_);
        nn::Adam padded_adam(padded.params(), 0.01f);
        nn::Adam rows_adam(rows.params(), 0.01f);
        poison(rows);
        Matrix grad, probs, rows_grad, rows_probs;
        for (std::size_t b = 0; b < batches_.size(); ++b) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " batch=" + std::to_string(b));
            const sample::Minibatch &mb = batches_[b];
            Matrix x = mb.features;
            for (std::size_t r = mb.numNodes; r < x.rows(); ++r)
                std::fill_n(x.row(r), x.cols(), kNan);

            const double want = nn::softmaxCrossEntropyInto(
                padded.forward(mb.graph, mb.features, true), mb.labels,
                mb.trainMask, 0, grad, probs);
            padded.backward(mb.graph, grad);
            const double got = nn::softmaxCrossEntropyInto(
                rows.forward(mb.graph, x, true, mb.rows), mb.labels,
                mb.trainMask, 0, rows_grad, rows_probs);
            rows.backward(mb.graph, rows_grad, mb.rows);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(want))
                << got << " vs " << want;

            const nn::ParamRefs pp = padded.params();
            const nn::ParamRefs rp = rows.params();
            for (std::size_t i = 0; i < pp.size(); ++i)
                EXPECT_TRUE(test::matricesBitwise(rp[i]->grad, pp[i]->grad))
                    << pp[i]->name << " gradient";
            padded_adam.step();
            rows_adam.step();
            for (std::size_t i = 0; i < pp.size(); ++i)
                EXPECT_TRUE(
                    test::matricesBitwise(rp[i]->value, pp[i]->value))
                    << pp[i]->name << " after Adam::step";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    KindsNonlinLayers, RowSetStep,
    ::testing::Combine(::testing::Values(nn::GnnKind::Sage,
                                         nn::GnnKind::Gcn,
                                         nn::GnnKind::Gin),
                       ::testing::Values(nn::Nonlinearity::Relu,
                                         nn::Nonlinearity::MaxK),
                       ::testing::Values(2u, 3u)),
    stepName);

/* ------------------------------------------- cross-engine anchor */

/** One engine's trained state: every parameter value and the losses. */
struct EngineState
{
    std::vector<Matrix> weights;
    std::vector<double> losses;
};

EngineState
stateOf(nn::GnnModel &model, const nn::TrainResult &res)
{
    EngineState s;
    for (const nn::Param *p : model.params())
        s.weights.push_back(p->value);
    s.losses = res.trainLoss;
    return s;
}

bool
weightsBitwise(const EngineState &a, const EngineState &b)
{
    if (a.weights.size() != b.weights.size())
        return false;
    for (std::size_t i = 0; i < a.weights.size(); ++i)
        if (!test::matricesBitwise(a.weights[i], b.weights[i]))
            return false;
    return true;
}

/**
 * Full-fanout sampled training is full-batch training. With every
 * fanout at the maximum degree, one batch holding every training node
 * and no dropout, a SampledTrainer epoch aggregates the same neighbour
 * sets in the same ascending-id order and takes one Adam step, exactly
 * like a Trainer epoch; every row the full graph adds outside the
 * sampled block only folds exact zeros into the gradients. So after
 * each epoch the weights and the epoch loss are bit for bit the
 * Trainer's, at any worker count, pipelined or synchronous.
 *
 * GCN differs, and legitimately: the extractor normalises each edge
 * by the local sampled degrees, and a last-hop row has no edges in the
 * block, so its edges into the hop before weigh 1/sqrt(d_i * 0 + ...)
 * against the full graph's 1/sqrt(d_i * d_j). The test pins that the
 * 2-layer GCN weights differ.
 */
TEST(SampledTrainer, FullFanoutOneBatchEqualsFullBatchTraining)
{
    ThreadGuard guard;
    const TrainingTask task = miniTask("Flickr", 320);
    Rng rng(61);
    const TrainingData data = materializeTrainingData(task, rng);
    const auto num_train = static_cast<std::uint32_t>(
        std::count(data.trainMask.begin(), data.trainMask.end(), 1));
    ASSERT_GT(num_train, 0u);

    for (const nn::GnnKind kind :
         {nn::GnnKind::Sage, nn::GnnKind::Gin, nn::GnnKind::Gcn})
    for (const nn::Nonlinearity nonlin :
         {nn::Nonlinearity::Relu, nn::Nonlinearity::MaxK})
    for (const std::uint32_t layers : {2u, 3u})
    for (const std::uint32_t threads : {1u, 4u}) {
        setDefaultThreads(threads);
        nn::ModelConfig cfg = miniModel(task, layers);
        cfg.kind = kind;
        cfg.nonlin = nonlin;
        cfg.dropout = 0.0f;
        SamplerConfig scfg;
        scfg.fanouts.assign(layers,
                            static_cast<std::uint32_t>(
                                data.graph.maxDegree()));
        scfg.batchSize = num_train;
        for (const std::uint32_t epochs : {1u, 2u, 3u}) {
            const std::string where =
                std::string(nn::gnnKindName(kind)) + "/" +
                nn::nonlinearityName(nonlin) + " layers=" +
                std::to_string(layers) + " threads=" +
                std::to_string(threads) + " epochs=" +
                std::to_string(epochs);
            nn::TrainConfig tc;
            tc.epochs = epochs;
            tc.evalEvery = epochs;
            TrainingData full_data = data;
            nn::GnnModel full_model(cfg);
            nn::Trainer full(full_model, full_data, task);
            const EngineState want = stateOf(full_model, full.run(tc));

            for (const bool pipeline : {true, false}) {
                SCOPED_TRACE(where + (pipeline ? " pipelined" : " sync"));
                TrainingData sampled_data = data;
                nn::GnnModel model(cfg);
                SampledTrainer trainer(model, sampled_data, task, scfg);
                SampledTrainConfig sc;
                static_cast<nn::TrainConfig &>(sc) = tc;
                sc.pipeline = pipeline;
                const SampledTrainResult res = trainer.run(sc);
                ASSERT_EQ(res.batchesTrained, epochs);
                const EngineState got = stateOf(model, res);
                if (kind == nn::GnnKind::Gcn) {
                    // Last-hop normalisation (see above).
                    if (layers == 2) {
                        EXPECT_FALSE(weightsBitwise(got, want));
                    }
                    continue;
                }
                EXPECT_TRUE(weightsBitwise(got, want));
                ASSERT_EQ(got.losses.size(), want.losses.size());
                for (std::size_t e = 0; e < want.losses.size(); ++e)
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.losses[e]),
                              std::bit_cast<std::uint64_t>(want.losses[e]))
                        << "epoch " << e << ": " << got.losses[e]
                        << " vs " << want.losses[e];
            }
        }
    }
}

/* ------------------------------------------------------ convergence */

TEST(SampledTrainer, LearnsCommunityTask)
{
    const TrainingTask task = miniTask("Flickr", 600);
    Rng rng(54);
    TrainingData data = materializeTrainingData(task, rng);

    nn::ModelConfig cfg = miniModel(task, 2);
    cfg.dropout = 0.1f;
    nn::GnnModel model(cfg);
    SamplerConfig scfg = miniSampler(2);
    scfg.fanouts = {8, 8};
    SampledTrainer trainer(model, data, task, scfg);

    SampledTrainConfig tc;
    tc.epochs = 12;
    tc.evalEvery = 4;
    tc.lr = 0.01f;
    const SampledTrainResult res = trainer.run(tc);

    // Loss drops and the final full-graph accuracy clears chance by a
    // wide margin (7-class balanced-ish SBM task).
    EXPECT_LT(res.trainLoss.back(), res.trainLoss.front());
    EXPECT_GT(res.bestValMetric, 0.5);
    // Every seed visited exactly once per epoch.
    const std::uint32_t nb = trainer.sampler().numBatches(
        static_cast<std::size_t>(std::count(
            data.trainMask.begin(), data.trainMask.end(), 1)));
    EXPECT_EQ(res.batchesTrained, static_cast<std::uint64_t>(nb) * 12);
}

} // namespace
} // namespace maxk
