/**
 * @file
 * Tests for GnnModel and Trainer: stacking rules, learning progress on
 * SBM tasks for every model x nonlinearity combination, determinism,
 * and the simulated epoch profiler (Amdahl structure, MaxK < baseline).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "graph/edge_groups.hh"
#include "graph/generators.hh"
#include "graph/registry.hh"
#include "kernels/registry.hh"
#include "nn/trainer.hh"

namespace maxk::nn
{
namespace
{

/** Small SBM task shared by the training tests. */
struct TinyTask
{
    TrainingTask task;
    TrainingData data;

    TinyTask()
    {
        task = *findTrainingTask("Flickr");
        task.accuracyNodes = 400;
        task.accuracyAvgDegree = 12.0;
        Rng rng(4242);
        data = materializeTrainingData(task, rng);
    }
};

ModelConfig
tinyModel(GnnKind kind, Nonlinearity nonlin, const TrainingTask &task,
          std::uint32_t k = 8)
{
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.nonlin = nonlin;
    cfg.maxkK = k;
    cfg.numLayers = 2;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = 32;
    cfg.outDim = task.numClasses;
    cfg.dropout = 0.1f;
    cfg.seed = 7;
    return cfg;
}

TEST(GnnModel, LayerDimsFollowStackingRule)
{
    ModelConfig cfg;
    cfg.numLayers = 3;
    cfg.inDim = 10;
    cfg.hiddenDim = 20;
    cfg.outDim = 5;
    GnnModel model(cfg);
    EXPECT_EQ(model.layerInDim(0), 10u);
    EXPECT_EQ(model.layerOutDim(0), 20u);
    EXPECT_EQ(model.layerInDim(1), 20u);
    EXPECT_EQ(model.layerOutDim(1), 20u);
    EXPECT_EQ(model.layerInDim(2), 20u);
    EXPECT_EQ(model.layerOutDim(2), 5u);
}

TEST(GnnModel, SingleLayerNetworkWorks)
{
    TinyTask t;
    ModelConfig cfg = tinyModel(GnnKind::Gcn, Nonlinearity::Relu, t.task);
    cfg.numLayers = 1;
    GnnModel model(cfg);
    t.data.graph.setAggregatorWeights(Aggregator::Gcn);
    const Matrix &logits =
        model.forward(t.data.graph, t.data.features, false);
    EXPECT_EQ(logits.rows(), t.data.graph.numNodes());
    EXPECT_EQ(logits.cols(), t.task.numClasses);
}

TEST(GnnModel, ParamCountMatchesArchitecture)
{
    TinyTask t;
    GnnModel sage(tinyModel(GnnKind::Sage, Nonlinearity::Relu, t.task));
    GnnModel gcn(tinyModel(GnnKind::Gcn, Nonlinearity::Relu, t.task));
    // SAGE: 2 layers x 2 linears x (W, b) = 8; GCN: 2 x 1 x 2 = 4.
    EXPECT_EQ(sage.params().size(), 8u);
    EXPECT_EQ(gcn.params().size(), 4u);
}

TEST(GnnModel, ForwardDeterministicInEvalMode)
{
    TinyTask t;
    GnnModel model(tinyModel(GnnKind::Gcn, Nonlinearity::MaxK, t.task));
    t.data.graph.setAggregatorWeights(Aggregator::Gcn);
    const Matrix a =
        model.forward(t.data.graph, t.data.features, false);
    const Matrix b =
        model.forward(t.data.graph, t.data.features, false);
    EXPECT_TRUE(a.equals(b));
}

class TrainingConvergence
    : public ::testing::TestWithParam<std::tuple<GnnKind, Nonlinearity>>
{
};

TEST_P(TrainingConvergence, BeatsChanceOnSbmTask)
{
    const auto [kind, nonlin] = GetParam();
    TinyTask t;
    GnnModel model(tinyModel(kind, nonlin, t.task));
    Trainer trainer(model, t.data, t.task);
    TrainConfig cfg;
    cfg.epochs = 60;
    cfg.lr = 0.01f;
    cfg.evalEvery = 10;
    const TrainResult r = trainer.run(cfg);

    // 7-class task: chance ~0.143. Expect strong learning.
    EXPECT_GT(r.finalTestMetric, 0.5)
        << gnnKindName(kind) << "/" << nonlinearityName(nonlin);
    // Loss must drop substantially.
    EXPECT_LT(r.trainLoss.back(), r.trainLoss.front() * 0.7);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TrainingConvergence,
    ::testing::Combine(::testing::Values(GnnKind::Sage, GnnKind::Gcn,
                                         GnnKind::Gin),
                       ::testing::Values(Nonlinearity::Relu,
                                         Nonlinearity::MaxK)));

TEST(Trainer, DeterministicGivenSeeds)
{
    TinyTask t1, t2;
    GnnModel m1(tinyModel(GnnKind::Gcn, Nonlinearity::MaxK, t1.task));
    GnnModel m2(tinyModel(GnnKind::Gcn, Nonlinearity::MaxK, t2.task));
    Trainer tr1(m1, t1.data, t1.task);
    Trainer tr2(m2, t2.data, t2.task);
    TrainConfig cfg;
    cfg.epochs = 10;
    const TrainResult r1 = tr1.run(cfg);
    const TrainResult r2 = tr2.run(cfg);
    ASSERT_EQ(r1.trainLoss.size(), r2.trainLoss.size());
    for (std::size_t i = 0; i < r1.trainLoss.size(); ++i)
        ASSERT_DOUBLE_EQ(r1.trainLoss[i], r2.trainLoss[i]);
    EXPECT_DOUBLE_EQ(r1.finalTestMetric, r2.finalTestMetric);
}

TEST(Trainer, RecordsConvergenceCurve)
{
    TinyTask t;
    GnnModel model(tinyModel(GnnKind::Gcn, Nonlinearity::Relu, t.task));
    Trainer trainer(model, t.data, t.task);
    TrainConfig cfg;
    cfg.epochs = 12;
    cfg.evalEvery = 4;
    const TrainResult r = trainer.run(cfg);
    EXPECT_EQ(r.trainLoss.size(), 12u);
    // Eval at epochs 0,4,8 and the final epoch 11.
    ASSERT_EQ(r.evalEpochs.size(), 4u);
    EXPECT_EQ(r.evalEpochs.back(), 11u);
    EXPECT_EQ(r.valMetric.size(), r.testMetric.size());
    EXPECT_GE(r.bestValMetric, r.valMetric.front());
}

TEST(Trainer, EvalEveryZeroClampedToEveryEpoch)
{
    // Regression: evalEvery == 0 used to hit `epoch % 0` and crash.
    TinyTask t;
    GnnModel model(tinyModel(GnnKind::Gcn, Nonlinearity::Relu, t.task));
    Trainer trainer(model, t.data, t.task);
    TrainConfig cfg;
    cfg.epochs = 5;
    cfg.evalEvery = 0;
    const TrainResult r = trainer.run(cfg);
    EXPECT_EQ(r.trainLoss.size(), 5u);
    // Clamped to 1: an eval point at every epoch.
    ASSERT_EQ(r.evalEpochs.size(), 5u);
    EXPECT_EQ(r.evalEpochs.back(), 4u);
}

TEST(Trainer, MultiLabelTaskTrainsWithBce)
{
    TrainingTask task = *findTrainingTask("Yelp");
    task.accuracyNodes = 300;
    task.accuracyAvgDegree = 10.0;
    Rng rng(5);
    TrainingData data = materializeTrainingData(task, rng);
    ModelConfig mc = tinyModel(GnnKind::Sage, Nonlinearity::MaxK, task);
    GnnModel model(mc);
    Trainer trainer(model, data, task);
    TrainConfig cfg;
    cfg.epochs = 40;
    const TrainResult r = trainer.run(cfg);
    // Micro-F1 above the all-positive baseline (2/18 active bits ~ 0.2).
    EXPECT_GT(r.finalTestMetric, 0.4);
}

TEST(Trainer, SteadyStateEpochsAllocationFree)
{
    // The contract the sampled and sharded engines already keep: once
    // the model and loss workspaces are warm (epochs >= 2), an epoch
    // of forward, loss, backward, step and evaluation allocates no
    // Matrix/CbsrMatrix storage — for both loss families.
    for (const char *dataset : {"Flickr", "Yelp"}) {
        TrainingTask task = *findTrainingTask(dataset);
        task.accuracyNodes = 300;
        task.accuracyAvgDegree = 10.0;
        Rng rng(8);
        TrainingData data = materializeTrainingData(task, rng);
        for (const auto nonlin : {Nonlinearity::MaxK, Nonlinearity::Relu}) {
            GnnModel model(tinyModel(GnnKind::Sage, nonlin, task));
            Trainer trainer(model, data, task);
            TrainConfig cfg;
            cfg.epochs = 6;
            cfg.evalEvery = 1;  // evaluations inside the window too
            EXPECT_EQ(trainer.run(cfg).steadyStateAllocCount, 0u)
                << dataset << "/" << nonlinearityName(nonlin);
        }
    }
}

TEST(ProfileEpoch, AggregationDominatesOnHighDegreeGraph)
{
    // Reddit-like: avg degree ~256 at dim 256 -> SpMM should dominate
    // the baseline epoch (Fig. 1: 83.6% on ogbn-proteins).
    Rng rng(6);
    CsrGraph g = rmat(11, 524288, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    const auto part = EdgeGroupPartition::build(g, 32);

    ModelConfig cfg;
    cfg.kind = GnnKind::Sage;
    cfg.nonlin = Nonlinearity::Relu;
    cfg.numLayers = 3;
    cfg.inDim = 128;
    cfg.hiddenDim = 256;
    cfg.outDim = 64;

    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);
    const EpochTiming t = profileEpoch(cfg, g, part, opt);
    EXPECT_GT(t.aggFraction(), 0.6);
    EXPECT_GT(t.total(), 0.0);
    EXPECT_GT(t.linear, 0.0);
    EXPECT_GT(t.nonlin, 0.0);
}

TEST(ProfileEpoch, MaxkEpochFasterThanBaselineOnHighDegreeGraph)
{
    Rng rng(7);
    CsrGraph g = rmat(11, 262144, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    const auto part = EdgeGroupPartition::build(g, 32);

    ModelConfig base;
    base.kind = GnnKind::Sage;
    base.nonlin = Nonlinearity::Relu;
    base.numLayers = 3;
    base.inDim = 128;
    base.hiddenDim = 256;
    base.outDim = 64;
    ModelConfig maxk = base;
    maxk.nonlin = Nonlinearity::MaxK;
    maxk.maxkK = 16;

    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);
    const double t_base = profileEpoch(base, g, part, opt).total();
    const double t_maxk = profileEpoch(maxk, g, part, opt).total();
    EXPECT_GT(t_base / t_maxk, 1.5);

    // And the speedup must respect the Amdahl bound computed from the
    // baseline profile.
    const EpochTiming bt = profileEpoch(base, g, part, opt);
    const double amdahl = 1.0 / (1.0 - bt.aggFraction());
    EXPECT_LT(t_base / t_maxk, amdahl * 1.05);
}

TEST(ProfileEpoch, OptimizerSweepCountsTrueLayerShapes)
{
    // Regression: param_elems modelled the last layer as
    // hiddenDim x hiddenDim and ignored SAGE's second linear, so the
    // optimizer-sweep term was identical for SAGE and GCN. With the
    // true shapes, SAGE (two linears per layer) must charge a strictly
    // larger `other` term than GCN at identical dimensions.
    Rng rng(9);
    CsrGraph g = rmat(9, 40000, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    const auto part = EdgeGroupPartition::build(g, 32);

    ModelConfig sage;
    sage.kind = GnnKind::Sage;
    sage.nonlin = Nonlinearity::Relu;
    sage.numLayers = 3;
    sage.inDim = 128;
    sage.hiddenDim = 4096; // params dwarf the n*outDim logits term
    sage.outDim = 16;
    ModelConfig gcn = sage;
    gcn.kind = GnnKind::Gcn;

    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);
    // The old model charged them identically; the flat per-layer
    // dispatch-overhead term keeps the ratio below a full 2x.
    const EpochTiming ts = profileEpoch(sage, g, part, opt);
    const EpochTiming tg = profileEpoch(gcn, g, part, opt);
    EXPECT_GT(ts.other, tg.other * 1.25);

    // And the sweep must scale with the output width of the last layer
    // (the hiddenDim x outDim term the old model dropped).
    ModelConfig wide = gcn;
    wide.outDim = 2048;
    const EpochTiming tw = profileEpoch(wide, g, part, opt);
    EXPECT_GT(tw.other, tg.other);
}

TEST(ProfileEpoch, GnnaBaselineSlowerThanCuSparse)
{
    Rng rng(8);
    CsrGraph g = rmat(10, 100000, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    const auto part = EdgeGroupPartition::build(g, 32);

    ModelConfig cfg;
    cfg.kind = GnnKind::Gcn;
    cfg.nonlin = Nonlinearity::Relu;
    cfg.numLayers = 2;
    cfg.inDim = 64;
    cfg.hiddenDim = 256;
    cfg.outDim = 32;

    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);
    const double t_cusp = profileEpoch(cfg, g, part, opt).total();
    const double t_gnna =
        profileEpoch(cfg, g, part, opt,
                     kernels::kernelVariantOrDie("spmm_gnna"))
            .total();
    EXPECT_GT(t_gnna, t_cusp);
}

} // namespace
} // namespace maxk::nn
