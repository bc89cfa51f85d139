/**
 * @file
 * Robustness and degenerate-input tests across the stack: empty
 * graphs, single-node graphs, extreme k values, malformed input files,
 * zero-byte device accesses, and minimal training configurations. The
 * library must either handle these or fail loudly via fatal()/panic()
 * — never silently corrupt.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/rng.hh"
#include "core/maxk.hh"
#include "core/spgemm_forward.hh"
#include "core/sspmm_backward.hh"
#include "gpusim/context.hh"
#include "graph/edge_groups.hh"
#include "graph/formats/text_csr.hh"
#include "graph/generators.hh"
#include "graph/registry.hh"
#include "graph/stats.hh"
#include "nn/trainer.hh"
#include "sample/sampled_trainer.hh"
#include "serve/session.hh"
#include "tensor/init.hh"

namespace maxk
{
namespace
{

TEST(Degenerate, EmptyGraphThroughKernelPipeline)
{
    const CsrGraph g = CsrGraph::fromEdges(0, {}, false, false);
    EXPECT_TRUE(g.validate());
    EXPECT_EQ(g.numEdges(), 0u);
    const auto part = EdgeGroupPartition::build(g, 32);
    EXPECT_TRUE(part.groups().empty());
    EXPECT_TRUE(part.covers(g));

    const DegreeStats s = computeDegreeStats(g);
    EXPECT_EQ(s.numNodes, 0u);
}

TEST(Degenerate, EdgelessGraphSpgemm)
{
    const CsrGraph g = CsrGraph::fromEdges(8, {}, false, false);
    const auto part = EdgeGroupPartition::build(g, 8);
    Rng rng(1);
    Matrix x(8, 16);
    fillNormal(x, rng, 0.0f, 1.0f);
    SimOptions opt;
    opt.simulateCaches = false;
    MaxKResult mk = maxkCompress(x, 4, opt);
    Matrix y;
    const auto stats = spgemmForward(g, part, mk.cbsr, y, opt);
    EXPECT_DOUBLE_EQ(y.sum(), 0.0);
    EXPECT_EQ(stats.aggregate().flops, 0u);
}

TEST(Degenerate, SingleNodeSelfLoopGraph)
{
    CsrGraph g = CsrGraph::fromEdges(1, {}, false, true);
    g.setAggregatorWeights(Aggregator::SageMean);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(g.values()[0], 1.0f); // degree 1 -> mean weight 1

    const auto part = EdgeGroupPartition::build(g, 32);
    Rng rng(2);
    Matrix x(1, 8);
    fillNormal(x, rng, 0.0f, 1.0f);
    SimOptions opt;
    opt.simulateCaches = false;
    MaxKResult mk = maxkCompress(x, 8, opt); // k == dim keeps all
    Matrix y;
    spgemmForward(g, part, mk.cbsr, y, opt);
    EXPECT_TRUE(y.approxEquals(x, 1e-5f)); // identity aggregation
}

TEST(Degenerate, MaxkOnSingleColumnMatrix)
{
    Matrix x(5, 1);
    for (int i = 0; i < 5; ++i)
        x.at(i, 0) = static_cast<Float>(i - 2);
    Matrix out;
    maxkDense(x, 1, out);
    EXPECT_TRUE(out.equals(x)); // k == dim == 1: everything survives
}

TEST(Degenerate, SspmmWithFullDensityPattern)
{
    // k == dimOrigin: CBSR degenerates to dense; the backward must
    // equal the dense transposed aggregation exactly.
    Rng rng(3);
    CsrGraph g = erdosRenyi(40, 200, rng);
    g.setAggregatorWeights(Aggregator::Gin);
    const auto part = EdgeGroupPartition::build(g, 16);
    Matrix x(40, 12);
    fillNormal(x, rng, 0.0f, 1.0f);
    SimOptions opt;
    opt.simulateCaches = false;
    MaxKResult mk = maxkCompress(x, 12, opt);
    Matrix dxl(40, 12);
    fillNormal(dxl, rng, 0.0f, 1.0f);
    CbsrMatrix dxs;
    dxs.adoptPattern(mk.cbsr);
    sspmmBackward(g, part, dxl, dxs, opt);

    Matrix dense;
    dxs.decompress(dense);
    Matrix expect;
    nn::aggregateDenseTransposed(g, dxl, expect);
    EXPECT_TRUE(dense.approxEquals(expect, 1e-3f));
}

TEST(Degenerate, ZeroByteDeviceAccessesAreFree)
{
    gpusim::KernelContext ctx(gpusim::DeviceConfig::a100(), "t", true);
    static float f;
    ctx.globalRead(0, &f, 0);
    ctx.globalWrite(0, &f, 0);
    ctx.globalAtomicAccum(0, &f, 0);
    const auto stats = ctx.finish();
    EXPECT_EQ(stats.aggregate().reqBytes, 0u);
    EXPECT_EQ(stats.aggregate().atomicSectors, 0u);
}

TEST(Degenerate, HugeWarpIdsWrapSafely)
{
    gpusim::KernelContext ctx(gpusim::DeviceConfig::a100(), "t", true);
    static float f;
    ctx.globalRead(~0ull, &f, 4);
    ctx.globalRead(0x123456789abcdefull, &f, 4);
    SUCCEED();
}

TEST(IoRobustness, TrailingGarbageFileIsATypedError)
{
    // The seed loader silently accepted trailing tokens after the
    // values line; the formats layer reports them, with the line.
    const std::string path = ::testing::TempDir() + "maxk_trailing.csr";
    std::ofstream(path) << "maxk-csr 1 2 2\n0 1 2\n1 0\n0.5 0.25\njunk\n";
    const GraphResult loaded = formats::loadTextCsr(path);
    ASSERT_FALSE(loaded.hasValue());
    EXPECT_EQ(loaded.error().code, IoErrorCode::TrailingData);
    EXPECT_EQ(loaded.error().path, path);
    EXPECT_EQ(loaded.error().line, 5u) << loaded.error().describe();
    std::remove(path.c_str());
}

TEST(TrainerRobustness, SingleEpochRunWorks)
{
    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = 128;
    task.accuracyAvgDegree = 6.0;
    Rng rng(4);
    TrainingData data = materializeTrainingData(task, rng);
    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Gcn;
    cfg.nonlin = nn::Nonlinearity::MaxK;
    cfg.maxkK = 4;
    cfg.numLayers = 1;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = 16;
    cfg.outDim = task.numClasses;
    nn::GnnModel model(cfg);
    nn::Trainer trainer(model, data, task);
    nn::TrainConfig tc;
    tc.epochs = 1;
    const auto r = trainer.run(tc);
    EXPECT_EQ(r.trainLoss.size(), 1u);
    EXPECT_EQ(r.evalEpochs.size(), 1u);
}

TEST(TrainerRobustness, EvalCadenceBeyondEpochsStillEvaluatesLast)
{
    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = 128;
    task.accuracyAvgDegree = 6.0;
    Rng rng(5);
    TrainingData data = materializeTrainingData(task, rng);
    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Sage;
    cfg.nonlin = nn::Nonlinearity::Relu;
    cfg.numLayers = 2;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = 16;
    cfg.outDim = task.numClasses;
    nn::GnnModel model(cfg);
    nn::Trainer trainer(model, data, task);
    nn::TrainConfig tc;
    tc.epochs = 5;
    tc.evalEvery = 100;
    const auto r = trainer.run(tc);
    // Epoch 0 (cadence) and the final epoch are always evaluated.
    EXPECT_EQ(r.evalEpochs.size(), 2u);
    EXPECT_EQ(r.evalEpochs.back(), 4u);
}

TEST(RegistryRobustness, AllTwentyFourTwinsValidate)
{
    // Materialise every Table-1 twin once and validate its CSR. Uses a
    // shared RNG so the whole sweep stays fast and deterministic.
    Rng rng(6);
    for (const auto &info : kernelSuite()) {
        const CsrGraph g = materializeGraph(info, rng);
        ASSERT_TRUE(g.validate()) << info.name;
        ASSERT_GT(g.numEdges(), 0u) << info.name;
        // RMAT twins round |V| up to the next power of two.
        ASSERT_GE(g.numNodes(), info.twinNodes) << info.name;
        ASSERT_LT(g.numNodes(), 2 * info.twinNodes + 2) << info.name;
    }
}

TEST(CbsrRobustness, DecompressOfZeroPatternIsZeroMatrix)
{
    CbsrMatrix m(3, 2, 8); // default indices 0,0 are invalid-ascending
    m.setIndex(0, 1, 1);   // fix rows to be valid
    m.setIndex(1, 1, 1);
    m.setIndex(2, 1, 1);
    EXPECT_TRUE(m.validate());
    Matrix dense;
    m.decompress(dense);
    EXPECT_DOUBLE_EQ(dense.sum(), 0.0);
}

TEST(PivotRobustness, InfinityAndTinyValues)
{
    const Float row[] = {1e30f, -1e30f, 1e-30f, 0.0f};
    std::vector<std::uint32_t> sel;
    pivotSelect(row, 4, 2, sel);
    ASSERT_EQ(sel.size(), 2u);
    EXPECT_EQ(sel[0], 0u); // 1e30
    EXPECT_EQ(sel[1], 2u); // 1e-30 beats 0 and -1e30
}

/* ---------------------------------------------- sampler config errors */

namespace samplerrobust
{

TrainingTask
tinyTask()
{
    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = 200;
    task.accuracyAvgDegree = 6.0;
    return task;
}

nn::ModelConfig
tinyModel(const TrainingTask &task)
{
    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Sage;
    cfg.nonlin = nn::Nonlinearity::Relu;
    cfg.numLayers = 2;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = 16;
    cfg.outDim = task.numClasses;
    return cfg;
}

} // namespace samplerrobust

TEST(SamplerRobustness, ZeroBatchSizeIsFatal)
{
    Rng rng(1);
    const CsrGraph g = erdosRenyi(50, 200, rng);
    sample::SamplerConfig scfg;
    scfg.batchSize = 0;
    EXPECT_EXIT(sample::NeighborSampler(g, scfg),
                ::testing::ExitedWithCode(1),
                "batch size must be >= 1");
}

TEST(SamplerRobustness, EmptyFanoutListIsFatal)
{
    Rng rng(2);
    const CsrGraph g = erdosRenyi(50, 200, rng);
    sample::SamplerConfig scfg;
    scfg.fanouts.clear();
    EXPECT_EXIT(sample::NeighborSampler(g, scfg),
                ::testing::ExitedWithCode(1),
                "need at least one fanout");
}

TEST(SamplerRobustness, FanoutArityMismatchIsFatal)
{
    const TrainingTask task = samplerrobust::tinyTask();
    Rng rng(7);
    TrainingData data = materializeTrainingData(task, rng);
    nn::GnnModel model(samplerrobust::tinyModel(task));

    sample::SamplerConfig scfg;
    scfg.fanouts = {4}; // one fanout for a two-layer model
    EXPECT_EXIT(sample::SampledTrainer(model, data, task, scfg),
                ::testing::ExitedWithCode(1),
                "fanout arity .1. must equal the model layer count .2.");
}

TEST(SamplerRobustness, EmptyTrainMaskIsFatal)
{
    const TrainingTask task = samplerrobust::tinyTask();
    Rng rng(8);
    TrainingData data = materializeTrainingData(task, rng);
    std::fill(data.trainMask.begin(), data.trainMask.end(), 0);
    nn::GnnModel model(samplerrobust::tinyModel(task));

    sample::SamplerConfig scfg;
    scfg.fanouts = {4, 4};
    EXPECT_EXIT(sample::SampledTrainer(model, data, task, scfg),
                ::testing::ExitedWithCode(1),
                "training mask selects no nodes");
}

/* ------------------------------------------------ serve config errors */

namespace serverobust
{

struct Rig
{
    CsrGraph graph;
    Matrix features;
    nn::GnnModel model;

    Rig()
        : graph([] {
              Rng rng(9);
              return erdosRenyi(60, 360, rng);
          }()),
          features(graph.numNodes(), 8), model([] {
              nn::ModelConfig cfg;
              cfg.kind = nn::GnnKind::Sage;
              cfg.nonlin = nn::Nonlinearity::MaxK;
              cfg.maxkK = 4;
              cfg.numLayers = 2;
              cfg.inDim = 8;
              cfg.hiddenDim = 16;
              cfg.outDim = 4;
              return nn::GnnModel(cfg);
          }())
    {
        Rng rng(10);
        fillNormal(features, rng, 0.0f, 1.0f);
    }
};

serve::ServeConfig
baseConfig()
{
    serve::ServeConfig cfg;
    cfg.fanout = 3;
    cfg.batchCapacity = 4;
    return cfg;
}

} // namespace serverobust

TEST(ServeRobustness, ZeroDeadlineIsFatal)
{
    serverobust::Rig rig;
    serve::ServeConfig cfg = serverobust::baseConfig();
    cfg.deadlineSimSeconds = 0.0;
    EXPECT_EXIT(serve::ServeSession(rig.model, rig.graph, rig.features,
                                    cfg),
                ::testing::ExitedWithCode(1),
                "deadline must be finite and > 0");
}

TEST(ServeRobustness, NegativeDeadlineIsFatal)
{
    serverobust::Rig rig;
    serve::ServeConfig cfg = serverobust::baseConfig();
    cfg.deadlineSimSeconds = -1e-3;
    EXPECT_EXIT(serve::ServeSession(rig.model, rig.graph, rig.features,
                                    cfg),
                ::testing::ExitedWithCode(1),
                "deadline must be finite and > 0");
}

TEST(ServeRobustness, CacheFractionOutsideUnitIntervalIsFatal)
{
    serverobust::Rig rig;
    for (const double fraction : {-0.1, 1.5}) {
        serve::ServeConfig cfg = serverobust::baseConfig();
        cfg.cacheFraction = fraction;
        EXPECT_EXIT(serve::ServeSession(rig.model, rig.graph,
                                        rig.features, cfg),
                    ::testing::ExitedWithCode(1),
                    "cacheFraction must be in .0, 1.");
    }
}

TEST(ServeRobustness, ZeroBatchCapacityIsFatal)
{
    serverobust::Rig rig;
    serve::ServeConfig cfg = serverobust::baseConfig();
    cfg.batchCapacity = 0;
    EXPECT_EXIT(serve::ServeSession(rig.model, rig.graph, rig.features,
                                    cfg),
                ::testing::ExitedWithCode(1),
                "batchCapacity must be >= 1");
}

TEST(ServeRobustness, OutOfRangeVertexIsTypedErrorNotAbort)
{
    // A bad REQUEST is recoverable input, not a config bug: the replay
    // returns a ServeError naming the offending trace index instead of
    // exiting, and the session keeps serving afterwards.
    serverobust::Rig rig;
    serve::ServeSession session(rig.model, rig.graph, rig.features,
                                serverobust::baseConfig());
    const auto bad = session.replay(
        {{1e-4, 2}, {2e-4, rig.graph.numNodes() + 5}});
    ASSERT_FALSE(bad.hasValue());
    EXPECT_EQ(bad.error().requestIndex, 1u);
    EXPECT_NE(bad.error().message.find("out of range"),
              std::string::npos);
    const auto good = session.replay({{1e-4, 2}, {2e-4, 3}});
    EXPECT_TRUE(good.hasValue());
}

} // namespace
} // namespace maxk
