/**
 * @file
 * Acceptance suite for the sharded execution subsystem (ISSUE 5):
 *
 *  - Communicator: deterministic mailbox collectives + byte accounting;
 *  - HaloPlan: replica-exact exchange lists and extended subgraphs;
 *  - ShardedTrainer: 1-rank runs bitwise-equal to nn::Trainer, R-rank
 *    runs deterministic across repeats and thread counts and within
 *    1e-5 of the single-device loss trajectory, steady-state epochs
 *    allocation-free, and measured Halo-channel traffic equal to the
 *    corrected profileDistributedEpoch model — with MaxK models
 *    exchanging strictly fewer bytes than ReLU models.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "dist/comm.hh"
#include "dist/halo.hh"
#include "dist/sharded_trainer.hh"
#include "graph/formats/formats.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "graph/registry.hh"
#include "nn/distributed.hh"
#include "nn/trainer.hh"
#include "support/fixtures.hh"
#include "tensor/init.hh"

namespace maxk
{
namespace
{

/* ------------------------------------------------------ Communicator */

TEST(CommWorld, AllToAllvRoutesLanesAndCountsBytes)
{
    dist::CommWorld world(3);
    world.run([](dist::Communicator &comm) {
        const std::uint32_t r = comm.rank();
        std::vector<std::vector<std::uint8_t>> send(3), recv;
        for (std::uint32_t d = 0; d < 3; ++d)
            send[d].assign(r + 1, static_cast<std::uint8_t>(10 * r + d));
        comm.allToAllv(send, recv, dist::CommChannel::Halo);
        for (std::uint32_t s = 0; s < 3; ++s) {
            ASSERT_EQ(recv[s].size(), s + 1u);
            for (std::uint8_t b : recv[s])
                ASSERT_EQ(b, 10 * s + r);
        }
    });
    // Rank r ships (r+1) bytes to each of its two peers.
    for (std::uint32_t r = 0; r < 3; ++r)
        EXPECT_EQ(world.traffic(r).sent[0], 2 * (r + 1));
    EXPECT_EQ(world.totalSentBytes(dist::CommChannel::Halo),
              2u * (1 + 2 + 3));
    EXPECT_EQ(world.totalSentBytes(dist::CommChannel::Reduce), 0u);
}

TEST(CommWorld, AllReduceSumIsFixedOrderAndIdenticalAcrossRanks)
{
    // The fold order is rank 0..R-1 regardless of scheduling, so every
    // rank must land on the bit-identical fp32 sum — which equals the
    // explicit serial left-to-right fold.
    constexpr std::uint32_t kRanks = 4;
    const std::size_t n = 257;
    std::vector<std::vector<Float>> inputs(kRanks,
                                           std::vector<Float>(n));
    Rng rng(99);
    for (auto &v : inputs)
        for (Float &x : v)
            x = rng.normal();
    std::vector<Float> expected = inputs[0];
    for (std::uint32_t r = 1; r < kRanks; ++r)
        for (std::size_t i = 0; i < n; ++i)
            expected[i] += inputs[r][i];

    for (int repeat = 0; repeat < 3; ++repeat) {
        dist::CommWorld world(kRanks);
        std::vector<std::vector<Float>> out(kRanks);
        world.run([&](dist::Communicator &comm) {
            std::vector<Float> data = inputs[comm.rank()];
            comm.allReduceSum(data.data(), data.size());
            out[comm.rank()] = data;
        });
        for (std::uint32_t r = 0; r < kRanks; ++r)
            ASSERT_EQ(out[r], expected) << "rank " << r;
    }
}

TEST(CommWorld, RankExceptionAbortsPeersAndRethrows)
{
    dist::CommWorld world(3);
    EXPECT_THROW(world.run([](dist::Communicator &comm) {
        if (comm.rank() == 1)
            throw std::runtime_error("rank 1 failed");
        // Peers block on a collective; the abort must wake them
        // instead of deadlocking the world.
        comm.barrier();
        comm.barrier();
    }),
                 std::runtime_error);
}

/* ----------------------------------------------------------- HaloPlan */

TEST(HaloPlan, ExchangeListsAreSymmetricAndReplicaExact)
{
    Rng rng(21);
    auto sbm = stochasticBlockModel(600, 4, 8.0, 0.85, rng);
    CsrGraph g = sbm.graph;
    g.setAggregatorWeights(Aggregator::SageMean);
    const Partition p = bfsPartition(g, 4, rng);
    const dist::HaloPlan plan = dist::HaloPlan::build(g, p);

    EXPECT_EQ(plan.totalReplicas(), nn::boundaryReplicaCount(g, p));

    EdgeId ext_edges = 0;
    for (std::uint32_t r = 0; r < 4; ++r) {
        const dist::HaloShard &s = plan.shards[r];
        ASSERT_TRUE(s.extGraph.validate());
        ASSERT_EQ(s.extGraph.numNodes(), s.numExt());
        ext_edges += s.extGraph.numEdges();
        // Halo rows are empty; local rows keep every original edge.
        for (NodeId slot = s.numLocal(); slot < s.numExt(); ++slot)
            ASSERT_EQ(s.extGraph.degree(slot), 0u);
        for (NodeId i = 0; i < s.numLocal(); ++i)
            ASSERT_EQ(s.extGraph.degree(i), g.degree(s.localGlobal[i]));
        // Send lists match the peers' halo slots, vertex for vertex.
        for (std::uint32_t d = 0; d < 4; ++d) {
            const auto &sends = s.sendRows[d];
            const auto &recvs = plan.shards[d].recvRows[r];
            ASSERT_EQ(sends.size(), recvs.size());
            for (std::size_t i = 0; i < sends.size(); ++i) {
                const NodeId send_global = s.localGlobal[sends[i]];
                const NodeId slot = recvs[i];
                const NodeId recv_global =
                    plan.shards[d]
                        .haloGlobal[slot - plan.shards[d].numLocal()];
                ASSERT_EQ(send_global, recv_global);
            }
        }
    }
    // Every original edge appears in exactly one shard's local rows.
    EXPECT_EQ(ext_edges, g.numEdges());
}

TEST(HaloPlan, DirectedStructureReplicasMatchModelCount)
{
    // Directed 0->1, 0->2 with parts {0} and {1,2}: a row reads its
    // out-neighbours, so shard 0 materialises TWO halo rows and part 1
    // none. boundaryReplicaCount must count (reader part, read vertex)
    // pairs — the per-reader-vertex count (1 here) undercounts on
    // asymmetric structure.
    const CsrGraph g =
        CsrGraph::fromEdges(3, {{0, 1}, {0, 2}}, false, false);
    Partition p;
    p.numParts = 2;
    p.assignment = {0, 1, 1};
    const dist::HaloPlan plan = dist::HaloPlan::build(g, p);
    EXPECT_EQ(plan.shards[0].haloGlobal.size(), 2u);
    EXPECT_EQ(plan.shards[1].haloGlobal.size(), 0u);
    EXPECT_EQ(plan.totalReplicas(), 2u);
    EXPECT_EQ(nn::boundaryReplicaCount(g, p), 2u);
}

/* ----------------------------------------------- ShardedTrainer setup */

nn::ModelConfig
shardedModel(nn::GnnKind kind, nn::Nonlinearity nonlin,
             const TrainingTask &task, Float dropout)
{
    nn::ModelConfig cfg;
    cfg.kind = kind;
    cfg.nonlin = nonlin;
    cfg.maxkK = 8;
    cfg.numLayers = 3;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = 32;
    cfg.outDim = task.numClasses;
    cfg.dropout = dropout;
    return cfg;
}

TrainingTask
smallTask(NodeId nodes = 700)
{
    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = nodes;
    task.accuracyAvgDegree = 10.0;
    return task;
}

Partition
makeParts(const CsrGraph &g, std::uint32_t parts, std::uint64_t seed)
{
    Rng rng(seed);
    return bfsPartition(g, parts, rng);
}

/* ------------------------------------------------- acceptance checks */

TEST(Sharded, OneRankBitwiseEqualsTrainer)
{
    const TrainingTask task = smallTask();
    Rng rng(31);
    TrainingData data = materializeTrainingData(task, rng);

    nn::TrainConfig tc;
    tc.epochs = 8;
    tc.evalEvery = 2;

    for (const auto nonlin :
         {nn::Nonlinearity::MaxK, nn::Nonlinearity::Relu}) {
        const nn::ModelConfig cfg =
            shardedModel(nn::GnnKind::Sage, nonlin, task, 0.3f);

        nn::GnnModel single(cfg);
        nn::Trainer trainer(single, data, task);
        const nn::TrainResult ref = trainer.run(tc);

        Partition p1;
        p1.numParts = 1;
        p1.assignment.assign(data.graph.numNodes(), 0);
        dist::ShardedTrainer sharded(cfg, data, task, p1);
        const dist::ShardedTrainResult got = sharded.run(tc);

        // Bitwise: double == on every recorded loss and metric.
        ASSERT_EQ(got.train.trainLoss, ref.trainLoss);
        ASSERT_EQ(got.train.evalEpochs, ref.evalEpochs);
        ASSERT_EQ(got.train.valMetric, ref.valMetric);
        ASSERT_EQ(got.train.testMetric, ref.testMetric);
        ASSERT_EQ(got.train.bestValMetric, ref.bestValMetric);
        ASSERT_EQ(got.train.testAtBestVal, ref.testAtBestVal);
        ASSERT_EQ(got.train.finalTestMetric, ref.finalTestMetric);

        // The gathered logits equal a post-training single-device
        // forward, element for element.
        const Matrix &ref_logits =
            single.forward(data.graph, data.features, false);
        ASSERT_TRUE(got.finalLogits.equals(ref_logits));

        // One rank exchanges nothing.
        EXPECT_EQ(got.trainHaloBytes, 0u);
        EXPECT_EQ(got.evalHaloBytes, 0u);
    }
}

TEST(Sharded, MultiRankDeterministicAcrossRepeatsAndThreadCounts)
{
    const TrainingTask task = smallTask(500);
    Rng rng(32);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = shardedModel(
        nn::GnnKind::Sage, nn::Nonlinearity::MaxK, task, 0.4f);
    const Partition parts = makeParts(data.graph, 4, 77);

    nn::TrainConfig tc;
    tc.epochs = 5;
    tc.evalEvery = 2;

    std::vector<double> ref_loss;
    Matrix ref_logits;
    bool first = true;
    for (const std::uint32_t threads : {1u, 4u, 1u, 4u}) {
        setDefaultThreads(threads);
        dist::ShardedTrainer sharded(cfg, data, task, parts);
        const dist::ShardedTrainResult got = sharded.run(tc);
        if (first) {
            ref_loss = got.train.trainLoss;
            ref_logits = got.finalLogits;
            first = false;
        } else {
            ASSERT_EQ(got.train.trainLoss, ref_loss)
                << "threads=" << threads;
            ASSERT_TRUE(got.finalLogits.equals(ref_logits))
                << "threads=" << threads;
        }
    }
    setDefaultThreads(0);
}

TEST(Sharded, MultiRankLossWithinTolOfSingleDevice)
{
    // Dropout off: masks are rank-local streams, so trajectory
    // comparison is only meaningful without them. What remains is pure
    // fp32 reassociation across shard boundaries (reductions +
    // halo-sorted row orders), bounded far below 1e-5 per epoch.
    const TrainingTask task = smallTask(600);
    Rng rng(33);
    TrainingData data = materializeTrainingData(task, rng);

    nn::TrainConfig tc;
    tc.epochs = 10;
    tc.evalEvery = 5;

    for (const auto kind : {nn::GnnKind::Sage, nn::GnnKind::Gcn}) {
        const nn::ModelConfig cfg =
            shardedModel(kind, nn::Nonlinearity::MaxK, task, 0.0f);

        nn::GnnModel single(cfg);
        nn::Trainer trainer(single, data, task);
        const nn::TrainResult ref = trainer.run(tc);

        for (const std::uint32_t ranks : {2u, 4u, 8u}) {
            dist::ShardedTrainer sharded(
                cfg, data, task, makeParts(data.graph, ranks, 55));
            const dist::ShardedTrainResult got = sharded.run(tc);
            ASSERT_EQ(got.train.trainLoss.size(),
                      ref.trainLoss.size());
            for (std::size_t e = 0; e < ref.trainLoss.size(); ++e)
                EXPECT_NEAR(got.train.trainLoss[e], ref.trainLoss[e],
                            1e-5)
                    << "ranks=" << ranks << " epoch=" << e;
            EXPECT_NEAR(got.train.finalTestMetric, ref.finalTestMetric,
                        0.05);
        }
    }
}

TEST(Sharded, SteadyStateEpochsAllocationFree)
{
    const TrainingTask task = smallTask(500);
    Rng rng(34);
    TrainingData data = materializeTrainingData(task, rng);

    nn::TrainConfig tc;
    tc.epochs = 6;
    tc.evalEvery = 1; // evaluate every epoch: the gather path is hot too

    for (const auto nonlin :
         {nn::Nonlinearity::MaxK, nn::Nonlinearity::Relu}) {
        const nn::ModelConfig cfg =
            shardedModel(nn::GnnKind::Sage, nonlin, task, 0.4f);
        dist::ShardedTrainer sharded(cfg, data, task,
                                     makeParts(data.graph, 4, 66));
        const dist::ShardedTrainResult got = sharded.run(tc);
        // Epochs >= 2, all ranks, forward + loss + backward +
        // allReduce + eval gather: zero Matrix/CbsrMatrix heap
        // allocations once the workspaces are warm.
        EXPECT_EQ(got.train.steadyStateAllocCount, 0u)
            << nn::nonlinearityName(nonlin);
    }
}

/** Manual TrainingData over an arbitrary graph (labels by index). */
TrainingData
syntheticData(CsrGraph graph, std::uint32_t classes, std::size_t dim,
              std::uint64_t seed)
{
    TrainingData data;
    data.graph = std::move(graph);
    const NodeId n = data.graph.numNodes();
    data.features.resize(n, dim);
    Rng rng(seed);
    fillNormal(data.features, rng, 0.0f, 1.0f);
    for (NodeId v = 0; v < n; ++v) {
        data.labels.push_back(v % classes);
        data.trainMask.push_back(v % 3 != 2 ? 1 : 0);
        data.valMask.push_back(v % 6 == 2 ? 1 : 0);
        data.testMask.push_back(v % 6 == 5 ? 1 : 0);
    }
    return data;
}

TrainingTask
syntheticTask(std::uint32_t classes, std::size_t dim)
{
    TrainingTask task{};
    task.info.name = "synthetic";
    task.numClasses = classes;
    task.featureDim = static_cast<std::uint32_t>(dim);
    task.multiLabel = false;
    task.metric = MetricKind::Accuracy;
    return task;
}

/**
 * The acceptance reconciliation: measured Communicator Halo bytes must
 * equal the corrected profileDistributedEpoch model exactly — per
 * training epoch (forward + backward) and per evaluation forward — and
 * MaxK models must exchange strictly fewer bytes than ReLU models.
 */
void
expectBytesMatchModel(TrainingData &data, const TrainingTask &task,
                      std::uint32_t ranks)
{
    const Partition parts = makeParts(data.graph, ranks, 44);
    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.evalEvery = 100; // evals at epoch 0 and the last epoch only

    nn::ClusterConfig cluster;
    cluster.numGpus = ranks;
    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);

    std::uint64_t maxk_bytes = 0, relu_bytes = 0;
    for (const auto nonlin :
         {nn::Nonlinearity::MaxK, nn::Nonlinearity::Relu}) {
        const nn::ModelConfig cfg =
            shardedModel(nn::GnnKind::Sage, nonlin, task, 0.2f);
        dist::ShardedTrainer sharded(cfg, data, task, parts);
        const dist::ShardedTrainResult got = sharded.run(tc);
        const auto model = nn::profileDistributedEpoch(
            cfg, data.graph, parts, cluster, opt);

        EXPECT_EQ(sharded.plan().totalReplicas(),
                  model.boundaryReplicas);
        EXPECT_EQ(got.trainHaloBytes, model.exchangedBytes * tc.epochs)
            << nn::nonlinearityName(nonlin) << " ranks=" << ranks;
        // Two eval forwards, each half of a fwd+bwd epoch's volume.
        EXPECT_EQ(got.evalHaloBytes * 2, model.exchangedBytes * 2)
            << nn::nonlinearityName(nonlin) << " ranks=" << ranks;
        (nonlin == nn::Nonlinearity::MaxK ? maxk_bytes : relu_bytes) =
            got.trainHaloBytes;
    }
    EXPECT_GT(relu_bytes, 0u);
    EXPECT_LT(maxk_bytes, relu_bytes); // the CBSR compounding win
}

TEST(Sharded, MeasuredBytesMatchModelOnGeneratorTwin)
{
    const TrainingTask task = smallTask(600);
    Rng rng(35);
    TrainingData data = materializeTrainingData(task, rng);
    expectBytesMatchModel(data, task, 3);
    expectBytesMatchModel(data, task, 5);
}

TEST(Sharded, MeasuredBytesMatchModelOnKarateFixture)
{
    const std::string path =
        std::string(MAXK_TEST_DATA_DIR) + "/karate.txt";
    formats::EdgeListOptions elopt;
    elopt.symmetrize = true;
    auto loaded = formats::loadAnyGraph(path, elopt);
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    TrainingData data = syntheticData(loaded.value(), 4, 16, 2024);
    const TrainingTask task = syntheticTask(4, 16);
    expectBytesMatchModel(data, task, 3);
}

TEST(Sharded, EmptyPartTrainsAndReconciles)
{
    // parts > naturally-seedable communities: force one empty part by
    // assigning everything to parts {0, 1} of a 3-part world; the empty
    // rank must participate in every collective without deadlock and
    // the byte reconciliation must still hold.
    Rng rng(36);
    TrainingData data =
        syntheticData(erdosRenyi(120, 700, rng), 4, 12, 7);
    const TrainingTask task = syntheticTask(4, 12);
    Partition parts;
    parts.numParts = 3;
    parts.assignment.resize(120);
    for (NodeId v = 0; v < 120; ++v)
        parts.assignment[v] = v % 2;

    const nn::ModelConfig cfg = shardedModel(
        nn::GnnKind::Gin, nn::Nonlinearity::MaxK, task, 0.2f);
    nn::TrainConfig tc;
    tc.epochs = 4;
    tc.evalEvery = 2;
    dist::ShardedTrainer sharded(cfg, data, task, parts);
    const dist::ShardedTrainResult got = sharded.run(tc);
    ASSERT_EQ(got.train.trainLoss.size(), 4u);

    nn::ClusterConfig cluster;
    cluster.numGpus = 3;
    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);
    const auto model = nn::profileDistributedEpoch(
        cfg, data.graph, parts, cluster, opt);
    EXPECT_EQ(got.trainHaloBytes, model.exchangedBytes * tc.epochs);
}

} // namespace
} // namespace maxk
