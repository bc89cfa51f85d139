/**
 * @file
 * Acceptance suite for the neighbor sampler and minibatch extractor
 * (ISSUE 6):
 *
 *  - rngKey: stable, component-sensitive stream keys;
 *  - NeighborSampler: per-seed keyed streams make sampled batches
 *    bitwise-identical across repeats, MAXK_THREADS in {1,4,8}, fresh
 *    sampler instances, and any batch sampling order;
 *  - fanout edge cases: degree < fanout takes every neighbor without
 *    touching the stream, isolated vertices keep empty rows, self-loops
 *    sample like any edge, fanout 0 yields a seed-only batch;
 *  - MinibatchExtractor structural invariants (property-tested across
 *    graph shapes): valid padded CSR, global-id round trip, gathered
 *    rows bitwise-equal to direct indexing, and the saturated-ball
 *    sample equal to the extractSubgraph oracle of test_partition.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "graph/partition.hh"
#include "nn/gnn_layer.hh"
#include "sample/extractor.hh"
#include "sample/sampler.hh"
#include "support/fixtures.hh"
#include "support/heap_counter.hh"
#include "tensor/init.hh"

namespace maxk
{
namespace
{

using sample::MinibatchExtractor;
using sample::NeighborSampler;
using sample::SampleBatch;
using sample::SamplerConfig;

/** Restore the env-driven thread default even when an ASSERT aborts. */
struct ThreadGuard
{
    ~ThreadGuard() { setDefaultThreads(0); }
};

bool
sameBatch(const SampleBatch &a, const SampleBatch &b)
{
    return a.nodes == b.nodes && a.seeds == b.seeds &&
           a.rowPtr == b.rowPtr && a.colIdx == b.colIdx;
}

/** First `count` vertices of the keyed epoch order. */
std::vector<NodeId>
firstSeeds(const NeighborSampler &s, std::uint32_t epoch,
           const std::vector<NodeId> &ids, std::size_t count)
{
    std::vector<NodeId> order;
    s.epochOrder(epoch, ids, order);
    order.resize(std::min(count, order.size()));
    return order;
}

std::vector<NodeId>
allNodes(const CsrGraph &g)
{
    std::vector<NodeId> ids(g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ids[v] = v;
    return ids;
}

/* ------------------------------------------------------------ rngKey */

TEST(RngKey, ComponentSensitiveAndStable)
{
    // Any single-component change must move the key.
    const std::uint64_t base = rngKey(1, 2, 3, 4);
    EXPECT_NE(base, rngKey(2, 2, 3, 4));
    EXPECT_NE(base, rngKey(1, 3, 3, 4));
    EXPECT_NE(base, rngKey(1, 2, 4, 4));
    EXPECT_NE(base, rngKey(1, 2, 3, 5));
    // Position matters (no commutative collapse).
    EXPECT_NE(rngKey(1, 2), rngKey(2, 1));
    // Defaults are zero components.
    EXPECT_EQ(rngKey(7), rngKey(7, 0, 0, 0));
    // Same inputs, same key: streams are reproducible across calls.
    EXPECT_EQ(base, rngKey(1, 2, 3, 4));
}

/* ------------------------------------------------- sampler invariants */

void
checkBatchInvariants(const CsrGraph &g, const NeighborSampler &s,
                     const SampleBatch &b)
{
    // Node list sorted, unique, within capacity.
    ASSERT_TRUE(std::is_sorted(b.nodes.begin(), b.nodes.end()));
    ASSERT_EQ(std::adjacent_find(b.nodes.begin(), b.nodes.end()),
              b.nodes.end());
    ASSERT_LE(b.nodes.size(), s.nodeCapacity());
    for (const NodeId v : b.nodes)
        ASSERT_LT(v, g.numNodes());

    // Seeds are a subset of the node list.
    for (const NodeId v : b.seeds)
        ASSERT_TRUE(
            std::binary_search(b.nodes.begin(), b.nodes.end(), v));

    // Local CSR: monotone rowPtr, sorted in-bounds unique columns, and
    // every sampled edge present in the global graph with the right
    // per-row count: min(fanout_of_hop, degree) for expanded rows.
    ASSERT_EQ(b.rowPtr.size(), b.nodes.size() + 1);
    ASSERT_EQ(b.rowPtr.front(), 0u);
    ASSERT_EQ(b.rowPtr.back(), b.colIdx.size());
    for (std::size_t r = 0; r < b.nodes.size(); ++r) {
        ASSERT_LE(b.rowPtr[r], b.rowPtr[r + 1]);
        const NodeId v = b.nodes[r];
        const auto gl = g.colIdx().begin() + g.rowPtr()[v];
        const auto gh = g.colIdx().begin() + g.rowPtr()[v + 1];
        for (EdgeId e = b.rowPtr[r]; e < b.rowPtr[r + 1]; ++e) {
            const NodeId lc = b.colIdx[e];
            ASSERT_LT(lc, b.nodes.size());
            if (e > b.rowPtr[r]) {
                ASSERT_LT(b.colIdx[e - 1], lc); // sorted, no dupes
            }
            // The edge exists in the global graph.
            ASSERT_TRUE(std::binary_search(gl, gh, b.nodes[lc]));
        }
    }
}

TEST(NeighborSampler, BatchStructureAcrossShapes)
{
    for (const auto shape :
         {test::GraphShape::ErdosRenyi, test::GraphShape::PowerLaw,
          test::GraphShape::Star, test::GraphShape::Ring,
          test::GraphShape::Community}) {
        SCOPED_TRACE(test::graphShapeName(shape));
        const CsrGraph g = test::makeGraph(shape, 300, 2400, 11);

        SamplerConfig cfg;
        cfg.fanouts = {4, 3};
        cfg.batchSize = 16;
        NeighborSampler s(g, cfg);

        const std::vector<NodeId> ids = allNodes(g);
        SampleBatch b;
        for (std::uint32_t batch = 0; batch < 3; ++batch) {
            s.sample(1, batch,
                     firstSeeds(s, 1, ids, cfg.batchSize), b);
            checkBatchInvariants(g, s, b);
            ASSERT_EQ(b.seeds.size(), cfg.batchSize);
        }
    }
}

TEST(NeighborSampler, PerRowSampleCounts)
{
    const CsrGraph g =
        test::makeGraph(test::GraphShape::PowerLaw, 256, 2048, 5);
    SamplerConfig cfg;
    cfg.fanouts = {6};
    cfg.batchSize = 32;
    NeighborSampler s(g, cfg);

    SampleBatch b;
    s.sample(0, 0, firstSeeds(s, 0, allNodes(g), cfg.batchSize), b);

    // Exactly the seed rows are expanded: row length min(f, degree) for
    // seeds, zero for vertices first reached at the (only) hop.
    for (std::size_t r = 0; r < b.nodes.size(); ++r) {
        const EdgeId len = b.rowPtr[r + 1] - b.rowPtr[r];
        const bool is_seed = std::binary_search(
            b.seeds.begin(), b.seeds.end(), b.nodes[r]);
        if (is_seed)
            ASSERT_EQ(len, std::min<EdgeId>(6, g.degree(b.nodes[r])));
        else
            ASSERT_EQ(len, 0u);
    }
}

/* -------------------------------------------------- determinism sweep */

TEST(NeighborSampler, BitwiseDeterministicAcrossRepeatsThreadsInstances)
{
    ThreadGuard guard;
    const CsrGraph g =
        test::makeGraph(test::GraphShape::PowerLaw, 400, 3600, 21);
    SamplerConfig cfg;
    cfg.fanouts = {5, 4};
    cfg.batchSize = 24;

    // Reference batches at 1 thread.
    setDefaultThreads(1);
    NeighborSampler ref_sampler(g, cfg);
    const std::vector<NodeId> ids = allNodes(g);
    std::vector<SampleBatch> ref(4);
    for (std::uint32_t batch = 0; batch < 4; ++batch)
        ref_sampler.sample(2, batch, firstSeeds(ref_sampler, 2, ids, 24),
                           ref[batch]);

    // Repeats on the same sampler reproduce bitwise.
    SampleBatch again;
    ref_sampler.sample(2, 1, firstSeeds(ref_sampler, 2, ids, 24), again);
    ASSERT_TRUE(sameBatch(again, ref[1]));

    for (const std::uint32_t threads : {1u, 4u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setDefaultThreads(threads);
        NeighborSampler s(g, cfg); // fresh instance: no hidden state
        // Permuted batch order: each batch depends only on its own
        // (epoch, batch, seeds) coordinates.
        SampleBatch b;
        for (const std::uint32_t batch : {3u, 0u, 2u, 1u}) {
            s.sample(2, batch, firstSeeds(s, 2, ids, 24), b);
            ASSERT_TRUE(sameBatch(b, ref[batch]));
        }
    }
}

TEST(NeighborSampler, EpochOrderIsKeyedPermutation)
{
    const CsrGraph g =
        test::makeGraph(test::GraphShape::ErdosRenyi, 100, 600, 3);
    SamplerConfig cfg;
    cfg.fanouts = {2};
    NeighborSampler s(g, cfg);

    std::vector<NodeId> ids;
    for (NodeId v = 0; v < 60; ++v)
        ids.push_back(v);

    std::vector<NodeId> e0, e0_again, e1;
    s.epochOrder(0, ids, e0);
    s.epochOrder(0, ids, e0_again);
    s.epochOrder(1, ids, e1);

    EXPECT_EQ(e0, e0_again);
    EXPECT_NE(e0, e1); // different epoch, different shuffle

    std::vector<NodeId> sorted = e0;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, ids); // a permutation, nothing lost

    // Distinct sampler seeds shuffle differently.
    SamplerConfig other = cfg;
    other.seed = cfg.seed + 1;
    NeighborSampler s2(g, other);
    std::vector<NodeId> o0;
    s2.epochOrder(0, ids, o0);
    EXPECT_NE(e0, o0);
}

/* -------------------------------------------------- fanout edge cases */

TEST(NeighborSampler, DegreeUnderFanoutTakesEveryNeighbor)
{
    // Ring: every vertex has degree 2, far under the fanout of 10.
    const CsrGraph g =
        test::makeGraph(test::GraphShape::Ring, 64, 0, 1);
    SamplerConfig cfg;
    cfg.fanouts = {10};
    cfg.batchSize = 4;
    NeighborSampler s(g, cfg);

    SampleBatch b;
    s.sample(0, 0, {5, 10, 20, 40}, b);
    for (std::size_t r = 0; r < b.nodes.size(); ++r) {
        const NodeId v = b.nodes[r];
        if (!std::binary_search(b.seeds.begin(), b.seeds.end(), v))
            continue;
        // All global neighbors present, in ascending local order.
        ASSERT_EQ(b.rowPtr[r + 1] - b.rowPtr[r], g.degree(v));
        for (EdgeId e = b.rowPtr[r]; e < b.rowPtr[r + 1]; ++e) {
            const NodeId gcol =
                g.colIdx()[g.rowPtr()[v] + (e - b.rowPtr[r])];
            ASSERT_EQ(b.nodes[b.colIdx[e]], gcol);
        }
    }
}

TEST(NeighborSampler, IsolatedVerticesAndSelfLoops)
{
    // Two components: a self-loop triangle and two isolated vertices.
    std::vector<std::pair<NodeId, NodeId>> edges = {
        {0, 1}, {1, 2}, {2, 0}};
    CsrGraph g = CsrGraph::fromEdges(5, edges, true, true);

    SamplerConfig cfg;
    cfg.fanouts = {8, 8};
    cfg.batchSize = 2;
    NeighborSampler s(g, cfg);

    SampleBatch b;
    s.sample(0, 0, {3, 4}, b); // isolated seeds: nothing to expand
    EXPECT_EQ(b.nodes, (std::vector<NodeId>{3, 4}));
    EXPECT_EQ(b.numEdges(), 2u); // just their self-loops
    for (std::size_t r = 0; r < 2; ++r)
        EXPECT_EQ(b.colIdx[b.rowPtr[r]], r); // self-loop maps to itself

    s.sample(0, 1, {0}, b); // self-loop seed pulls its component
    EXPECT_EQ(b.nodes, (std::vector<NodeId>{0, 1, 2}));
    checkBatchInvariants(g, s, b);
}

TEST(NeighborSampler, FanoutZeroYieldsSeedOnlyBatch)
{
    const CsrGraph g =
        test::makeGraph(test::GraphShape::ErdosRenyi, 128, 1024, 9);
    SamplerConfig cfg;
    cfg.fanouts = {0};
    cfg.batchSize = 8;
    NeighborSampler s(g, cfg);
    EXPECT_EQ(s.nodeCapacity(), 8u);

    SampleBatch b;
    const std::vector<NodeId> seeds = {1, 17, 33, 64, 90, 100, 110, 127};
    s.sample(0, 0, seeds, b);
    EXPECT_EQ(b.nodes, seeds);
    EXPECT_EQ(b.numEdges(), 0u);
    EXPECT_EQ(b.rowPtr, std::vector<EdgeId>(9, 0));
}

/* -------------------------------------- arbitrary request seed sets */

TEST(NeighborSampler, DuplicateSeedsCollapseToUniqueSet)
{
    // Serving traces routinely repeat a vertex inside one batch; the
    // sampler must collapse duplicates to the sorted unique set and
    // produce the exact batch the deduplicated request would.
    const CsrGraph g =
        test::makeGraph(test::GraphShape::PowerLaw, 200, 1600, 31);
    SamplerConfig cfg;
    cfg.fanouts = {4, 3};
    cfg.batchSize = 6;
    NeighborSampler s(g, cfg);

    SampleBatch unique, dup;
    s.sample(0, 0, {5, 9, 42}, unique);
    s.sample(0, 0, {42, 5, 9, 5, 42, 9}, dup);
    ASSERT_TRUE(sameBatch(unique, dup));
    EXPECT_EQ(dup.seeds, (std::vector<NodeId>{5, 9, 42}));
    checkBatchInvariants(g, s, dup);
}

TEST(NeighborSampler, ArbitraryRequestSetsNotJustTrainBatches)
{
    // Frontier-restricted extraction serves ANY vertex set: unsorted,
    // isolated members, duplicates — and each vertex's sampled rows are
    // independent of which request set pulled it in (keyed streams).
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId v = 0; v + 1 < 40; ++v)
        edges.push_back({v, v + 1});
    // Vertices 40..44 stay isolated.
    CsrGraph g = CsrGraph::fromEdges(45, edges, true, false);

    SamplerConfig cfg;
    cfg.fanouts = {2, 2};
    cfg.batchSize = 8;
    NeighborSampler s(g, cfg);

    SampleBatch lone, mixed;
    s.sample(7, 3, {12}, lone);
    s.sample(7, 3, {44, 12, 40, 3, 12}, mixed);
    checkBatchInvariants(g, s, mixed);
    EXPECT_EQ(mixed.seeds, (std::vector<NodeId>{3, 12, 40, 44}));
    // Isolated seeds contribute exactly their own empty row.
    for (const NodeId iso : {40u, 44u}) {
        const auto it = std::lower_bound(mixed.nodes.begin(),
                                         mixed.nodes.end(), iso);
        ASSERT_NE(it, mixed.nodes.end());
        const std::size_t r =
            static_cast<std::size_t>(it - mixed.nodes.begin());
        EXPECT_EQ(mixed.rowPtr[r + 1] - mixed.rowPtr[r], 0u);
    }
    // Vertex 12's sampled adjacency is the same in both batches.
    const auto row_of = [](const SampleBatch &b, NodeId v) {
        return static_cast<std::size_t>(
            std::lower_bound(b.nodes.begin(), b.nodes.end(), v) -
            b.nodes.begin());
    };
    const std::size_t rl = row_of(lone, 12), rm = row_of(mixed, 12);
    ASSERT_EQ(lone.rowPtr[rl + 1] - lone.rowPtr[rl],
              mixed.rowPtr[rm + 1] - mixed.rowPtr[rm]);
    for (EdgeId e = 0; e < lone.rowPtr[rl + 1] - lone.rowPtr[rl]; ++e)
        EXPECT_EQ(lone.nodes[lone.colIdx[lone.rowPtr[rl] + e]],
                  mixed.nodes[mixed.colIdx[mixed.rowPtr[rm] + e]]);
}

TEST(NeighborSampler, CapacityBoundsAndBatchCounts)
{
    const CsrGraph g =
        test::makeGraph(test::GraphShape::ErdosRenyi, 200, 1600, 13);
    SamplerConfig cfg;
    cfg.fanouts = {3, 2};
    cfg.batchSize = 10;
    NeighborSampler s(g, cfg);
    // 10 * (1 + 3 + 6) = 100 < |V|.
    EXPECT_EQ(s.nodeCapacity(), 100u);
    EXPECT_EQ(s.numBatches(25), 3u);
    EXPECT_EQ(s.numBatches(30), 3u);
    EXPECT_EQ(s.numBatches(31), 4u);

    // Huge fanouts clamp to |V|.
    SamplerConfig big = cfg;
    big.fanouts = {1000, 1000};
    NeighborSampler sb(g, big);
    EXPECT_EQ(sb.nodeCapacity(), g.numNodes());
}

/* --------------------------------------------------------- extractor */

TEST(MinibatchExtractor, GatherMatchesDirectIndexing)
{
    for (const auto shape :
         {test::GraphShape::PowerLaw, test::GraphShape::Community}) {
        SCOPED_TRACE(test::graphShapeName(shape));
        const CsrGraph g = test::makeGraph(shape, 300, 2400, 17);
        const NodeId n = g.numNodes();

        Rng rng(23);
        Matrix feats(n, 12);
        fillNormal(feats, rng, 0.0f, 1.0f);
        std::vector<std::uint32_t> labels(n);
        for (NodeId v = 0; v < n; ++v)
            labels[v] = v % 7;

        SamplerConfig cfg;
        cfg.fanouts = {4, 4};
        cfg.batchSize = 16;
        NeighborSampler s(g, cfg);
        MinibatchExtractor ex(s.nodeCapacity(), Aggregator::SageMean,
                              feats, labels);

        SampleBatch b;
        sample::Minibatch mb;
        for (std::uint32_t batch = 0; batch < 3; ++batch) {
            s.sample(0, batch, firstSeeds(s, 0, allNodes(g), 16), b);
            ex.extract(b, mb);

            // Shape: always capacity rows, real prefix first.
            ASSERT_EQ(mb.graph.numNodes(), s.nodeCapacity());
            ASSERT_TRUE(mb.graph.validate());
            ASSERT_EQ(mb.numNodes, b.numNodes());
            ASSERT_EQ(mb.numSeeds, b.seeds.size());
            ASSERT_EQ(mb.globalIds, b.nodes);
            ASSERT_EQ(mb.features.rows(), s.nodeCapacity());

            // Topology: the real prefix is exactly the sampled CSR;
            // padding rows are isolated.
            for (std::size_t r = 0; r < mb.numNodes; ++r) {
                ASSERT_EQ(mb.graph.rowPtr()[r], b.rowPtr[r]);
                ASSERT_EQ(mb.graph.rowPtr()[r + 1], b.rowPtr[r + 1]);
            }
            for (std::size_t e = 0; e < b.colIdx.size(); ++e)
                ASSERT_EQ(mb.graph.colIdx()[e], b.colIdx[e]);
            for (NodeId r = static_cast<NodeId>(mb.numNodes);
                 r < s.nodeCapacity(); ++r)
                ASSERT_EQ(mb.graph.degree(r), 0u);

            // Rows gathered bitwise; padding rows zero; labels/mask
            // round-trip through globalIds.
            for (NodeId r = 0; r < s.nodeCapacity(); ++r) {
                if (r < mb.numNodes) {
                    const NodeId v = mb.globalIds[r];
                    ASSERT_EQ(mb.labels[r], labels[v]);
                    ASSERT_EQ(
                        mb.trainMask[r] != 0,
                        std::binary_search(b.seeds.begin(),
                                           b.seeds.end(), v));
                    for (std::size_t c = 0; c < feats.cols(); ++c)
                        ASSERT_EQ(mb.features.at(r, c), feats.at(v, c));
                } else {
                    ASSERT_EQ(mb.labels[r], 0u);
                    ASSERT_EQ(mb.trainMask[r], 0);
                    for (std::size_t c = 0; c < feats.cols(); ++c)
                        ASSERT_EQ(mb.features.at(r, c), 0.0f);
                }
            }
        }
    }
}

TEST(MinibatchExtractor, MultiLabelTargetRowsGathered)
{
    const CsrGraph g =
        test::makeGraph(test::GraphShape::ErdosRenyi, 120, 960, 29);
    const NodeId n = g.numNodes();
    Rng rng(5);
    Matrix feats(n, 6);
    fillNormal(feats, rng, 0.0f, 1.0f);
    std::vector<std::uint32_t> labels(n);
    for (NodeId v = 0; v < n; ++v)
        labels[v] = v % 5;
    Matrix targets(n, 5);
    for (NodeId v = 0; v < n; ++v)
        targets.at(v, labels[v]) = 1.0f;

    SamplerConfig cfg;
    cfg.fanouts = {3};
    cfg.batchSize = 10;
    NeighborSampler s(g, cfg);
    MinibatchExtractor ex(s.nodeCapacity(), Aggregator::SageMean, feats,
                          labels, &targets);

    SampleBatch b;
    sample::Minibatch mb;
    s.sample(0, 0, firstSeeds(s, 0, allNodes(g), 10), b);
    ex.extract(b, mb);

    ASSERT_EQ(mb.targets.rows(), s.nodeCapacity());
    for (NodeId r = 0; r < s.nodeCapacity(); ++r)
        for (std::size_t c = 0; c < 5; ++c)
            ASSERT_EQ(mb.targets.at(r, c),
                      r < mb.numNodes
                          ? targets.at(mb.globalIds[r], c)
                          : 0.0f);
}

TEST(MinibatchExtractor, SaturatedBallEqualsExtractSubgraphOracle)
{
    // Fanouts >= max degree and more hops than the diameter: every
    // reachable vertex is expanded with ALL its neighbors, so the
    // sampled block must equal the induced subgraph over the component.
    const CsrGraph g =
        test::makeGraph(test::GraphShape::Community, 150, 900, 41);
    SamplerConfig cfg;
    const std::uint32_t full =
        static_cast<std::uint32_t>(g.maxDegree());
    cfg.fanouts = {full, full, full, full, full, full, full, full};
    cfg.batchSize = 4;
    NeighborSampler s(g, cfg);

    SampleBatch b;
    s.sample(0, 0, {0, 1, 2, 3}, b);

    // Saturation check: the last hop discovered nothing new, so every
    // node in the ball is expanded (no empty frontier rows left).
    std::vector<NodeId> ids;
    const CsrGraph oracle = extractSubgraph(g, b.nodes, &ids);
    ASSERT_EQ(ids, b.nodes);
    ASSERT_EQ(oracle.numNodes(), b.numNodes());
    ASSERT_EQ(oracle.numEdges(), b.numEdges());
    for (std::size_t r = 0; r <= b.numNodes(); ++r)
        ASSERT_EQ(oracle.rowPtr()[r], b.rowPtr[r]);
    for (std::size_t e = 0; e < b.numEdges(); ++e)
        ASSERT_EQ(oracle.colIdx()[e], b.colIdx[e]);
}

TEST(MinibatchExtractor, RowSetsFollowTheHopRecord)
{
    // hop[r] is the BFS distance of row r from the seeds over the
    // sampled block, every row at the last hop is unexpanded, and layer
    // l computes the rows at hop <= L - l and aggregates into those at
    // hop <= L - 1 - l, so each layer's targets are the next layer's
    // compute rows and the last layer's targets are the seeds.
    const CsrGraph g =
        test::makeGraph(test::GraphShape::PowerLaw, 400, 3200, 29);
    Matrix feats(g.numNodes(), 4);
    const std::vector<std::uint32_t> labels(g.numNodes(), 0);
    for (const std::uint32_t layers : {1u, 2u, 3u}) {
        SCOPED_TRACE("layers=" + std::to_string(layers));
        SamplerConfig cfg;
        cfg.fanouts.assign(layers, 3);
        cfg.batchSize = 8;
        NeighborSampler s(g, cfg);
        MinibatchExtractor ex(s.nodeCapacity(), Aggregator::SageMean,
                              feats, labels);
        SampleBatch b;
        sample::Minibatch mb;
        for (std::uint32_t batch = 0; batch < 3; ++batch) {
            s.sample(0, batch, firstSeeds(s, batch, allNodes(g), 8), b);
            ex.extract(b, mb);
            ASSERT_EQ(b.hops, layers);
            ASSERT_EQ(b.hop.size(), b.numNodes());

            std::vector<std::uint32_t> dist(b.numNodes(), ~0u);
            std::vector<NodeId> queue;
            for (NodeId r = 0; r < b.numNodes(); ++r)
                if (std::binary_search(b.seeds.begin(), b.seeds.end(),
                                       b.nodes[r])) {
                    dist[r] = 0;
                    queue.push_back(r);
                }
            for (std::size_t q = 0; q < queue.size(); ++q)
                for (EdgeId e = b.rowPtr[queue[q]];
                     e < b.rowPtr[queue[q] + 1]; ++e)
                    if (dist[b.colIdx[e]] == ~0u) {
                        dist[b.colIdx[e]] = dist[queue[q]] + 1;
                        queue.push_back(b.colIdx[e]);
                    }
            EXPECT_EQ(b.hop, dist);
            for (NodeId r = 0; r < b.numNodes(); ++r) {
                if (b.hop[r] == layers) {
                    EXPECT_EQ(b.rowPtr[r + 1], b.rowPtr[r]) << r;
                }
            }

            ASSERT_EQ(mb.rows.size(), layers);
            for (std::uint32_t l = 0; l < layers; ++l) {
                std::vector<NodeId> compute, target;
                for (NodeId r = 0; r < b.numNodes(); ++r) {
                    if (b.hop[r] <= layers - l)
                        compute.push_back(r);
                    if (b.hop[r] + 1 <= layers - l)
                        target.push_back(r);
                }
                EXPECT_EQ(mb.rows[l].compute, compute) << l;
                EXPECT_EQ(mb.rows[l].target, target) << l;
                if (l + 1 < layers) {
                    EXPECT_EQ(mb.rows[l].target, mb.rows[l + 1].compute);
                }
            }
            ASSERT_EQ(mb.rows.back().target.size(), mb.numSeeds);
            for (const NodeId r : mb.rows.back().target)
                EXPECT_EQ(mb.trainMask[r], 1) << r;
        }
    }
}

TEST(MinibatchExtractor, WarmSampleAndExtractAllocateOnlyThePoolBatch)
{
    // A warm sample() + extract() pair makes no heap allocation at one
    // worker; at four, exactly one per multi-chunk parallelFor (the
    // pool's Batch, ParallelFor.WarmLoopsAllocateOnlyThePoolBatch):
    // the draw loop of every hop whose frontier spans several chunks,
    // and the feature gather. The same for every aggregator's edge
    // weights (GCN's count in-degrees into storage the graph keeps).
    ThreadGuard guard;
    const CsrGraph g =
        test::makeGraph(test::GraphShape::PowerLaw, 4000, 40000, 31);
    Rng rng(37);
    Matrix feats(g.numNodes(), 16);
    fillNormal(feats, rng, 0.0f, 1.0f);
    const std::vector<std::uint32_t> labels(g.numNodes(), 1);
    SamplerConfig cfg;
    cfg.fanouts = {5, 5};
    cfg.batchSize = 256;
    NeighborSampler s(g, cfg);
    const std::vector<NodeId> seeds = firstSeeds(s, 0, allNodes(g), 256);
    for (const Aggregator agg :
         {Aggregator::SageMean, Aggregator::Gcn, Aggregator::Gin}) {
        MinibatchExtractor ex(s.nodeCapacity(), agg, feats, labels);
        SampleBatch b;
        sample::Minibatch mb;
        const auto pair = [&] {
            s.sample(0, 0, seeds, b);
            ex.extract(b, mb);
        };
        for (const std::uint32_t threads : {1u, 4u}) {
            setDefaultThreads(threads);
            pair(); // warm: pool workers, scratch and slot storage exist
            std::uint64_t want = 0;
            if (threads > 1) {
                for (std::uint32_t h = 0; h < b.hops; ++h) {
                    const auto frontier = static_cast<std::size_t>(
                        std::count(b.hop.begin(), b.hop.end(), h));
                    want += chunkCount(0, frontier, 64, threads) > 1 ? 1 : 0;
                }
                want += chunkCount(0, s.nodeCapacity(), 128, threads) > 1;
                ASSERT_EQ(want, 3u); // every loop spans several chunks
            }
            EXPECT_EQ(test::heapAllocsOf(pair), want)
                << static_cast<int>(agg) << ", " << threads << " workers";
        }
    }
}

} // namespace
} // namespace maxk
