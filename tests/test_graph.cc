/**
 * @file
 * Unit tests for src/graph: CSR construction invariants, aggregator
 * weighting, transposition, generators' structural properties, stats,
 * and text I/O round-tripping.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/rng.hh"
#include "core/transpose_gather.hh"
#include "graph/csr.hh"
#include "graph/formats/text_csr.hh"
#include "graph/generators.hh"
#include "graph/stats.hh"
#include "tensor/init.hh"

namespace maxk
{
namespace
{

CsrGraph
triangleGraph()
{
    // 0-1, 1-2, 2-0 symmetric, plus self loops.
    return CsrGraph::fromEdges(3, {{0, 1}, {1, 2}, {2, 0}}, true, true);
}

TEST(Csr, FromEdgesBuildsValidCsr)
{
    const CsrGraph g = triangleGraph();
    EXPECT_TRUE(g.validate());
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.numEdges(), 9u); // 6 directed + 3 self loops
}

TEST(Csr, DuplicateEdgesCollapsed)
{
    const CsrGraph g = CsrGraph::fromEdges(
        2, {{0, 1}, {0, 1}, {0, 1}}, false, false);
    EXPECT_EQ(g.numEdges(), 1u);
}

TEST(Csr, SymmetrizeInsertsReverseEdges)
{
    const CsrGraph g =
        CsrGraph::fromEdges(3, {{0, 1}}, true, false);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_TRUE(g.structureSymmetric());
}

TEST(Csr, SelfLoopsAdded)
{
    const CsrGraph g = CsrGraph::fromEdges(4, {}, false, true);
    EXPECT_EQ(g.numEdges(), 4u);
    for (NodeId v = 0; v < 4; ++v) {
        EXPECT_EQ(g.degree(v), 1u);
        EXPECT_EQ(g.colIdx()[g.rowPtr()[v]], v);
    }
}

TEST(Csr, ColumnsSortedWithinRows)
{
    Rng rng(3);
    const CsrGraph g = erdosRenyi(100, 500, rng);
    EXPECT_TRUE(g.validate());
}

TEST(Csr, DegreesConsistent)
{
    const CsrGraph g = triangleGraph();
    EdgeId sum = 0;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        sum += g.degree(v);
    EXPECT_EQ(sum, g.numEdges());
    EXPECT_DOUBLE_EQ(g.avgDegree(), 3.0);
    EXPECT_EQ(g.maxDegree(), 3u);
}

TEST(Csr, FromCsrRejectsBadRowPtr)
{
    EXPECT_DEATH(CsrGraph::fromCsr(2, {0, 2, 1}, {0, 1}), "invalid CSR");
}

TEST(Csr, FromCsrDefaultsValuesToOne)
{
    const CsrGraph g = CsrGraph::fromCsr(2, {0, 1, 2}, {1, 0});
    EXPECT_EQ(g.values()[0], 1.0f);
    EXPECT_EQ(g.values()[1], 1.0f);
}

TEST(Csr, SageWeightsAreInverseDegree)
{
    CsrGraph g = triangleGraph();
    g.setAggregatorWeights(Aggregator::SageMean);
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        double row_sum = 0.0;
        for (EdgeId e = g.rowPtr()[v]; e < g.rowPtr()[v + 1]; ++e)
            row_sum += g.values()[e];
        EXPECT_NEAR(row_sum, 1.0, 1e-6); // mean aggregator rows sum to 1
    }
}

TEST(Csr, GcnWeightsSymmetricNormalised)
{
    CsrGraph g = triangleGraph();
    g.setAggregatorWeights(Aggregator::Gcn);
    // Every node has degree 3, so every weight is 1/3.
    for (Float v : g.values())
        EXPECT_NEAR(v, 1.0f / 3.0f, 1e-6f);
}

TEST(Csr, GinWeightsAllOnes)
{
    CsrGraph g = triangleGraph();
    g.setAggregatorWeights(Aggregator::Gin);
    for (Float v : g.values())
        EXPECT_EQ(v, 1.0f);
}

TEST(Csr, TransposeRoundTrip)
{
    Rng rng(5);
    const CsrGraph g = erdosRenyi(64, 300, rng, false);
    const CsrGraph tt = g.transposed().transposed();
    EXPECT_EQ(tt.rowPtr(), g.rowPtr());
    EXPECT_EQ(tt.colIdx(), g.colIdx());
    EXPECT_EQ(tt.values(), g.values());
}

TEST(Csr, TransposeMovesValues)
{
    CsrGraph g = CsrGraph::fromEdges(3, {{0, 1}, {0, 2}}, false, false);
    g.mutableValues()[0] = 5.0f; // edge 0->1
    g.mutableValues()[1] = 7.0f; // edge 0->2
    const CsrGraph t = g.transposed();
    // t has edges 1->0 (5.0) and 2->0 (7.0).
    EXPECT_EQ(t.degree(1), 1u);
    EXPECT_EQ(t.values()[t.rowPtr()[1]], 5.0f);
    EXPECT_EQ(t.values()[t.rowPtr()[2]], 7.0f);
}

TEST(Csr, DirectedGraphNotSymmetric)
{
    const CsrGraph g =
        CsrGraph::fromEdges(3, {{0, 1}, {1, 2}}, false, false);
    EXPECT_FALSE(g.structureSymmetric());
}

TEST(Csr, StorageBytesAccountsAllArrays)
{
    const CsrGraph g = triangleGraph();
    const Bytes expect = (3 + 1) * sizeof(EdgeId) +
                         9 * sizeof(NodeId) + 9 * sizeof(Float);
    EXPECT_EQ(g.storageBytes(), expect);
}

TEST(Generators, ErdosRenyiApproximatesTarget)
{
    Rng rng(7);
    const CsrGraph g = erdosRenyi(1000, 5000, rng);
    EXPECT_TRUE(g.validate());
    EXPECT_TRUE(g.structureSymmetric());
    // Symmetrised; some collisions removed. Self loops add 1000.
    EXPECT_GT(g.numEdges(), 8000u);
    EXPECT_LT(g.numEdges(), 12000u);
}

TEST(Generators, RmatIsHeavyTailed)
{
    Rng rng(11);
    const CsrGraph g = rmat(12, 120000, rng);
    EXPECT_TRUE(g.validate());
    const DegreeStats s = computeDegreeStats(g);
    // Power-law: max degree far above average, strong Gini skew.
    EXPECT_GT(s.skewRatio, 8.0);
    EXPECT_GT(s.gini, 0.35);
}

TEST(Generators, RmatEdgeCountNearTarget)
{
    Rng rng(13);
    const EdgeId target = 200000;
    const CsrGraph g = rmat(13, target, rng);
    EXPECT_GT(g.numEdges(), target / 2);
    EXPECT_LT(g.numEdges(), target * 2);
}

TEST(Generators, RmatSymmetric)
{
    Rng rng(17);
    const CsrGraph g = rmat(10, 20000, rng);
    EXPECT_TRUE(g.structureSymmetric());
}

TEST(Generators, SbmLabelsCoverAllBlocks)
{
    Rng rng(19);
    const auto sbm = stochasticBlockModel(600, 6, 12.0, 0.8, rng);
    EXPECT_EQ(sbm.labels.size(), 600u);
    std::vector<int> counts(6, 0);
    for (auto l : sbm.labels) {
        ASSERT_LT(l, 6u);
        ++counts[l];
    }
    for (int c : counts)
        EXPECT_EQ(c, 100);
}

TEST(Generators, SbmIsHomophilous)
{
    Rng rng(23);
    const auto sbm = stochasticBlockModel(2000, 4, 16.0, 0.8, rng);
    const CsrGraph &g = sbm.graph;
    EdgeId intra = 0, total = 0;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        for (EdgeId e = g.rowPtr()[v]; e < g.rowPtr()[v + 1]; ++e) {
            const NodeId u = g.colIdx()[e];
            if (u == v)
                continue; // self loops trivially intra
            ++total;
            intra += sbm.labels[u] == sbm.labels[v] ? 1 : 0;
        }
    }
    // Homophily well above the 1/4 chance level.
    EXPECT_GT(static_cast<double>(intra) / total, 0.6);
}

TEST(Generators, SbmAverageDegreeNearRequest)
{
    Rng rng(29);
    const auto sbm = stochasticBlockModel(3000, 5, 20.0, 0.7, rng);
    // Self loops add 1; collisions remove a few.
    EXPECT_NEAR(sbm.graph.avgDegree(), 21.0, 3.0);
}

TEST(Generators, RingLatticeIsRegular)
{
    const CsrGraph g = ringLattice(50, 6, false);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(g.degree(v), 6u);
    EXPECT_TRUE(g.structureSymmetric());
}

TEST(Generators, StarHasOneHub)
{
    const CsrGraph g = star(100, false);
    EXPECT_EQ(g.degree(0), 99u);
    for (NodeId v = 1; v < 100; ++v)
        EXPECT_EQ(g.degree(v), 1u);
    const DegreeStats s = computeDegreeStats(g);
    EXPECT_GT(s.skewRatio, 40.0);
}

TEST(Stats, UniformGraphHasZeroGini)
{
    const CsrGraph g = ringLattice(64, 4, false);
    const DegreeStats s = computeDegreeStats(g);
    EXPECT_NEAR(s.gini, 0.0, 1e-9);
    EXPECT_EQ(s.medianDegree, 4u);
    EXPECT_EQ(s.p99Degree, 4u);
}

TEST(Stats, DescribeMentionsKeyNumbers)
{
    const CsrGraph g = ringLattice(10, 2, false);
    const std::string d = describe(computeDegreeStats(g));
    EXPECT_NE(d.find("|V|=10"), std::string::npos);
    EXPECT_NE(d.find("|E|=20"), std::string::npos);
    EXPECT_NE(d.find("std="), std::string::npos);
    EXPECT_NE(d.find("dens="), std::string::npos);
    EXPECT_NE(d.find("empty="), std::string::npos);
}

TEST(Stats, ExtendedFieldsOnRegularGraph)
{
    const CsrGraph g = ringLattice(64, 4, false);
    const DegreeStats s = computeDegreeStats(g);
    EXPECT_NEAR(s.stdDegree, 0.0, 1e-12);
    EXPECT_NEAR(s.emptyRowFraction, 0.0, 1e-12);
    EXPECT_NEAR(s.density, 256.0 / (64.0 * 64.0), 1e-12);
}

TEST(Stats, ExtendedFieldsOnStar)
{
    const CsrGraph g = star(100, false);
    const DegreeStats s = computeDegreeStats(g);
    // Hub degree 99 against 99 leaves of degree 1: huge spread.
    EXPECT_GT(s.stdDegree, 5.0);
    EXPECT_NEAR(s.emptyRowFraction, 0.0, 1e-12);
    EXPECT_NEAR(s.density, 198.0 / (100.0 * 100.0), 1e-12);
}

TEST(Stats, EmptyRowFractionCountsIsolatedNodes)
{
    // Nodes 2 and 3 have no edges at all.
    const CsrGraph g =
        CsrGraph::fromEdges(4, {{0, 1}}, true, false);
    const DegreeStats s = computeDegreeStats(g);
    EXPECT_NEAR(s.emptyRowFraction, 0.5, 1e-12);
    EXPECT_NEAR(s.density, 2.0 / 16.0, 1e-12);
}

TEST(Generators, ZipfIsHubHeavy)
{
    Rng rng(37);
    const CsrGraph g = zipf(2000, 20000, 1.1, rng);
    EXPECT_TRUE(g.validate());
    EXPECT_TRUE(g.structureSymmetric());
    EXPECT_GT(g.numEdges(), 20000u / 2);
    EXPECT_LT(g.numEdges(), 20000u * 3);
    const DegreeStats s = computeDegreeStats(g);
    EXPECT_GT(s.skewRatio, 5.0);
    EXPECT_GT(s.gini, 0.25);
}

TEST(Generators, ZipfExponentControlsSkew)
{
    Rng rng_a(41), rng_b(41);
    const DegreeStats mild =
        computeDegreeStats(zipf(1500, 12000, 0.6, rng_a));
    const DegreeStats steep =
        computeDegreeStats(zipf(1500, 12000, 1.4, rng_b));
    EXPECT_GT(steep.gini, mild.gini);
    EXPECT_GT(steep.maxDegree, mild.maxDegree);
}

TEST(StatsCache, DegreeStatsBuildOnceAndMatchFresh)
{
    Rng rng(43);
    const CsrGraph g = erdosRenyi(80, 400, rng);
    EXPECT_EQ(g.degreeStatsBuildCount(), 0u);
    const DegreeStats &s1 = g.degreeStatsCached();
    EXPECT_EQ(g.degreeStatsBuildCount(), 1u);
    const DegreeStats &s2 = g.degreeStatsCached();
    EXPECT_EQ(&s1, &s2); // same object, not an equal rebuild
    EXPECT_EQ(g.degreeStatsBuildCount(), 1u);

    const DegreeStats fresh = computeDegreeStats(g);
    EXPECT_EQ(s1.avgDegree, fresh.avgDegree);
    EXPECT_EQ(s1.gini, fresh.gini);
    EXPECT_EQ(s1.stdDegree, fresh.stdDegree);
    EXPECT_EQ(s1.density, fresh.density);
    EXPECT_EQ(s1.emptyRowFraction, fresh.emptyRowFraction);
}

TEST(GraphIo, SaveLoadRoundTrip)
{
    Rng rng(31);
    CsrGraph g = erdosRenyi(40, 120, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    const std::string path = ::testing::TempDir() + "maxk_test_graph.csr";
    ASSERT_TRUE(formats::saveTextCsr(g, path));
    const GraphResult loaded = formats::loadTextCsr(path);
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_EQ(loaded->numNodes(), g.numNodes());
    EXPECT_EQ(loaded->rowPtr(), g.rowPtr());
    EXPECT_EQ(loaded->colIdx(), g.colIdx());
    ASSERT_EQ(loaded->values().size(), g.values().size());
    for (std::size_t i = 0; i < g.values().size(); ++i)
        EXPECT_NEAR(loaded->values()[i], g.values()[i], 1e-5f);
    std::remove(path.c_str());
}

TEST(GraphIo, SaveWithoutValuesLoadsOnes)
{
    const CsrGraph g = ringLattice(8, 2, false);
    const std::string path = ::testing::TempDir() + "maxk_test_graph_nv.csr";
    ASSERT_TRUE(formats::saveTextCsr(g, path, false));
    const GraphResult loaded = formats::loadTextCsr(path);
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    for (Float v : loaded->values())
        EXPECT_EQ(v, 1.0f);
    std::remove(path.c_str());
}

TEST(GraphIo, LoadMissingFileIsOpenFailed)
{
    const GraphResult loaded =
        formats::loadTextCsr("/tmp/definitely_missing_maxk.csr");
    ASSERT_FALSE(loaded.hasValue());
    EXPECT_EQ(loaded.error().code, IoErrorCode::OpenFailed);
    EXPECT_NE(loaded.error().message.find("cannot open"), std::string::npos)
        << loaded.error().describe();
}

TEST(TransposeCache, SingleBuildIsReused)
{
    Rng rng(5);
    CsrGraph g = erdosRenyi(60, 240, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    EXPECT_EQ(g.transposeBuildCount(), 0u);

    const CsrGraph &t1 = g.transposeCached();
    EXPECT_EQ(g.transposeBuildCount(), 1u);
    const CsrGraph &t2 = g.transposeCached();
    EXPECT_EQ(&t1, &t2); // same object, not an equal rebuild
    EXPECT_EQ(g.transposeBuildCount(), 1u);

    const CsrGraph fresh = g.transposed();
    EXPECT_EQ(t1.rowPtr(), fresh.rowPtr());
    EXPECT_EQ(t1.colIdx(), fresh.colIdx());
    EXPECT_EQ(t1.values(), fresh.values());
}

TEST(TransposeCache, InvalidatedByValueMutation)
{
    Rng rng(6);
    CsrGraph g = erdosRenyi(40, 160, rng);
    g.transposeCached();
    EXPECT_EQ(g.transposeBuildCount(), 1u);

    g.setAggregatorWeights(Aggregator::Gcn);
    const CsrGraph &t = g.transposeCached();
    EXPECT_EQ(g.transposeBuildCount(), 2u);
    EXPECT_EQ(t.values(), g.transposed().values());

    g.mutableValues()[0] = 42.0f;
    EXPECT_EQ(g.transposeCached().values(), g.transposed().values());
    EXPECT_EQ(g.transposeBuildCount(), 3u);
}

TEST(TransposeCache, ScatterShapedGatherPathsBuildOnce)
{
    // The ROADMAP PR 2 follow-up: repeated backward-shaped launches
    // must not rebuild A^T per call.
    Rng rng(7);
    CsrGraph g = erdosRenyi(48, 200, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    Matrix x(g.numNodes(), 8);
    fillNormal(x, rng, 0.0f, 1.0f);

    Matrix out1(g.numNodes(), 8, 0.0f), out2(g.numNodes(), 8, 0.0f);
    gatherTransposedDense(g, x, out1);
    gatherTransposedDense(g, x, out2);
    EXPECT_EQ(g.transposeBuildCount(), 1u);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        for (std::size_t d = 0; d < 8; ++d)
            EXPECT_EQ(out1.at(v, d), out2.at(v, d));
}

} // namespace
} // namespace maxk
