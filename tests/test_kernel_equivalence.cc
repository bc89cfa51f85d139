/**
 * @file
 * Cross-kernel equivalence harness. The paper's central functional claim
 * is that MaxK sparsity changes the *cost* of aggregation, never its
 * *result*: every SpMM variant must compute the same Y = A * X, the
 * CBSR SpGEMM forward must equal dense aggregation of the decompressed
 * activations, and the SSpMM backward must be the pattern-gather of the
 * dense transposed aggregation. This suite sweeps all of those pairwise
 * agreements across graph shapes × feature dims × k values, instead of
 * the single-kernel spot checks the per-kernel suites perform.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <tuple>

#include "common/rng.hh"
#include "core/linear_backward_cbsr.hh"
#include "core/maxk.hh"
#include "graph/formats/formats.hh"
#include "graph/registry.hh"
#include "core/spgemm_forward.hh"
#include "core/sspmm_backward.hh"
#include "graph/edge_groups.hh"
#include "kernels/registry.hh"
#include "kernels/spmm_gnna.hh"
#include "kernels/spmm_outer_naive.hh"
#include "kernels/spmm_ref.hh"
#include "kernels/spmm_row_wise.hh"
#include "nn/gnn_layer.hh"
#include "nn/linear.hh"
#include "support/comparators.hh"
#include "support/fixtures.hh"
#include "support/oracles.hh"
#include "tensor/init.hh"
#include "tensor/ops.hh"

namespace maxk
{
namespace
{

using test::GraphShape;

constexpr Float kTol = 1e-3f;

/** (graph shape, feature dim, k). */
using SweepParam = std::tuple<GraphShape, std::uint32_t, std::uint32_t>;

std::string
sweepName(const ::testing::TestParamInfo<SweepParam> &info)
{
    const auto [shape, dim, k] = info.param;
    return test::graphShapeName(shape) + "_dim" + std::to_string(dim) +
           "_k" + std::to_string(k);
}

class KernelEquivalence : public ::testing::TestWithParam<SweepParam>
{
  protected:
    void
    SetUp() override
    {
        const auto [shape, dim, k] = GetParam();
        const std::uint64_t seed =
            1000 + static_cast<std::uint64_t>(shape) * 100 + dim * 7 + k;
        Rng rng(seed);
        g_ = test::makeGraph(shape, 128, 1100, rng);
        part_ = EdgeGroupPartition::build(g_, 16);
        x_.resize(g_.numNodes(), dim);
        fillNormal(x_, rng, 0.0f, 1.0f);
        opt_.simulateCaches = false;
        k_ = k;
    }

    CsrGraph g_;
    EdgeGroupPartition part_;
    Matrix x_;
    SimOptions opt_;
    std::uint32_t k_ = 0;
};

/** All forward SpMM variants agree pairwise on dense inputs. */
TEST_P(KernelEquivalence, DenseSpmmVariantsAgreePairwise)
{
    Matrix y_ref, y_row, y_gnna;
    spmmReference(g_, x_, y_ref);
    spmmRowWise(g_, x_, y_row, opt_);
    spmmGnna(g_, part_, x_, y_gnna, opt_);

    EXPECT_TRUE(test::matricesNear(y_row, y_ref, kTol));
    EXPECT_TRUE(test::matricesNear(y_gnna, y_ref, kTol));
    EXPECT_TRUE(test::matricesNear(y_row, y_gnna, kTol));
}

/**
 * Registry sweep: every registered variant — enumerated, not named —
 * reproduces its reference bitwise (`equals`, not "near") at every
 * thread count. Forward variants must equal spmmReference, transposed
 * ones spmmTransposedReference.
 */
TEST_P(KernelEquivalence, RegistryVariantsBitwiseMatchReferenceAcrossThreads)
{
    Matrix y_ref, y_tref;
    spmmReference(g_, x_, y_ref);
    spmmTransposedReference(g_, x_, y_tref);

    for (const kernels::KernelVariant &v : kernels::kernelRegistry()) {
        const Matrix &want = v.transposed ? y_tref : y_ref;
        for (const std::uint32_t threads : {1u, 4u, 8u}) {
            SimOptions opt = opt_;
            opt.threads = threads;
            Matrix y;
            v.run(g_, x_, y, opt);
            EXPECT_TRUE(y.equals(want))
                << v.name << " (simulated) at threads=" << threads;
        }
    }
}

/** The outer-product kernel computes A^T X: it must agree both with the
 *  transposed reference and with the row-wise kernel run on an
 *  explicitly transposed graph. */
TEST_P(KernelEquivalence, OuterProductMatchesBothTransposePaths)
{
    Matrix y_outer, y_t, y_row_t;
    spmmOuterNaive(g_, x_, y_outer, opt_);
    spmmTransposedReference(g_, x_, y_t);
    const CsrGraph gt = g_.transposed();
    spmmRowWise(gt, x_, y_row_t, opt_);

    EXPECT_TRUE(test::matricesNear(y_outer, y_t, kTol));
    EXPECT_TRUE(test::matricesNear(y_outer, y_row_t, kTol));
}

/** SpGEMM forward equals every dense kernel applied to decompress(h). */
TEST_P(KernelEquivalence, SpgemmForwardMatchesAllDenseKernels)
{
    const MaxKResult mk = maxkCompress(x_, k_, opt_);
    Matrix y, y_oracle, dense, y_row, y_fast;
    spgemmForward(g_, part_, mk.cbsr, y, opt_);

    test::spgemmOracle(g_, mk.cbsr, y_oracle);
    EXPECT_TRUE(test::matricesNear(y, y_oracle, kTol));

    mk.cbsr.decompress(dense);
    spmmRowWise(g_, dense, y_row, opt_);
    EXPECT_TRUE(test::matricesNear(y, y_row, kTol));

    nn::aggregateCbsr(g_, mk.cbsr, y_fast);
    EXPECT_TRUE(test::matricesNear(y, y_fast, kTol));
}

/** SSpMM backward equals the pattern-gather of both A^T-aggregation
 *  paths (the dense transposed reference and the outer-product kernel). */
TEST_P(KernelEquivalence, SspmmBackwardMatchesTransposedKernels)
{
    const MaxKResult mk = maxkCompress(x_, k_, opt_);
    Rng grad_rng(77);
    Matrix dxl(g_.numNodes(), x_.cols());
    fillNormal(dxl, grad_rng, 0.0f, 1.0f);

    CbsrMatrix dxs;
    dxs.adoptPattern(mk.cbsr);
    sspmmBackward(g_, part_, dxl, dxs, opt_);

    Matrix dense_t;
    test::sspmmOracle(g_, dxl, dense_t);
    EXPECT_TRUE(test::cbsrMatchesDenseGather(dxs, dense_t, kTol));

    Matrix y_outer;
    spmmOuterNaive(g_, dxl, y_outer, opt_);
    EXPECT_TRUE(test::cbsrMatchesDenseGather(dxs, y_outer, kTol));
}

/** CBSR data segments agree bitwise (pattern agreement via
 *  cbsrSamePattern). */
::testing::AssertionResult
cbsrSameData(const CbsrMatrix &a, const CbsrMatrix &b)
{
    if (a.rows() != b.rows() || a.dimK() != b.dimK())
        return ::testing::AssertionFailure() << "shape mismatch";
    for (NodeId r = 0; r < a.rows(); ++r)
        for (std::uint32_t kk = 0; kk < a.dimK(); ++kk)
            if (a.dataRow(r)[kk] != b.dataRow(r)[kk])
                return ::testing::AssertionFailure()
                       << "data mismatch at row " << r << " slot " << kk;
    return ::testing::AssertionSuccess();
}

/**
 * Fused MaxK->SpGEMM: one launch must reproduce the unfused pipeline
 * (maxkCompress then spgemmForward) bitwise — output, emitted pattern
 * and data — while moving strictly less modeled DRAM traffic (the
 * sp_data round-trip is the fusion's whole point, ISSUE 4).
 */
TEST_P(KernelEquivalence, FusedForwardBitwiseMatchesUnfusedPipeline)
{
    const MaxKResult mk = maxkCompress(x_, k_, opt_);
    Matrix y_unfused;
    const auto spgemm_stats =
        spgemmForward(g_, part_, mk.cbsr, y_unfused, opt_);

    CbsrMatrix fused_cbsr;
    Matrix y_fused;
    const auto fused_stats =
        spgemmForwardFused(g_, part_, x_, k_, fused_cbsr, y_fused, opt_);

    EXPECT_TRUE(y_fused.equals(y_unfused)); // bitwise, not near
    EXPECT_TRUE(test::cbsrSamePattern(fused_cbsr, mk.cbsr));
    EXPECT_TRUE(cbsrSameData(fused_cbsr, mk.cbsr));

    const auto unfused_total = [&] {
        gpusim::PhaseStats t = mk.stats.aggregate();
        t.accumulate(spgemm_stats.aggregate());
        return t;
    }();
    const auto fused_total = fused_stats.aggregate();
    EXPECT_LT(fused_total.dramReadBytes + fused_total.dramWriteBytes,
              unfused_total.dramReadBytes + unfused_total.dramWriteBytes);
    EXPECT_LT(fused_stats.totalSeconds,
              mk.stats.totalSeconds + spgemm_stats.totalSeconds);
}

/**
 * CBSR-aware linear backward: dW/db/dX computed straight from
 * sp_data/sp_index must equal — bitwise — the dense kernels applied to
 * the decompressed gradient (the path GnnLayer::backward used to take).
 */
TEST_P(KernelEquivalence, LinearBackwardCbsrBitwiseMatchesDense)
{
    const std::size_t in_dim = 24;
    Rng rng(90210 + k_);
    Matrix x(g_.numNodes(), in_dim);
    fillNormal(x, rng, 0.0f, 1.0f);
    // Plant exact zeros in X: the dense gemmTransA skips them, the CBSR
    // kernel must skip them identically.
    for (NodeId r = 0; r < g_.numNodes(); r += 3)
        x.at(r, r % in_dim) = 0.0f;
    Matrix w(in_dim, x_.cols());
    fillNormal(w, rng, 0.0f, 0.5f);

    // A CBSR gradient with realistic pattern + values.
    Matrix gsrc(g_.numNodes(), x_.cols());
    fillNormal(gsrc, rng, 0.0f, 1.0f);
    const MaxKResult mk = maxkCompress(gsrc, k_, opt_);

    Matrix dense;
    mk.cbsr.decompress(dense);

    Matrix dw_dense, db_dense, dx_dense, wt;
    gemmTransA(x, dense, dw_dense);
    columnSums(dense, db_dense);
    gemmTransB(dense, w, wt, dx_dense);

    Matrix dw, db, dx;
    cbsrGemmTransA(x, mk.cbsr, dw);
    cbsrColumnSums(mk.cbsr, db);
    cbsrGemmTransB(mk.cbsr, w, wt, dx);

    EXPECT_TRUE(dw.equals(dw_dense));
    EXPECT_TRUE(db.equals(db_dense));
    EXPECT_TRUE(dx.equals(dx_dense));
}

/** Gradient-mask consistency: the backward CBSR inherits the forward
 *  pattern exactly, and that pattern is the dense MaxK backward mask. */
TEST_P(KernelEquivalence, GradientMaskConsistentWithForwardPattern)
{
    const MaxKResult mk = maxkCompress(x_, k_, opt_);

    CbsrMatrix dxs;
    dxs.adoptPattern(mk.cbsr);
    ASSERT_TRUE(test::cbsrSamePattern(dxs, mk.cbsr));

    Matrix ones(x_.rows(), x_.cols(), 1.0f);
    Matrix mask;
    maxkBackwardDense(x_, k_, ones, mask);
    for (NodeId r = 0; r < mk.cbsr.rows(); ++r) {
        std::set<std::uint32_t> live;
        for (std::uint32_t c = 0; c < x_.cols(); ++c)
            if (mask.at(r, c) != 0.0f)
                live.insert(c);
        std::set<std::uint32_t> pattern;
        for (std::uint32_t kk = 0; kk < mk.cbsr.dimK(); ++kk)
            pattern.insert(mk.cbsr.indexAt(r, kk));
        ASSERT_EQ(live, pattern) << "row " << r;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeDimK, KernelEquivalence,
    ::testing::Combine(::testing::Values(GraphShape::ErdosRenyi,
                                         GraphShape::PowerLaw,
                                         GraphShape::Star,
                                         GraphShape::Ring,
                                         GraphShape::Zipf),
                       ::testing::Values(16u, 33u, 64u),
                       ::testing::Values(4u, 8u, 16u)),
    sweepName);

/** Aggregator weights must not break any equivalence: repeat the core
 *  agreements under GCN and GIN weighting on the power-law twin. */
class AggregatorEquivalence
    : public ::testing::TestWithParam<Aggregator>
{
};

TEST_P(AggregatorEquivalence, AllKernelsAgreeUnderWeighting)
{
    Rng rng(4242);
    CsrGraph g =
        test::makeGraph(GraphShape::PowerLaw, 128, 1500, rng, GetParam());
    const auto part = EdgeGroupPartition::build(g, 32);
    Matrix x(g.numNodes(), 48);
    fillNormal(x, rng, 0.0f, 1.0f);
    SimOptions opt;
    opt.simulateCaches = false;

    Matrix y_ref, y_row, y_gnna;
    spmmReference(g, x, y_ref);
    spmmRowWise(g, x, y_row, opt);
    spmmGnna(g, part, x, y_gnna, opt);
    EXPECT_TRUE(test::matricesNear(y_row, y_ref, kTol));
    EXPECT_TRUE(test::matricesNear(y_gnna, y_ref, kTol));

    const MaxKResult mk = maxkCompress(x, 12, opt);
    Matrix y, y_oracle;
    spgemmForward(g, part, mk.cbsr, y, opt);
    test::spgemmOracle(g, mk.cbsr, y_oracle);
    EXPECT_TRUE(test::matricesNear(y, y_oracle, kTol));

    CbsrMatrix dxs;
    dxs.adoptPattern(mk.cbsr);
    sspmmBackward(g, part, x, dxs, opt);
    Matrix dense_t;
    test::sspmmOracle(g, x, dense_t);
    EXPECT_TRUE(test::cbsrMatchesDenseGather(dxs, dense_t, kTol));
}

INSTANTIATE_TEST_SUITE_P(Weights, AggregatorEquivalence,
                         ::testing::Values(Aggregator::SageMean,
                                           Aggregator::Gcn,
                                           Aggregator::Gin));

/**
 * Real-format inputs: the bundled karate fixture enters through the
 * ingestion subsystem (edge list → symmetrised CSR) and every kernel
 * variant must agree on it exactly as on the generator graphs — the
 * loaders feed the same CsrGraph substrate, so sparsity-changes-cost-
 * never-results extends to on-disk workloads.
 */
class DiskGraphEquivalence : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const std::string path =
            std::string(MAXK_TEST_DATA_DIR) + "/karate.txt";
        formats::EdgeListOptions elopt;
        elopt.symmetrize = true;
        auto loaded = formats::loadAnyGraph(path, elopt);
        ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
        g_ = std::move(loaded.value());
        ASSERT_EQ(g_.numNodes(), 34u);
        ASSERT_EQ(g_.numEdges(), 156u);
        g_.setAggregatorWeights(Aggregator::SageMean);
        part_ = EdgeGroupPartition::build(g_, 8);
        Rng rng(31337);
        x_.resize(g_.numNodes(), 32);
        fillNormal(x_, rng, 0.0f, 1.0f);
        opt_.simulateCaches = false;
    }

    CsrGraph g_;
    EdgeGroupPartition part_;
    Matrix x_;
    SimOptions opt_;
};

TEST_F(DiskGraphEquivalence, AllSpmmVariantsAgree)
{
    Matrix y_ref, y_row, y_gnna;
    spmmReference(g_, x_, y_ref);
    spmmRowWise(g_, x_, y_row, opt_);
    spmmGnna(g_, part_, x_, y_gnna, opt_);
    EXPECT_TRUE(test::matricesNear(y_row, y_ref, kTol));
    EXPECT_TRUE(test::matricesNear(y_gnna, y_ref, kTol));

    Matrix y_outer, y_t;
    spmmOuterNaive(g_, x_, y_outer, opt_);
    spmmTransposedReference(g_, x_, y_t);
    EXPECT_TRUE(test::matricesNear(y_outer, y_t, kTol));

    // And the full registry, bitwise, on the ingested graph.
    for (const kernels::KernelVariant &v : kernels::kernelRegistry()) {
        Matrix y;
        v.run(g_, x_, y, opt_);
        EXPECT_TRUE(y.equals(v.transposed ? y_t : y_ref)) << v.name;
    }
}

TEST_F(DiskGraphEquivalence, SpgemmAndSspmmMatchOracles)
{
    const MaxKResult mk = maxkCompress(x_, 8, opt_);
    Matrix y, y_oracle;
    spgemmForward(g_, part_, mk.cbsr, y, opt_);
    test::spgemmOracle(g_, mk.cbsr, y_oracle);
    EXPECT_TRUE(test::matricesNear(y, y_oracle, kTol));

    CbsrMatrix dxs;
    dxs.adoptPattern(mk.cbsr);
    sspmmBackward(g_, part_, x_, dxs, opt_);
    Matrix dense_t;
    test::sspmmOracle(g_, x_, dense_t);
    EXPECT_TRUE(test::cbsrMatchesDenseGather(dxs, dense_t, kTol));
}

TEST_F(DiskGraphEquivalence, FusedForwardMatchesUnfusedOnDiskGraph)
{
    const MaxKResult mk = maxkCompress(x_, 8, opt_);
    Matrix y_unfused;
    spgemmForward(g_, part_, mk.cbsr, y_unfused, opt_);

    CbsrMatrix fused_cbsr;
    Matrix y_fused;
    spgemmForwardFused(g_, part_, x_, 8, fused_cbsr, y_fused, opt_);
    EXPECT_TRUE(y_fused.equals(y_unfused));
    EXPECT_TRUE(test::cbsrSamePattern(fused_cbsr, mk.cbsr));

    // The CBSR-aware linear backward agrees bitwise on the disk graph
    // as well: same substrate, same arithmetic (see the sweep test).
    Matrix w(16, x_.cols());
    Rng rng(5150);
    fillNormal(w, rng, 0.0f, 0.5f);
    Matrix xin(g_.numNodes(), 16);
    fillNormal(xin, rng, 0.0f, 1.0f);
    Matrix dense;
    mk.cbsr.decompress(dense);
    Matrix dw_dense, dx_dense, dw, dx, wt;
    gemmTransA(xin, dense, dw_dense);
    gemmTransB(dense, w, wt, dx_dense);
    cbsrGemmTransA(xin, mk.cbsr, dw);
    cbsrGemmTransB(mk.cbsr, w, wt, dx);
    EXPECT_TRUE(dw.equals(dw_dense));
    EXPECT_TRUE(dx.equals(dx_dense));
}

TEST_F(DiskGraphEquivalence, BinaryReloadIsBitwiseEquivalent)
{
    // Round-trip the loaded graph through the .maxkb container and
    // require bitwise-identical kernel output, not merely "near".
    const std::string path = ::testing::TempDir() + "maxk_equiv.maxkb";
    ASSERT_TRUE(formats::saveBinaryCsr(g_, path));
    auto reloaded = formats::loadBinaryCsr(path);
    ASSERT_TRUE(reloaded.hasValue()) << reloaded.error().describe();
    ASSERT_EQ(reloaded->rowPtr(), g_.rowPtr());
    ASSERT_EQ(reloaded->colIdx(), g_.colIdx());
    ASSERT_EQ(reloaded->values(), g_.values());

    Matrix y_a, y_b;
    spmmRowWise(g_, x_, y_a, opt_);
    spmmRowWise(reloaded.value(), x_, y_b, opt_);
    for (NodeId r = 0; r < g_.numNodes(); ++r)
        for (std::size_t c = 0; c < y_a.cols(); ++c)
            ASSERT_EQ(y_a.at(r, c), y_b.at(r, c));
}

TEST_F(DiskGraphEquivalence, RegistryResolvedDatasetAgreesAcrossVariants)
{
    // End-to-end acceptance path: the fixture masquerades as a
    // registry dataset via MAXK_DATASET_DIR and flows through
    // materializeGraph into every SpMM variant.
    const std::string dir = ::testing::TempDir() + "maxk_equiv_dsets";
    ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);
    ASSERT_TRUE(formats::saveBinaryCsr(g_, dir + "/pubmed.maxkb"));

    const auto info = findDataset("pubmed");
    ASSERT_TRUE(info.has_value());
    Rng rng(11);
    CsrGraph g;
    {
        // RAII: a leaked dataset dir would re-route every later
        // registry call in this binary to the temp graph.
        test::ScopedEnv env(kDatasetDirEnv, dir);
        g = materializeGraph(*info, rng);
    }
    ASSERT_EQ(g.numNodes(), g_.numNodes());

    const auto part = EdgeGroupPartition::build(g, 8);
    Matrix y_ref, y_row, y_gnna;
    spmmReference(g, x_, y_ref);
    spmmRowWise(g, x_, y_row, opt_);
    spmmGnna(g, part, x_, y_gnna, opt_);
    EXPECT_TRUE(test::matricesNear(y_row, y_ref, kTol));
    EXPECT_TRUE(test::matricesNear(y_gnna, y_ref, kTol));
}

} // namespace
} // namespace maxk
