/**
 * @file
 * Tests for GnnLayer: forward composition against manual references for
 * all three model kinds and both nonlinearity paths, plus end-to-end
 * numerical gradient checks through the full layer (the strongest
 * evidence that the MaxK/SSpMM backward is the true adjoint of the
 * SpGEMM forward).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hh"
#include "core/maxk.hh"
#include "graph/generators.hh"
#include "kernels/spmm_ref.hh"
#include "nn/gnn_layer.hh"
#include "nn/model.hh"
#include "support/comparators.hh"
#include "support/fixtures.hh"
#include "tensor/init.hh"
#include "tensor/ops.hh"

namespace maxk::nn
{
namespace
{

struct Fixture
{
    CsrGraph g;
    Matrix x;
    Rng rng{99};

    explicit Fixture(GnnKind kind, NodeId n = 30, std::size_t dim = 8)
    {
        Rng gen(21);
        g = maxk::test::makeGraph(maxk::test::GraphShape::ErdosRenyi, n,
                                  n * 3, gen, aggregatorFor(kind));
        x.resize(n, dim);
        fillNormal(x, gen, 0.0f, 1.0f);
    }
};

GnnLayerConfig
makeCfg(GnnKind kind, Nonlinearity nonlin, std::uint32_t k = 4,
        bool last = false)
{
    GnnLayerConfig cfg;
    cfg.kind = kind;
    cfg.nonlin = nonlin;
    cfg.maxkK = k;
    cfg.lastLayer = last;
    cfg.dropout = 0.0f;
    return cfg;
}

TEST(GnnLayer, GcnReluForwardMatchesReference)
{
    Fixture f(GnnKind::Gcn);
    Rng rng(1);
    GnnLayer layer(makeCfg(GnnKind::Gcn, Nonlinearity::Relu), 8, 6, rng,
                   "t");
    Matrix out;
    layer.forward(f.g, f.x, out, false, f.rng);

    ParamRefs params;
    layer.collectParams(params);
    Matrix y;
    gemm(f.x, params[0]->value, y);
    addRowVector(y, params[1]->value);
    Matrix h;
    reluForward(y, h);
    Matrix expect;
    spmmReference(f.g, h, expect);
    EXPECT_TRUE(maxk::test::matricesNear(out, expect, 1e-4f));
}

TEST(GnnLayer, GcnMaxkForwardMatchesReference)
{
    Fixture f(GnnKind::Gcn);
    Rng rng(2);
    GnnLayer layer(makeCfg(GnnKind::Gcn, Nonlinearity::MaxK, 3), 8, 6,
                   rng, "t");
    Matrix out;
    layer.forward(f.g, f.x, out, false, f.rng);

    ParamRefs params;
    layer.collectParams(params);
    Matrix y;
    gemm(f.x, params[0]->value, y);
    addRowVector(y, params[1]->value);
    Matrix h;
    maxkDense(y, 3, h);
    Matrix expect;
    spmmReference(f.g, h, expect);
    EXPECT_TRUE(maxk::test::matricesNear(out, expect, 1e-4f));
}

TEST(GnnLayer, SageAddsSelfPath)
{
    Fixture f(GnnKind::Sage);
    Rng rng(3);
    GnnLayer layer(makeCfg(GnnKind::Sage, Nonlinearity::Relu), 8, 6, rng,
                   "t");
    Matrix out;
    layer.forward(f.g, f.x, out, false, f.rng);

    ParamRefs params;
    layer.collectParams(params);
    ASSERT_EQ(params.size(), 4u); // two linears
    Matrix y;
    gemm(f.x, params[0]->value, y);
    addRowVector(y, params[1]->value);
    Matrix h;
    reluForward(y, h);
    Matrix agg;
    spmmReference(f.g, h, agg);
    Matrix self;
    gemm(f.x, params[2]->value, self);
    addRowVector(self, params[3]->value);
    addInPlace(agg, self);
    EXPECT_TRUE(maxk::test::matricesNear(out, agg, 1e-4f));
}

TEST(GnnLayer, GinAddsEpsScaledActivation)
{
    Fixture f(GnnKind::Gin);
    Rng rng(4);
    GnnLayerConfig cfg = makeCfg(GnnKind::Gin, Nonlinearity::Relu);
    cfg.ginEps = 0.25f;
    GnnLayer layer(cfg, 8, 6, rng, "t");
    Matrix out;
    layer.forward(f.g, f.x, out, false, f.rng);

    ParamRefs params;
    layer.collectParams(params);
    Matrix y;
    gemm(f.x, params[0]->value, y);
    addRowVector(y, params[1]->value);
    Matrix h;
    reluForward(y, h);
    Matrix expect;
    spmmReference(f.g, h, expect);
    axpy(expect, 1.25f, h);
    EXPECT_TRUE(maxk::test::matricesNear(out, expect, 1e-4f));
}

TEST(GnnLayer, GinMaxkDirectPathUsesSparseActivation)
{
    Fixture f(GnnKind::Gin);
    Rng rng(5);
    GnnLayerConfig cfg = makeCfg(GnnKind::Gin, Nonlinearity::MaxK, 2);
    cfg.ginEps = 0.5f;
    GnnLayer layer(cfg, 8, 6, rng, "t");
    Matrix out;
    layer.forward(f.g, f.x, out, false, f.rng);

    ParamRefs params;
    layer.collectParams(params);
    Matrix y;
    gemm(f.x, params[0]->value, y);
    addRowVector(y, params[1]->value);
    Matrix h;
    maxkDense(y, 2, h);
    Matrix expect;
    spmmReference(f.g, h, expect);
    axpy(expect, 1.5f, h);
    EXPECT_TRUE(maxk::test::matricesNear(out, expect, 1e-4f));
}

TEST(GnnLayer, LastLayerSkipsNonlinearityForBothVariants)
{
    Fixture f(GnnKind::Gcn);
    Rng rng(6);
    GnnLayer relu_layer(
        makeCfg(GnnKind::Gcn, Nonlinearity::Relu, 4, true), 8, 5, rng,
        "a");
    Rng rng2(6);
    GnnLayer maxk_layer(
        makeCfg(GnnKind::Gcn, Nonlinearity::MaxK, 4, true), 8, 5, rng2,
        "b");
    Matrix out_relu, out_maxk;
    relu_layer.forward(f.g, f.x, out_relu, false, f.rng);
    maxk_layer.forward(f.g, f.x, out_maxk, false, f.rng);
    // Same seed -> same weights -> identical dense last-layer outputs.
    EXPECT_TRUE(maxk::test::matricesNear(out_relu, out_maxk, 1e-6f));
}

TEST(GnnLayer, EffectiveKClampedToWidth)
{
    Rng rng(7);
    GnnLayer layer(makeCfg(GnnKind::Gcn, Nonlinearity::MaxK, 100), 8, 6,
                   rng, "t");
    EXPECT_EQ(layer.effectiveK(), 6u);
}

/**
 * Full-layer numerical gradient check: perturb an input entry and a
 * weight entry, compare the loss delta against the analytic gradients.
 * Loss = sum(out).
 */
void
gradientCheck(GnnKind kind, Nonlinearity nonlin)
{
    Fixture f(kind, 20, 6);
    Rng rng(8);
    GnnLayerConfig cfg = makeCfg(kind, nonlin, 2);
    cfg.ginEps = 0.3f;
    GnnLayer layer(cfg, 6, 5, rng, "t");

    Matrix out;
    layer.forward(f.g, f.x, out, false, f.rng);
    const double base = out.sum();

    Matrix d_out(out.rows(), out.cols(), 1.0f);
    Matrix dx;
    layer.backward(f.g, d_out, dx);

    ParamRefs params;
    layer.collectParams(params);

    const Float eps = 1e-2f;
    // Check a handful of input entries.
    for (const auto &[r, c] : {std::pair<int, int>{0, 0}, {3, 2},
                               {10, 5}, {19, 1}}) {
        Matrix xp = f.x;
        xp.at(r, c) += eps;
        Matrix outp;
        GnnLayer probe = layer; // copy (same weights, fresh cache)
        probe.forward(f.g, xp, outp, false, f.rng);
        const double numeric = (outp.sum() - base) / eps;
        EXPECT_NEAR(dx.at(r, c), numeric, 6e-2)
            << gnnKindName(kind) << "/" << nonlinearityName(nonlin)
            << " input(" << r << "," << c << ")";
    }
    // Check a handful of weight entries.
    for (const auto &[i, j] :
         {std::pair<int, int>{0, 0}, {2, 3}, {5, 4}}) {
        GnnLayer probe = layer;
        ParamRefs pp;
        probe.collectParams(pp);
        pp[0]->value.at(i, j) += eps;
        Matrix outp;
        probe.forward(f.g, f.x, outp, false, f.rng);
        const double numeric = (outp.sum() - base) / eps;
        EXPECT_NEAR(params[0]->grad.at(i, j), numeric, 6e-2)
            << gnnKindName(kind) << "/" << nonlinearityName(nonlin)
            << " weight(" << i << "," << j << ")";
    }
}

TEST(GnnLayerGradient, GcnRelu) { gradientCheck(GnnKind::Gcn,
                                                Nonlinearity::Relu); }
TEST(GnnLayerGradient, GcnMaxk) { gradientCheck(GnnKind::Gcn,
                                                Nonlinearity::MaxK); }
TEST(GnnLayerGradient, SageRelu) { gradientCheck(GnnKind::Sage,
                                                 Nonlinearity::Relu); }
TEST(GnnLayerGradient, SageMaxk) { gradientCheck(GnnKind::Sage,
                                                 Nonlinearity::MaxK); }
TEST(GnnLayerGradient, GinRelu) { gradientCheck(GnnKind::Gin,
                                                Nonlinearity::Relu); }
TEST(GnnLayerGradient, GinMaxk) { gradientCheck(GnnKind::Gin,
                                                Nonlinearity::MaxK); }

/**
 * GnnModel::backward computes no input gradient at layer 0. Its
 * parameter gradients must still be bitwise those of a per-layer
 * backward that does (dropout on, so the mask path is covered too).
 */
void
layerZeroSkipsOnlyTheInputGradient(GnnKind kind, Nonlinearity nonlin)
{
    Fixture f(kind, 40, 8);
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.nonlin = nonlin;
    cfg.maxkK = 4;
    cfg.numLayers = 3;
    cfg.inDim = 8;
    cfg.hiddenDim = 12;
    cfg.outDim = 5;
    cfg.dropout = 0.5f;
    cfg.ginEps = 0.2f;
    GnnModel skip(cfg), full(cfg);
    Matrix grad(f.g.numNodes(), cfg.outDim);
    Rng rng(31);
    fillNormal(grad, rng, 0.0f, 1.0f);

    skip.forward(f.g, f.x, true);
    skip.backward(f.g, grad);

    full.forward(f.g, f.x, true);
    Matrix cur = grad, prev;
    for (std::size_t l = full.layers().size(); l-- > 0;) {
        full.layers()[l].backward(f.g, cur, prev);
        std::swap(cur, prev);
    }

    const ParamRefs a = skip.params();
    const ParamRefs b = full.params();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i]->grad.size(), b[i]->grad.size()) << a[i]->name;
        EXPECT_EQ(std::memcmp(a[i]->grad.data(), b[i]->grad.data(),
                              a[i]->grad.size() * sizeof(Float)),
                  0)
            << a[i]->name;
    }
}

TEST(GnnModelBackward, LayerZeroGradsMatchFullBackward)
{
    for (GnnKind kind : {GnnKind::Sage, GnnKind::Gcn, GnnKind::Gin})
        for (Nonlinearity nonlin :
             {Nonlinearity::Relu, Nonlinearity::MaxK}) {
            SCOPED_TRACE(std::string(gnnKindName(kind)) + "-" +
                         nonlinearityName(nonlin));
            layerZeroSkipsOnlyTheInputGradient(kind, nonlin);
        }
}

TEST(GnnLayer, AggregatorNamesAndKinds)
{
    EXPECT_STREQ(gnnKindName(GnnKind::Sage), "SAGE");
    EXPECT_STREQ(gnnKindName(GnnKind::Gcn), "GCN");
    EXPECT_STREQ(gnnKindName(GnnKind::Gin), "GIN");
    EXPECT_STREQ(nonlinearityName(Nonlinearity::Relu), "ReLU");
    EXPECT_STREQ(nonlinearityName(Nonlinearity::MaxK), "MaxK");
    EXPECT_EQ(aggregatorFor(GnnKind::Sage), Aggregator::SageMean);
    EXPECT_EQ(aggregatorFor(GnnKind::Gcn), Aggregator::Gcn);
    EXPECT_EQ(aggregatorFor(GnnKind::Gin), Aggregator::Gin);
}

TEST(GnnLayer, DropoutOnlyActiveInTraining)
{
    Fixture f(GnnKind::Gcn);
    Rng rng(9);
    GnnLayerConfig cfg = makeCfg(GnnKind::Gcn, Nonlinearity::Relu);
    cfg.dropout = 0.5f;
    GnnLayer layer(cfg, 8, 6, rng, "t");
    Matrix out_eval1, out_eval2, out_train;
    layer.forward(f.g, f.x, out_eval1, false, f.rng);
    layer.forward(f.g, f.x, out_eval2, false, f.rng);
    EXPECT_TRUE(out_eval1.equals(out_eval2)); // eval is deterministic
    layer.forward(f.g, f.x, out_train, true, f.rng);
    EXPECT_FALSE(out_train.equals(out_eval1)); // dropout perturbs
}

} // namespace
} // namespace maxk::nn
