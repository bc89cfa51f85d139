/**
 * @file
 * Unit tests for src/tensor: Matrix container semantics, GEMM variants
 * against a naive oracle, element-wise ops, and initialisers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "tensor/init.hh"
#include "tensor/matrix.hh"
#include "tensor/ops.hh"

namespace maxk
{
namespace
{

Matrix
randomMatrix(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Matrix m(r, c);
    Rng rng(seed);
    fillNormal(m, rng, 0.0f, 1.0f);
    return m;
}

/** Naive O(mnk) oracle for C = A * B. */
Matrix
naiveGemm(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < a.cols(); ++p)
                acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
            c.at(i, j) = static_cast<Float>(acc);
        }
    return c;
}

TEST(Matrix, ZeroInitialised)
{
    Matrix m(3, 4);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    for (std::size_t i = 0; i < m.size(); ++i)
        ASSERT_EQ(m.data()[i], 0.0f);
}

TEST(Matrix, FillConstructor)
{
    Matrix m(2, 2, 7.5f);
    EXPECT_EQ(m.at(1, 1), 7.5f);
    EXPECT_DOUBLE_EQ(m.sum(), 30.0);
}

TEST(Matrix, RowPointerArithmetic)
{
    Matrix m(3, 5);
    m.at(2, 3) = 9.0f;
    EXPECT_EQ(m.row(2)[3], 9.0f);
    EXPECT_EQ(m.row(0) + 2 * 5 + 3, &m.at(2, 3));
}

TEST(Matrix, ReshapePreservesData)
{
    Matrix m(2, 6);
    m.at(1, 5) = 3.0f;
    m.reshape(4, 3);
    EXPECT_EQ(m.rows(), 4u);
    EXPECT_EQ(m.at(3, 2), 3.0f);
}

TEST(MatrixDeathTest, ReshapeElementMismatchPanics)
{
    Matrix m(2, 3);
    EXPECT_DEATH(m.reshape(2, 4), "reshape");
}

TEST(Matrix, ResizeDestroysContents)
{
    Matrix m(2, 2, 1.0f);
    m.resize(3, 3);
    EXPECT_DOUBLE_EQ(m.sum(), 0.0);
}

TEST(Matrix, MaxAbsAndNorm)
{
    Matrix m(1, 3);
    m.at(0, 0) = -4.0f;
    m.at(0, 1) = 3.0f;
    EXPECT_EQ(m.maxAbs(), 4.0f);
    EXPECT_NEAR(m.norm(), 5.0, 1e-6);
}

TEST(Matrix, EqualsAndApprox)
{
    Matrix a(2, 2, 1.0f), b(2, 2, 1.0f);
    EXPECT_TRUE(a.equals(b));
    b.at(0, 0) += 1e-5f;
    EXPECT_FALSE(a.equals(b));
    EXPECT_TRUE(a.approxEquals(b, 1e-4f));
    EXPECT_FALSE(a.approxEquals(b, 1e-6f));
}

TEST(Gemm, MatchesNaiveOracle)
{
    const Matrix a = randomMatrix(7, 5, 1);
    const Matrix b = randomMatrix(5, 9, 2);
    Matrix c;
    gemm(a, b, c);
    EXPECT_TRUE(c.approxEquals(naiveGemm(a, b), 1e-4f));
}

TEST(Gemm, IdentityIsNeutral)
{
    const Matrix a = randomMatrix(4, 4, 3);
    Matrix eye(4, 4);
    for (int i = 0; i < 4; ++i)
        eye.at(i, i) = 1.0f;
    Matrix c;
    gemm(a, eye, c);
    EXPECT_TRUE(c.approxEquals(a, 1e-6f));
}

TEST(Gemm, AccumAddsOntoExisting)
{
    const Matrix a = randomMatrix(3, 3, 4);
    const Matrix b = randomMatrix(3, 3, 5);
    Matrix c(3, 3, 1.0f);
    gemmAccum(a, b, c);
    Matrix expect = naiveGemm(a, b);
    for (std::size_t i = 0; i < expect.size(); ++i)
        expect.data()[i] += 1.0f;
    EXPECT_TRUE(c.approxEquals(expect, 1e-4f));
}

TEST(Gemm, TransAMatchesExplicitTranspose)
{
    const Matrix a = randomMatrix(6, 4, 6);
    const Matrix b = randomMatrix(6, 5, 7);
    Matrix at, expect, got;
    transpose(a, at);
    gemm(at, b, expect);
    gemmTransA(a, b, got);
    EXPECT_TRUE(got.equals(expect));
}

TEST(Gemm, TransBMatchesExplicitTranspose)
{
    const Matrix a = randomMatrix(6, 4, 8);
    const Matrix b = randomMatrix(5, 4, 9);
    Matrix bt, expect, workspace, got;
    transpose(b, bt);
    gemm(a, bt, expect);
    got.resize(6, 5);
    gemmTransB(a, b, workspace, got);
    EXPECT_TRUE(got.equals(expect));
    EXPECT_TRUE(workspace.equals(bt));
}

TEST(GemmDeathTest, InnerDimensionMismatchPanics)
{
    Matrix a(2, 3), b(4, 2), c;
    EXPECT_DEATH(gemm(a, b, c), "inner dimension");
}

TEST(Ops, TransposeInvolution)
{
    const Matrix a = randomMatrix(5, 8, 10);
    Matrix t, tt;
    transpose(a, t);
    transpose(t, tt);
    EXPECT_TRUE(tt.equals(a));
}

TEST(Ops, AddInPlace)
{
    Matrix a(2, 2, 1.0f), b(2, 2, 2.5f);
    addInPlace(a, b);
    EXPECT_EQ(a.at(1, 1), 3.5f);
}

TEST(Ops, Axpy)
{
    Matrix a(1, 3, 1.0f), b(1, 3, 2.0f);
    axpy(a, 0.5f, b);
    EXPECT_EQ(a.at(0, 0), 2.0f);
}

TEST(Ops, ScaleInPlace)
{
    Matrix a(1, 2, 4.0f);
    scaleInPlace(a, 0.25f);
    EXPECT_EQ(a.at(0, 1), 1.0f);
}

TEST(Ops, Subtract)
{
    Matrix a(1, 2, 5.0f), b(1, 2, 3.0f), c;
    subtract(a, b, c);
    EXPECT_EQ(c.at(0, 0), 2.0f);
}

TEST(Ops, AddRowVectorBroadcasts)
{
    Matrix x(3, 2, 1.0f);
    Matrix bias(1, 2);
    bias.at(0, 0) = 10.0f;
    bias.at(0, 1) = 20.0f;
    addRowVector(x, bias);
    EXPECT_EQ(x.at(2, 0), 11.0f);
    EXPECT_EQ(x.at(0, 1), 21.0f);
}

TEST(Ops, ColumnSums)
{
    Matrix x(2, 3);
    x.at(0, 0) = 1.0f;
    x.at(1, 0) = 2.0f;
    x.at(1, 2) = 5.0f;
    Matrix s;
    columnSums(x, s);
    EXPECT_EQ(s.at(0, 0), 3.0f);
    EXPECT_EQ(s.at(0, 1), 0.0f);
    EXPECT_EQ(s.at(0, 2), 5.0f);
}

TEST(Ops, Hadamard)
{
    Matrix a(1, 3, 2.0f), b(1, 3, 3.0f), c;
    hadamard(a, b, c);
    EXPECT_EQ(c.at(0, 2), 6.0f);
}

TEST(Ops, ReluForwardClampsNegatives)
{
    Matrix x(1, 4);
    x.at(0, 0) = -1.0f;
    x.at(0, 1) = 2.0f;
    x.at(0, 2) = 0.0f;
    x.at(0, 3) = -0.5f;
    Matrix y;
    reluForward(x, y);
    EXPECT_EQ(y.at(0, 0), 0.0f);
    EXPECT_EQ(y.at(0, 1), 2.0f);
    EXPECT_EQ(y.at(0, 2), 0.0f);
    EXPECT_EQ(y.at(0, 3), 0.0f);
}

TEST(Ops, ReluBackwardMasksByInputSign)
{
    Matrix x(1, 3), g(1, 3, 1.0f), dx;
    x.at(0, 0) = -1.0f;
    x.at(0, 1) = 2.0f;
    x.at(0, 2) = 0.0f;
    reluBackward(x, g, dx);
    EXPECT_EQ(dx.at(0, 0), 0.0f);
    EXPECT_EQ(dx.at(0, 1), 1.0f);
    EXPECT_EQ(dx.at(0, 2), 0.0f); // gradient at exactly 0 is 0
}

TEST(Ops, RowSoftmaxSumsToOne)
{
    const Matrix x = randomMatrix(5, 7, 11);
    Matrix p;
    rowSoftmax(x, p);
    for (std::size_t r = 0; r < p.rows(); ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < p.cols(); ++c) {
            s += p.at(r, c);
            ASSERT_GT(p.at(r, c), 0.0f);
        }
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(Ops, RowSoftmaxShiftInvariant)
{
    Matrix x = randomMatrix(2, 4, 12);
    Matrix p1, p2;
    rowSoftmax(x, p1);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] += 100.0f;
    rowSoftmax(x, p2);
    EXPECT_TRUE(p1.approxEquals(p2, 1e-5f));
}

TEST(Ops, SigmoidRangeAndMidpoint)
{
    Matrix x(1, 3);
    x.at(0, 0) = 0.0f;
    x.at(0, 1) = 100.0f;
    x.at(0, 2) = -100.0f;
    Matrix y;
    sigmoid(x, y);
    EXPECT_NEAR(y.at(0, 0), 0.5f, 1e-6f);
    EXPECT_NEAR(y.at(0, 1), 1.0f, 1e-6f);
    EXPECT_NEAR(y.at(0, 2), 0.0f, 1e-6f);
}

TEST(Init, XavierBoundsRespected)
{
    Matrix w(64, 32);
    Rng rng(13);
    xavierUniform(w, rng);
    const Float bound = std::sqrt(6.0f / (64 + 32));
    EXPECT_LE(w.maxAbs(), bound);
    EXPECT_GT(w.maxAbs(), 0.0f);
}

TEST(Init, KaimingVarianceNearTwoOverFanIn)
{
    Matrix w(256, 256);
    Rng rng(14);
    kaimingNormal(w, rng);
    double sq = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i)
        sq += static_cast<double>(w.data()[i]) * w.data()[i];
    EXPECT_NEAR(sq / w.size(), 2.0 / 256.0, 2.0 / 256.0 * 0.1);
}

TEST(Init, DeterministicGivenSeed)
{
    Matrix w1(8, 8), w2(8, 8);
    Rng r1(5), r2(5);
    xavierUniform(w1, r1);
    xavierUniform(w2, r2);
    EXPECT_TRUE(w1.equals(w2));
}

} // namespace
} // namespace maxk
