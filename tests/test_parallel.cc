/**
 * @file
 * Determinism sweep for the parallel-execution subsystem
 * (common/parallel.hh): every converted row-parallel kernel must
 * produce bitwise-identical matrices AND identical simulated
 * KernelStats at 1/2/4/8 threads, including the scatter-shaped
 * backward paths and with cache simulation both on and off. Plus unit
 * coverage of the pool primitives themselves (splitRange coverage,
 * rowAlignedChunks row integrity, nesting, exception propagation, and
 * the heap allocations of a warm loop).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/linear_backward_cbsr.hh"
#include "core/maxk.hh"
#include "core/spgemm_forward.hh"
#include "core/sspmm_backward.hh"
#include "graph/edge_groups.hh"
#include "kernels/spmm_gnna.hh"
#include "kernels/spmm_outer_naive.hh"
#include "kernels/spmm_ref.hh"
#include "kernels/spmm_row_wise.hh"
#include "nn/gnn_layer.hh"
#include "support/comparators.hh"
#include "support/fixtures.hh"
#include "support/heap_counter.hh"
#include "support/oracles.hh"
#include "tensor/fold.hh"
#include "tensor/init.hh"
#include "tensor/ops.hh"

namespace maxk
{
namespace
{

const std::vector<std::uint32_t> kThreadSweep{1, 2, 4, 8};

/** Restore the process default thread count on scope exit. */
struct ThreadGuard
{
    ~ThreadGuard() { setDefaultThreads(0); }
};

::testing::AssertionResult
matricesIdentical(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return ::testing::AssertionFailure() << "shape mismatch";
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            if (a.at(r, c) != b.at(r, c))
                return ::testing::AssertionFailure()
                       << "(" << r << "," << c << "): " << a.at(r, c)
                       << " != " << b.at(r, c);
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
cbsrIdentical(const CbsrMatrix &a, const CbsrMatrix &b)
{
    if (a.rows() != b.rows() || a.dimK() != b.dimK() ||
        a.dimOrigin() != b.dimOrigin())
        return ::testing::AssertionFailure() << "shape mismatch";
    for (NodeId r = 0; r < a.rows(); ++r) {
        for (std::uint32_t kk = 0; kk < a.dimK(); ++kk) {
            if (a.indexAt(r, kk) != b.indexAt(r, kk))
                return ::testing::AssertionFailure()
                       << "index (" << r << "," << kk << ")";
            if (a.dataRow(r)[kk] != b.dataRow(r)[kk])
                return ::testing::AssertionFailure()
                       << "data (" << r << "," << kk
                       << "): " << a.dataRow(r)[kk]
                       << " != " << b.dataRow(r)[kk];
        }
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
phaseStatsIdentical(const gpusim::PhaseStats &a,
                    const gpusim::PhaseStats &b)
{
    if (a.name != b.name)
        return ::testing::AssertionFailure()
               << "phase name " << a.name << " != " << b.name;
#define MAXK_CMP(field)                                                   \
    if (a.field != b.field)                                               \
    return ::testing::AssertionFailure()                                  \
           << "phase " << a.name << " " #field " " << a.field             \
           << " != " << b.field
    MAXK_CMP(flops);
    MAXK_CMP(reqBytes);
    MAXK_CMP(l2ReqBytes);
    MAXK_CMP(dramReadBytes);
    MAXK_CMP(dramWriteBytes);
    MAXK_CMP(l1Hits);
    MAXK_CMP(l1Misses);
    MAXK_CMP(l2Hits);
    MAXK_CMP(l2Misses);
    MAXK_CMP(sharedOps);
    MAXK_CMP(sharedBytes);
    MAXK_CMP(atomicSectors);
#undef MAXK_CMP
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
statsIdentical(const gpusim::KernelStats &a, const gpusim::KernelStats &b)
{
    if (a.kernel != b.kernel)
        return ::testing::AssertionFailure() << "kernel name";
    if (a.phases.size() != b.phases.size())
        return ::testing::AssertionFailure()
               << "phase count " << a.phases.size()
               << " != " << b.phases.size();
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        auto r = phaseStatsIdentical(a.phases[i], b.phases[i]);
        if (!r)
            return r;
    }
    if (a.totalSeconds != b.totalSeconds)
        return ::testing::AssertionFailure()
               << "totalSeconds " << a.totalSeconds
               << " != " << b.totalSeconds;
    if (a.bottleneck != b.bottleneck)
        return ::testing::AssertionFailure() << "bottleneck";
    return ::testing::AssertionSuccess();
}

/* ------------------------------------------------------- primitives -- */

TEST(SplitRange, CoversRangeInOrder)
{
    for (std::size_t n : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
        for (std::uint32_t t : {1u, 2u, 4u, 8u, 32u}) {
            const auto chunks = splitRange(0, n, 4, t);
            std::size_t at = 0;
            for (const auto &c : chunks) {
                EXPECT_EQ(c.begin, at);
                EXPECT_LT(c.begin, c.end);
                at = c.end;
            }
            EXPECT_EQ(at, n);
            EXPECT_LE(chunks.size(), t);
            if (n >= 4) {
                for (const auto &c : chunks)
                    EXPECT_GE(c.size(), 4u);
            }
        }
    }
}

TEST(SplitRange, GrainLimitsChunkCount)
{
    const auto chunks = splitRange(0, 10, 8, 8);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].begin, 0u);
    EXPECT_EQ(chunks[0].end, 10u);
}

TEST(RowAlignedChunks, NeverSplitsARow)
{
    Rng rng(99);
    const CsrGraph g =
        test::makeGraph(test::GraphShape::PowerLaw, 128, 1500, rng);
    const auto part = EdgeGroupPartition::build(g, 8);
    for (std::uint32_t t : {1u, 2u, 4u, 8u}) {
        const auto chunks = rowAlignedChunks(part.groups(), 4, t);
        std::size_t at = 0;
        for (const auto &c : chunks) {
            EXPECT_EQ(c.begin, at);
            EXPECT_LT(c.begin, c.end);
            if (c.begin > 0) {
                // A chunk boundary must coincide with a row change.
                EXPECT_NE(part.groups()[c.begin].row,
                          part.groups()[c.begin - 1].row);
            }
            at = c.end;
        }
        EXPECT_EQ(at, part.groups().size());
    }
}

TEST(ParallelFor, ExecutesEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    parallelFor(
        0, hits.size(), 8,
        [&](std::uint32_t, std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i)
                ++hits[i];
        },
        4);
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedRegionsDegradeToSerial)
{
    std::atomic<int> total{0};
    parallelFor(
        0, 8, 1,
        [&](std::uint32_t, std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
                parallelFor(
                    0, 4, 1,
                    [&](std::uint32_t, std::size_t ib, std::size_t ie) {
                        total += static_cast<int>(ie - ib);
                    },
                    4);
            }
        },
        4);
    EXPECT_EQ(total.load(), 32);
}

TEST(ParallelFor, PropagatesWorkerExceptions)
{
    EXPECT_THROW(
        parallelFor(
            0, 64, 1,
            [&](std::uint32_t, std::size_t b, std::size_t) {
                if (b >= 32)
                    throw std::runtime_error("boom");
            },
            8),
        std::runtime_error);
    // The pool must stay usable afterwards.
    std::atomic<int> n{0};
    parallelFor(
        0, 16, 1,
        [&](std::uint32_t, std::size_t b, std::size_t e) {
            n += static_cast<int>(e - b);
        },
        4);
    EXPECT_EQ(n.load(), 16);
}

TEST(ResolveThreads, PrecedenceAndOverride)
{
    ThreadGuard guard;
    EXPECT_EQ(resolveThreads(3), 3u);
    setDefaultThreads(5);
    EXPECT_EQ(resolveThreads(0), 5u);
    EXPECT_EQ(resolveThreads(2), 2u); // explicit request wins
    setDefaultThreads(0);
}

TEST(ParallelFor, ChunksAreTheSplitRangeLayout)
{
    ThreadGuard guard;
    for (std::size_t n : {1ul, 7ul, 64ul, 1000ul}) {
        for (std::uint32_t t : {1u, 3u, 4u, 8u}) {
            std::vector<IndexRange> got(t);
            parallelFor(
                5, 5 + n, 4,
                [&](std::uint32_t c, std::size_t b, std::size_t e) {
                    got[c] = {b, e};
                },
                t);
            const auto want = splitRange(5, 5 + n, 4, t);
            ASSERT_EQ(chunkCount(5, 5 + n, 4, t), want.size());
            for (std::size_t c = 0; c < want.size(); ++c) {
                EXPECT_EQ(got[c].begin, want[c].begin) << n << "/" << t;
                EXPECT_EQ(got[c].end, want[c].end) << n << "/" << t;
            }
        }
    }
}

TEST(ParallelFor, WarmLoopsAllocateOnlyThePoolBatch)
{
    ThreadGuard guard;
    Rng rng(2024);
    Matrix x(512, 64);
    fillNormal(x, rng, 0.0f, 1.0f);
    CbsrMatrix cbsr;
    std::vector<float> sums(512);
    // More than two captured references: too big for std::function's
    // in-place buffer, so a type-erased body would allocate.
    const auto loop = [&] {
        parallelFor(0, x.rows(), 16,
                    [&](std::uint32_t, std::size_t b, std::size_t e) {
                        for (std::size_t r = b; r < e; ++r)
                            sums[r] = x.row(r)[0] + static_cast<float>(
                                                        cbsr.dimK());
                    });
    };
    const auto compress = [&] { nn::maxkCompressFast(x, 8, cbsr); };

    // One worker: one chunk, called in place. Four workers: the pool's
    // per-region Batch and nothing else.
    for (const std::uint32_t threads : {1u, 4u}) {
        setDefaultThreads(threads);
        loop();
        compress(); // warm: pool workers and CBSR storage exist
        const std::uint64_t want = threads == 1 ? 0 : 1;
        EXPECT_EQ(test::heapAllocsOf(loop), want) << threads;
        EXPECT_EQ(test::heapAllocsOf(compress), want) << threads;
    }
}

/* -------------------------------------------- kernel determinism ----- */

/** (graph shape, simulateCaches). */
using SweepParam = std::tuple<test::GraphShape, bool>;

std::string
sweepName(const ::testing::TestParamInfo<SweepParam> &info)
{
    return test::graphShapeName(std::get<0>(info.param)) +
           (std::get<1>(info.param) ? "_caches" : "_nocaches");
}

class ThreadSweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    void
    SetUp() override
    {
        const auto [shape, caches] = GetParam();
        Rng rng(777);
        g_ = test::makeGraph(shape, 128, 1400, rng);
        part_ = EdgeGroupPartition::build(g_, 16);
        x_.resize(g_.numNodes(), 48);
        fillNormal(x_, rng, 0.0f, 1.0f);
        opt_.simulateCaches = caches;
    }

    SimOptions
    withThreads(std::uint32_t t) const
    {
        SimOptions o = opt_;
        o.threads = t;
        return o;
    }

    CsrGraph g_;
    EdgeGroupPartition part_;
    Matrix x_;
    SimOptions opt_;
    std::uint32_t k_ = 8;
};

// The simulator treats host pointers as device addresses, so simulated
// cache stats are a function of the actual buffer addresses. Every test
// below therefore reuses ONE output buffer for the baseline and every
// thread count — exactly how a training loop launches kernels — and
// snapshots the baseline values for comparison.

TEST_P(ThreadSweep, MaxkCompressBitwiseAndStats)
{
    MaxKResult result; // shared across runs: stable CBSR addresses
    maxkCompress(x_, k_, withThreads(1), result);
    const CbsrMatrix base_cbsr = result.cbsr;
    const gpusim::KernelStats base_stats = result.stats;
    const std::uint32_t base_max = result.maxPivotIterations;
    const double base_avg = result.avgPivotIterations;
    for (std::uint32_t t : kThreadSweep) {
        maxkCompress(x_, k_, withThreads(t), result);
        EXPECT_TRUE(cbsrIdentical(result.cbsr, base_cbsr)) << t;
        EXPECT_TRUE(statsIdentical(result.stats, base_stats)) << t;
        EXPECT_EQ(result.maxPivotIterations, base_max);
        EXPECT_DOUBLE_EQ(result.avgPivotIterations, base_avg);
    }
}

TEST_P(ThreadSweep, SpmmRowWiseBitwiseAndStats)
{
    Matrix y;
    const auto s_base = spmmRowWise(g_, x_, y, withThreads(1));
    const Matrix y_base = y;
    for (std::uint32_t t : kThreadSweep) {
        const auto s = spmmRowWise(g_, x_, y, withThreads(t));
        EXPECT_TRUE(matricesIdentical(y, y_base)) << t;
        EXPECT_TRUE(statsIdentical(s, s_base)) << t;
    }
}

TEST_P(ThreadSweep, SpmmGnnaBitwiseAndStats)
{
    Matrix y;
    const auto s_base = spmmGnna(g_, part_, x_, y, withThreads(1));
    const Matrix y_base = y;
    for (std::uint32_t t : kThreadSweep) {
        const auto s = spmmGnna(g_, part_, x_, y, withThreads(t));
        EXPECT_TRUE(matricesIdentical(y, y_base)) << t;
        EXPECT_TRUE(statsIdentical(s, s_base)) << t;
    }
}

TEST_P(ThreadSweep, SpmmOuterNaiveBitwiseAndStats)
{
    Matrix y;
    const auto s_base = spmmOuterNaive(g_, x_, y, withThreads(1));
    const Matrix y_base = y;
    for (std::uint32_t t : kThreadSweep) {
        const auto s = spmmOuterNaive(g_, x_, y, withThreads(t));
        EXPECT_TRUE(matricesIdentical(y, y_base)) << t;
        EXPECT_TRUE(statsIdentical(s, s_base)) << t;
    }
}

TEST_P(ThreadSweep, SpgemmForwardBitwiseAndStats)
{
    const MaxKResult mk = maxkCompress(x_, k_, withThreads(1));
    Matrix y;
    const auto s_base =
        spgemmForward(g_, part_, mk.cbsr, y, withThreads(1));
    const Matrix y_base = y;
    for (std::uint32_t t : kThreadSweep) {
        const auto s =
            spgemmForward(g_, part_, mk.cbsr, y, withThreads(t));
        EXPECT_TRUE(matricesIdentical(y, y_base)) << t;
        EXPECT_TRUE(statsIdentical(s, s_base)) << t;
    }
}

TEST_P(ThreadSweep, SpgemmForwardScatterAblationBitwiseAndStats)
{
    const MaxKResult mk = maxkCompress(x_, k_, withThreads(1));
    Matrix y;
    SimOptions o1 = withThreads(1);
    o1.spgemmSharedBuffer = false;
    const auto s_base = spgemmForward(g_, part_, mk.cbsr, y, o1);
    const Matrix y_base = y;
    for (std::uint32_t t : kThreadSweep) {
        SimOptions o = withThreads(t);
        o.spgemmSharedBuffer = false;
        const auto s = spgemmForward(g_, part_, mk.cbsr, y, o);
        EXPECT_TRUE(matricesIdentical(y, y_base)) << t;
        EXPECT_TRUE(statsIdentical(s, s_base)) << t;
    }
}

TEST_P(ThreadSweep, SspmmBackwardBitwiseAndStats)
{
    const MaxKResult mk = maxkCompress(x_, k_, withThreads(1));
    Rng grad_rng(31);
    Matrix dxl(g_.numNodes(), x_.cols());
    fillNormal(dxl, grad_rng, 0.0f, 1.0f);

    for (const bool prefetch : {true, false}) {
        CbsrMatrix dxs; // shared across runs: stable addresses
        dxs.adoptPattern(mk.cbsr);
        SimOptions o1 = withThreads(1);
        o1.sspmmPrefetch = prefetch;
        const auto s_base = sspmmBackward(g_, part_, dxl, dxs, o1);
        const CbsrMatrix base = dxs;
        for (std::uint32_t t : kThreadSweep) {
            SimOptions o = withThreads(t);
            o.sspmmPrefetch = prefetch;
            const auto s = sspmmBackward(g_, part_, dxl, dxs, o);
            EXPECT_TRUE(cbsrIdentical(dxs, base))
                << "t=" << t << " prefetch=" << prefetch;
            EXPECT_TRUE(statsIdentical(s, s_base))
                << "t=" << t << " prefetch=" << prefetch;
        }
    }
}

TEST_P(ThreadSweep, ReferenceAndAggregationPathsBitwise)
{
    ThreadGuard guard;

    // Baselines at one thread (the scatter paths take their serial
    // branch here; higher counts take the transpose-gather branch).
    setDefaultThreads(1);
    Matrix ref_base, reft_base, dense_base, denset_base, cbsr_base;
    Matrix dense_mk_base, grad_base;
    spmmReference(g_, x_, ref_base);
    spmmTransposedReference(g_, x_, reft_base);
    nn::aggregateDense(g_, x_, dense_base);
    nn::aggregateDenseTransposed(g_, x_, denset_base);
    CbsrMatrix mk_base;
    nn::maxkCompressFast(x_, k_, mk_base);
    nn::aggregateCbsr(g_, mk_base, cbsr_base);
    CbsrMatrix back_base;
    back_base.adoptPattern(mk_base);
    nn::aggregateCbsrBackward(g_, x_, back_base);
    maxkDense(x_, k_, dense_mk_base);
    maxkBackwardDense(x_, k_, x_, grad_base);

    for (std::uint32_t t : kThreadSweep) {
        setDefaultThreads(t);
        Matrix m;
        spmmReference(g_, x_, m);
        EXPECT_TRUE(matricesIdentical(m, ref_base)) << t;
        spmmTransposedReference(g_, x_, m);
        EXPECT_TRUE(matricesIdentical(m, reft_base)) << t;
        nn::aggregateDense(g_, x_, m);
        EXPECT_TRUE(matricesIdentical(m, dense_base)) << t;
        nn::aggregateDenseTransposed(g_, x_, m);
        EXPECT_TRUE(matricesIdentical(m, denset_base)) << t;

        CbsrMatrix mk;
        nn::maxkCompressFast(x_, k_, mk);
        EXPECT_TRUE(cbsrIdentical(mk, mk_base)) << t;
        nn::aggregateCbsr(g_, mk, m);
        EXPECT_TRUE(matricesIdentical(m, cbsr_base)) << t;

        CbsrMatrix back;
        back.adoptPattern(mk_base);
        nn::aggregateCbsrBackward(g_, x_, back);
        EXPECT_TRUE(cbsrIdentical(back, back_base)) << t;

        maxkDense(x_, k_, m);
        EXPECT_TRUE(matricesIdentical(m, dense_mk_base)) << t;
        maxkBackwardDense(x_, k_, x_, m);
        EXPECT_TRUE(matricesIdentical(m, grad_base)) << t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeCaches, ThreadSweep,
    ::testing::Combine(::testing::Values(test::GraphShape::ErdosRenyi,
                                         test::GraphShape::PowerLaw,
                                         test::GraphShape::Star),
                       ::testing::Bool()),
    sweepName);

/* ---------------------------------------------- GEMM determinism ----- */

/** C is rows x cols; the inner (folded) dimension is inner. With
 *  dropout the A operands are dropout-like: half their entries zero. */
struct GemmShape
{
    std::size_t rows;
    std::size_t inner;
    std::size_t cols;
    bool dropout = false;
};

std::string
gemmShapeName(const ::testing::TestParamInfo<GemmShape> &info)
{
    const GemmShape &s = info.param;
    return "m" + std::to_string(s.rows) + "_k" + std::to_string(s.inner) +
           "_n" + std::to_string(s.cols) + (s.dropout ? "_dropout" : "");
}

/**
 * An operand carrying every value the blocked kernels must fold exactly
 * like the serial loops: whole zero rows (serve's padded batch rows;
 * rows 8, 18, ... hold -0, so a gemmAccum entry value there survives
 * only if A's zero row is skipped), scattered +0 and -0, and entries
 * scaled by 1e-20 or 1e-24 whose products with each other underflow to
 * subnormals or to ±0.
 */
Matrix
gemmOperand(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Matrix m(rows, cols);
    Rng rng(seed);
    fillNormal(m, rng, 0.0f, 1.0f);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) {
            const std::size_t h = r * 31 + c * 17 + seed;
            Float &v = m.at(r, c);
            if (r % 5 == 3)
                v = r % 10 == 8 ? -0.0f : 0.0f;
            else if (h % 7 == 0)
                v = 0.0f;
            else if (h % 11 == 0)
                v = -0.0f;
            else if (h % 13 == 0)
                v *= 1e-20f;
            else if (h % 19 == 0)
                v *= 1e-24f;
        }
    return m;
}

/** A layer input after dropout 0.5: each entry +0 with probability 1/2,
 *  the rest doubled, so the zero skip is taken unpredictably. */
Matrix
dropoutOperand(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Matrix m(rows, cols);
    Rng rng(seed);
    fillNormal(m, rng, 0.0f, 1.0f);
    Float *p = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        p[i] = rng.bernoulli(0.5f) ? 0.0f : 2.0f * p[i];
    return m;
}

/** A CBSR gradient over `origin` columns whose k values per row are
 *  src's entries at ascending, evenly strided columns. */
CbsrMatrix
gemmCbsrOperand(const Matrix &src, std::uint32_t k)
{
    const auto origin = static_cast<std::uint32_t>(src.cols());
    const std::uint32_t stride = origin / k;
    CbsrMatrix ds(static_cast<NodeId>(src.rows()), k, origin);
    for (NodeId r = 0; r < ds.rows(); ++r)
        for (std::uint32_t kk = 0; kk < k; ++kk) {
            const std::uint32_t col = kk * stride + r % stride;
            ds.setIndex(r, kk, col);
            ds.dataRow(r)[kk] = src.at(r, col);
        }
    return ds;
}

/** Every operand of one GemmThreadSweep shape. */
struct GemmOperands
{
    explicit GemmOperands(const GemmShape &s)
        : a(aOperand(s, s.rows, s.inner, 1)),        // m x k
          b(gemmOperand(s.inner, s.cols, 2)),        // k x n
          at(aOperand(s, s.inner, s.rows, 3)),       // k x m
          bt(gemmOperand(s.cols, s.inner, 4)),       // n x k
          cEntry(gemmOperand(s.rows, s.cols, 5)),
          x(aOperand(s, s.rows, s.cols, 6)),         // m x n
          // Every column once an inner dimension is long enough to
          // need several term lists, so the CBSR rows do too.
          ds(gemmCbsrOperand(a, static_cast<std::uint32_t>(
                                    s.inner > FoldBlock::kTerms
                                        ? s.inner
                                        : std::min<std::size_t>(s.inner,
                                                                8))))
    {
        ds.decompress(dsDense);
    }

    static Matrix
    aOperand(const GemmShape &s, std::size_t rows, std::size_t cols,
             std::uint64_t seed)
    {
        return s.dropout ? dropoutOperand(rows, cols, seed)
                         : gemmOperand(rows, cols, seed);
    }

    Matrix a, b, at, bt, cEntry, x;
    CbsrMatrix ds;
    Matrix dsDense;
};

class GemmThreadSweep : public ::testing::TestWithParam<GemmShape>
{
};

/**
 * The blocked, row-parallel GEMMs and the CBSR linear backward against
 * the serial loops that define them (tests/support/oracles.hh):
 * bit-identical output, -0 signs included, at every worker count. Row
 * counts fall on and off the 16-row block (tensor/fold.hh) and below
 * the row grain; inner dimensions cross the 128-term list; column
 * counts cover every kind of tail of the 32-column register panel.
 */
TEST_P(GemmThreadSweep, BitwiseMatchesSerialLoops)
{
    ThreadGuard guard;
    const GemmShape s = GetParam();
    const GemmOperands op(s);

    Matrix want_accum = op.cEntry;
    test::referenceGemmAccum(op.a, op.b, want_accum);
    Matrix want_gemm(s.rows, s.cols);
    test::referenceGemmAccum(op.a, op.b, want_gemm);
    Matrix want_ta, want_tb, want_cbsr, want_cbsr_ta;
    test::referenceGemmTransA(op.at, op.b, want_ta);
    test::referenceGemmTransB(op.a, op.bt, want_tb);
    test::referenceCbsrGemmTransB(op.ds, op.bt, want_cbsr);
    // cbsrGemmTransA's contract: gemmTransA over the decompressed rows.
    test::referenceGemmTransA(op.x, op.dsDense, want_cbsr_ta);

    Matrix c, workspace;
    for (std::uint32_t t : kThreadSweep) {
        setDefaultThreads(t);
        c = op.cEntry;
        gemmAccum(op.a, op.b, c);
        EXPECT_TRUE(c.equals(want_accum)) << t;
        EXPECT_TRUE(test::matricesBitwise(c, want_accum)) << t;
        gemm(op.a, op.b, c);
        EXPECT_TRUE(c.equals(want_gemm)) << t;
        EXPECT_TRUE(test::matricesBitwise(c, want_gemm)) << t;
        gemmTransA(op.at, op.b, c);
        EXPECT_TRUE(c.equals(want_ta)) << t;
        EXPECT_TRUE(test::matricesBitwise(c, want_ta)) << t;
        gemmTransB(op.a, op.bt, workspace, c);
        EXPECT_TRUE(c.equals(want_tb)) << t;
        EXPECT_TRUE(test::matricesBitwise(c, want_tb)) << t;
        cbsrGemmTransB(op.ds, op.bt, workspace, c);
        EXPECT_TRUE(c.equals(want_cbsr)) << t;
        EXPECT_TRUE(test::matricesBitwise(c, want_cbsr)) << t;
        cbsrGemmTransA(op.x, op.ds, c);
        EXPECT_TRUE(c.equals(want_cbsr_ta)) << t;
        EXPECT_TRUE(test::matricesBitwise(c, want_cbsr_ta)) << t;
    }
}

/** Rows r of [0, n) with r % 3 != 1: gaps everywhere, both ends kept. */
std::vector<NodeId>
everyOtherThird(std::size_t n)
{
    std::vector<NodeId> ids;
    for (std::size_t r = 0; r < n; ++r)
        if (r % 3 != 1 || r + 1 == n)
            ids.push_back(static_cast<NodeId>(r));
    return ids;
}

/**
 * The row-set forms against the serial loops over the same rows: the
 * listed C rows of gemmAccum, gemmTransB and cbsrGemmTransB are bitwise
 * the oracle's and every other row keeps its entry value; gemmTransA
 * and cbsrGemmTransA fold only the listed terms. At every worker count.
 */
TEST_P(GemmThreadSweep, RowSetsMatchSerialLoops)
{
    ThreadGuard guard;
    const GemmShape s = GetParam();
    const GemmOperands op(s);
    const std::vector<NodeId> out_rows = everyOtherThird(s.rows);
    const std::vector<NodeId> terms = everyOtherThird(s.inner);

    Matrix want_accum = op.cEntry, want_tb = op.cEntry;
    Matrix want_cbsr = op.cEntry;
    Matrix want_ta, want_cbsr_ta;
    test::referenceGemmAccum(op.a, op.b, want_accum, out_rows);
    test::referenceGemmTransA(op.at, op.b, want_ta, terms);
    test::referenceGemmTransB(op.a, op.bt, want_tb, out_rows);
    test::referenceCbsrGemmTransB(op.ds, op.bt, want_cbsr, out_rows);
    test::referenceGemmTransA(op.x, op.dsDense, want_cbsr_ta, out_rows);

    Matrix c, workspace;
    for (std::uint32_t t : kThreadSweep) {
        setDefaultThreads(t);
        c = op.cEntry;
        gemmAccum(op.a, op.b, c, out_rows);
        EXPECT_TRUE(test::matricesBitwise(c, want_accum)) << t;
        gemmTransA(op.at, op.b, c, terms);
        EXPECT_TRUE(test::matricesBitwise(c, want_ta)) << t;
        c = op.cEntry;
        gemmTransB(op.a, op.bt, workspace, c, out_rows);
        EXPECT_TRUE(test::matricesBitwise(c, want_tb)) << t;
        c = op.cEntry;
        cbsrGemmTransB(op.ds, op.bt, workspace, c, out_rows);
        EXPECT_TRUE(test::matricesBitwise(c, want_cbsr)) << t;
        cbsrGemmTransA(op.x, op.ds, c, out_rows);
        EXPECT_TRUE(test::matricesBitwise(c, want_cbsr_ta)) << t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmThreadSweep,
    ::testing::Values(GemmShape{1, 5, 1}, GemmShape{2, 7, 7},
                      GemmShape{3, 9, 41}, GemmShape{7, 16, 256},
                      GemmShape{13, 33, 41}, GemmShape{18, 24, 7},
                      GemmShape{67, 40, 256}, GemmShape{129, 17, 41},
                      GemmShape{130, 64, 1},
                      // Past the row block, the term list and the panel.
                      GemmShape{17, 129, 33}, GemmShape{33, 300, 265},
                      GemmShape{47, 130, 9}, GemmShape{16, 128, 31},
                      GemmShape{49, 129, 1}, GemmShape{31, 300, 7},
                      GemmShape{35, 257, 41},
                      // Dropout-like A operands.
                      GemmShape{67, 256, 41, true},
                      GemmShape{40, 300, 265, true},
                      GemmShape{21, 64, 7, true}),
    gemmShapeName);

/**
 * The non-finite contract: an inf in B opposite a zero A entry is
 * skipped by gemmAccum and gemmTransA (their serial loops skipped zero
 * A terms) but folds 0 * inf = NaN in gemmTransB and cbsrGemmTransB
 * (plain dot products, no skip) — at every worker count.
 */
TEST(GemmNonFinite, InfOppositeZeroFollowsEachKernelsSkipRule)
{
    ThreadGuard guard;
    const Float inf = std::numeric_limits<Float>::infinity();
    Rng rng(12);
    Matrix a(9, 6), b(6, 5), at(6, 9), bt(5, 6);
    for (Matrix *m : {&a, &b, &at, &bt})
        fillNormal(*m, rng, 0.0f, 1.0f);
    a.at(4, 2) = 0.0f;  // meets b(2, 3) and bt(3, 2)
    at.at(2, 4) = 0.0f; // meets b(2, 3)
    b.at(2, 3) = inf;
    bt.at(3, 2) = inf;
    const CbsrMatrix ds = gemmCbsrOperand(a, 6); // keeps a(4, 2) = 0

    Matrix want_accum(9, 5), want_ta, want_tb, want_cbsr;
    test::referenceGemmAccum(a, b, want_accum);
    test::referenceGemmTransA(at, b, want_ta);
    test::referenceGemmTransB(a, bt, want_tb);
    test::referenceCbsrGemmTransB(ds, bt, want_cbsr);
    ASSERT_TRUE(std::isfinite(want_accum.at(4, 3)));
    ASSERT_TRUE(std::isfinite(want_ta.at(4, 3)));
    ASSERT_TRUE(std::isnan(want_tb.at(4, 3)));
    ASSERT_TRUE(std::isnan(want_cbsr.at(4, 3)));

    Matrix c, workspace;
    for (std::uint32_t t : kThreadSweep) {
        setDefaultThreads(t);
        gemm(a, b, c);
        EXPECT_TRUE(std::isfinite(c.at(4, 3))) << t;
        EXPECT_TRUE(test::matricesBitwise(c, want_accum)) << t;
        gemmTransA(at, b, c);
        EXPECT_TRUE(std::isfinite(c.at(4, 3))) << t;
        EXPECT_TRUE(test::matricesBitwise(c, want_ta)) << t;
        gemmTransB(a, bt, workspace, c);
        EXPECT_TRUE(std::isnan(c.at(4, 3))) << t;
        EXPECT_TRUE(test::matricesBitwise(c, want_tb)) << t;
        cbsrGemmTransB(ds, bt, workspace, c);
        EXPECT_TRUE(std::isnan(c.at(4, 3))) << t;
        EXPECT_TRUE(test::matricesBitwise(c, want_cbsr)) << t;
    }
}

/* ------------------------------------------ row-set layer forward ---- */

/** (kind, nonlinearity, last layer). */
using RowSetParam = std::tuple<nn::GnnKind, nn::Nonlinearity, bool>;

std::string
rowSetName(const ::testing::TestParamInfo<RowSetParam> &info)
{
    const auto [kind, nonlin, last] = info.param;
    return std::string(nn::gnnKindName(kind)) + "_" +
           nn::nonlinearityName(nonlin) + (last ? "_last" : "_hidden");
}

/** Rows `rows` of a and b hold the same bits. */
::testing::AssertionResult
rowsBitwise(const Matrix &a, const Matrix &b,
            const std::vector<NodeId> &rows)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return ::testing::AssertionFailure() << "shape mismatch";
    for (const NodeId r : rows)
        if (std::memcmp(a.row(r), b.row(r), a.cols() * sizeof(Float)) != 0)
            return ::testing::AssertionFailure() << "row " << r;
    return ::testing::AssertionSuccess();
}

/** CBSR rows `rows` of a and b hold the same indices and value bits. */
::testing::AssertionResult
cbsrRowsBitwise(const CbsrMatrix &a, const CbsrMatrix &b,
                const std::vector<NodeId> &rows)
{
    for (const NodeId r : rows)
        for (std::uint32_t kk = 0; kk < a.dimK(); ++kk)
            if (a.indexAt(r, kk) != b.indexAt(r, kk) ||
                std::memcmp(&a.dataRow(r)[kk], &b.dataRow(r)[kk],
                            sizeof(Float)) != 0)
                return ::testing::AssertionFailure()
                       << "row " << r << " slot " << kk;
    return ::testing::AssertionSuccess();
}

/** Every element outside the rows `rows` is still NaN. */
::testing::AssertionResult
othersStillNan(const Matrix &m, const std::vector<NodeId> &rows)
{
    std::size_t next = 0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
        if (next < rows.size() && rows[next] == r) {
            ++next;
            continue;
        }
        for (std::size_t c = 0; c < m.cols(); ++c)
            if (!std::isnan(m.at(r, c)))
                return ::testing::AssertionFailure()
                       << "row " << r << " was written";
    }
    return ::testing::AssertionSuccess();
}

/**
 * The row-set form of a layer's forward against its padded forward.
 * The targets are a few scattered rows; the compute rows are the
 * targets and their neighbours, exactly the activation rows the
 * targets' aggregation reads. Every input row outside the compute set
 * and every row of every workspace is NaN before the row-set call, so a
 * single read outside the sets would reach the compared rows.
 */
class RowSetForward : public ::testing::TestWithParam<RowSetParam>
{
  protected:
    void
    SetUp() override
    {
        const auto [kind, nonlin, last] = GetParam();
        Rng rng(4242);
        g_ = test::makeGraph(test::GraphShape::ErdosRenyi, 256, 1800, rng,
                             nn::aggregatorFor(kind));
        x_.resize(g_.numNodes(), 24);
        fillNormal(x_, rng, 0.0f, 1.0f);
        nn::GnnLayerConfig cfg;
        cfg.kind = kind;
        cfg.nonlin = nonlin;
        cfg.maxkK = 5;
        cfg.lastLayer = last;
        cfg.ginEps = 0.25f;
        layer_.emplace(cfg, 24, 16, rng, "rows");

        target_ = {3, 17, 42, 64, 99, 127, 200, 255};
        std::vector<char> read(g_.numNodes(), 0);
        for (const NodeId t : target_) {
            read[t] = 1;
            for (EdgeId e = g_.rowPtr()[t]; e < g_.rowPtr()[t + 1]; ++e)
                read[g_.colIdx()[e]] = 1;
        }
        for (NodeId r = 0; r < g_.numNodes(); ++r)
            if (read[r])
                compute_.push_back(r);
        ASSERT_LT(compute_.size(), g_.numNodes() / 2);

        xRows_ = x_;
        std::size_t next = 0;
        for (NodeId r = 0; r < g_.numNodes(); ++r) {
            if (next < compute_.size() && compute_[next] == r) {
                ++next;
                continue;
            }
            std::fill_n(xRows_.row(r), xRows_.cols(), kNan);
        }
    }

    /** NaN in every row of every layer workspace and of `out`. An
     *  all-rows forward of an all-NaN input fills the Linear outputs;
     *  the activation is filled directly, since ReLU maps NaN to 0. */
    void
    poisonWorkspaces(Matrix &out)
    {
        const Matrix nan(x_.rows(), x_.cols(), kNan);
        layer_->forwardCompute(nan, RowSet{});
        layer_->forwardCombine(g_, nan, out, RowSet{});
        out.fill(kNan);
        layer_->activationDense().fill(kNan);
        CbsrMatrix &cbsr = layer_->activationCbsr();
        for (NodeId r = 0; r < cbsr.rows(); ++r)
            std::fill_n(cbsr.dataRow(r), cbsr.dimK(), kNan);
    }

    static constexpr Float kNan = std::numeric_limits<Float>::quiet_NaN();
    CsrGraph g_;
    Matrix x_;
    Matrix xRows_; //!< x_ with every row outside compute_ NaN
    std::optional<nn::GnnLayer> layer_;
    std::vector<NodeId> target_;
    std::vector<NodeId> compute_;
};

TEST_P(RowSetForward, MatchesPaddedForwardOnItsRowsAndReadsNoOther)
{
    ThreadGuard guard;
    setDefaultThreads(1);
    Rng drop(1);
    Matrix want;
    layer_->forward(g_, x_, want, false, drop);
    const CbsrMatrix want_cbsr = layer_->activationCbsr();
    const Matrix want_h = layer_->activationDense();

    for (std::uint32_t t : kThreadSweep) {
        setDefaultThreads(t);
        Matrix out;
        poisonWorkspaces(out);
        layer_->forwardCompute(xRows_, compute_);
        if (layer_->activationIsCbsr())
            EXPECT_TRUE(cbsrRowsBitwise(layer_->activationCbsr(), want_cbsr,
                                        compute_))
                << t;
        else
            EXPECT_TRUE(
                rowsBitwise(layer_->activationDense(), want_h, compute_))
                << t;
        layer_->forwardCombine(g_, xRows_, out, target_);
        EXPECT_TRUE(rowsBitwise(out, want, target_)) << t;
        EXPECT_TRUE(othersStillNan(out, target_)) << t;
    }
}

TEST_P(RowSetForward, EmptySetsWriteNothing)
{
    Matrix out;
    poisonWorkspaces(out);
    const std::vector<NodeId> none;
    layer_->forwardCompute(xRows_, none);
    layer_->forwardCombine(g_, xRows_, out, none);
    EXPECT_TRUE(othersStillNan(out, none));
}

TEST_P(RowSetForward, AllRowsSetIsThePaddedForward)
{
    ThreadGuard guard;
    setDefaultThreads(1);
    Rng drop(1);
    Matrix want;
    layer_->forward(g_, x_, want, false, drop);
    std::vector<NodeId> every(g_.numNodes());
    for (NodeId r = 0; r < g_.numNodes(); ++r)
        every[r] = r;
    for (std::uint32_t t : kThreadSweep) {
        setDefaultThreads(t);
        Matrix out;
        poisonWorkspaces(out);
        layer_->forwardCompute(x_, RowSet{});
        layer_->forwardCombine(g_, x_, out, RowSet{});
        EXPECT_TRUE(test::matricesBitwise(out, want)) << t;
        poisonWorkspaces(out);
        layer_->forwardCompute(x_, every);
        layer_->forwardCombine(g_, x_, out, every);
        EXPECT_TRUE(test::matricesBitwise(out, want)) << t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    KindsNonlinLast, RowSetForward,
    ::testing::Combine(::testing::Values(nn::GnnKind::Sage,
                                         nn::GnnKind::Gcn,
                                         nn::GnnKind::Gin),
                       ::testing::Values(nn::Nonlinearity::Relu,
                                         nn::Nonlinearity::MaxK),
                       ::testing::Bool()),
    rowSetName);

} // namespace
} // namespace maxk
