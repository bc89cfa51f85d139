/**
 * @file
 * google-benchmark microbenchmarks of the host-side hot paths: MaxK
 * pivot selection, CBSR (de)compression, the fast aggregation loops,
 * the Linear GEMMs, and the cache model itself. These measure the
 * reproduction's own throughput (host wall-clock), complementing the
 * simulated-GPU numbers the table/figure benches report.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/linear_backward_cbsr.hh"
#include "core/maxk.hh"
#include "gpusim/cache.hh"
#include "graph/edge_groups.hh"
#include "graph/generators.hh"
#include "nn/gnn_layer.hh"
#include "nn/linear.hh"
#include "tensor/init.hh"
#include "tensor/ops.hh"

namespace maxk
{
namespace
{

void
BM_PivotSelect(benchmark::State &state)
{
    const std::uint32_t dim = 256;
    const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
    Rng rng(1);
    Matrix x(64, dim);
    fillNormal(x, rng, 0.0f, 1.0f);
    std::vector<std::uint32_t> sel;
    std::size_t row = 0;
    for (auto _ : state) {
        pivotSelect(x.row(row % 64), dim, k, sel);
        benchmark::DoNotOptimize(sel.data());
        ++row;
    }
    state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_PivotSelect)->Arg(8)->Arg(32)->Arg(128);

void
BM_MaxkCompressFast(benchmark::State &state)
{
    Rng rng(2);
    Matrix x(1024, 256);
    fillNormal(x, rng, 0.0f, 1.0f);
    CbsrMatrix out;
    for (auto _ : state) {
        nn::maxkCompressFast(x, static_cast<std::uint32_t>(
                                    state.range(0)),
                             out);
        benchmark::DoNotOptimize(out.rows());
    }
    state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_MaxkCompressFast)->Arg(16)->Arg(64);

void
BM_CbsrDecompress(benchmark::State &state)
{
    Rng rng(3);
    Matrix x(1024, 256);
    fillNormal(x, rng, 0.0f, 1.0f);
    CbsrMatrix cbsr;
    nn::maxkCompressFast(x, 32, cbsr);
    Matrix dense;
    for (auto _ : state) {
        cbsr.decompress(dense);
        benchmark::DoNotOptimize(dense.data());
    }
}
BENCHMARK(BM_CbsrDecompress);

void
BM_AggregateCbsr(benchmark::State &state)
{
    Rng rng(4);
    CsrGraph g = rmat(12, 200000, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    Matrix x(g.numNodes(), 256);
    fillNormal(x, rng, 0.0f, 1.0f);
    CbsrMatrix cbsr;
    nn::maxkCompressFast(x, static_cast<std::uint32_t>(state.range(0)),
                         cbsr);
    Matrix y;
    for (auto _ : state) {
        nn::aggregateCbsr(g, cbsr, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numEdges() *
                            state.range(0));
}
BENCHMARK(BM_AggregateCbsr)->Arg(8)->Arg(32);

void
BM_AggregateDense(benchmark::State &state)
{
    Rng rng(5);
    CsrGraph g = rmat(12, 200000, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    Matrix x(g.numNodes(), static_cast<std::size_t>(state.range(0)));
    fillNormal(x, rng, 0.0f, 1.0f);
    Matrix y;
    for (auto _ : state) {
        nn::aggregateDense(g, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numEdges() *
                            state.range(0));
}
BENCHMARK(BM_AggregateDense)->Arg(64)->Arg(256);

/* ------------------------------------------------ thread scaling ----- */
// Wall-clock scaling of the row-parallel hot paths over the worker
// count (Arg = MAXK_THREADS equivalent). Results are bitwise-identical
// across counts, so items/s differences are pure scheduling. Compare
// e.g. BM_AggregateDenseThreads/1 vs /4 for the host-side speedup.

void
BM_AggregateDenseThreads(benchmark::State &state)
{
    setDefaultThreads(static_cast<std::uint32_t>(state.range(0)));
    Rng rng(8);
    CsrGraph g = rmat(12, 200000, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    Matrix x(g.numNodes(), 256);
    fillNormal(x, rng, 0.0f, 1.0f);
    Matrix y;
    for (auto _ : state) {
        nn::aggregateDense(g, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numEdges() * 256);
    setDefaultThreads(0);
}
BENCHMARK(BM_AggregateDenseThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void
BM_AggregateCbsrThreads(benchmark::State &state)
{
    setDefaultThreads(static_cast<std::uint32_t>(state.range(0)));
    Rng rng(9);
    CsrGraph g = rmat(12, 200000, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    Matrix x(g.numNodes(), 256);
    fillNormal(x, rng, 0.0f, 1.0f);
    CbsrMatrix cbsr;
    nn::maxkCompressFast(x, 32, cbsr);
    Matrix y;
    for (auto _ : state) {
        nn::aggregateCbsr(g, cbsr, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numEdges() * 32);
    setDefaultThreads(0);
}
BENCHMARK(BM_AggregateCbsrThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void
BM_MaxkCompressFastThreads(benchmark::State &state)
{
    setDefaultThreads(static_cast<std::uint32_t>(state.range(0)));
    Rng rng(10);
    Matrix x(8192, 256);
    fillNormal(x, rng, 0.0f, 1.0f);
    CbsrMatrix out;
    for (auto _ : state) {
        nn::maxkCompressFast(x, 32, out);
        benchmark::DoNotOptimize(out.rows());
    }
    state.SetItemsProcessed(state.iterations() * x.size());
    setDefaultThreads(0);
}
BENCHMARK(BM_MaxkCompressFastThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void
BM_AggregateCbsrBackwardThreads(benchmark::State &state)
{
    // Scatter-shaped backward path: >1 worker takes the stable
    // transpose-gather branch (the transpose is rebuilt per call, so
    // this also prices that overhead honestly).
    setDefaultThreads(static_cast<std::uint32_t>(state.range(0)));
    Rng rng(11);
    CsrGraph g = rmat(12, 200000, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    Matrix x(g.numNodes(), 256);
    fillNormal(x, rng, 0.0f, 1.0f);
    CbsrMatrix pattern;
    nn::maxkCompressFast(x, 32, pattern);
    CbsrMatrix dxs;
    dxs.adoptPattern(pattern);
    for (auto _ : state) {
        nn::aggregateCbsrBackward(g, x, dxs);
        benchmark::DoNotOptimize(dxs.rows());
    }
    state.SetItemsProcessed(state.iterations() * g.numEdges() * 32);
    setDefaultThreads(0);
}
BENCHMARK(BM_AggregateCbsrBackwardThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The Linear GEMMs at full-reddit-maxk's layer-1 shape: 4,096 nodes,
// 256 -> 256. Items are multiply-adds of the dense product.
constexpr std::size_t kGemmRows = 4096;
constexpr std::size_t kGemmDim = 256;

/** Zero about half of m's entries, as dropout 0.5 zeroes a layer input
 *  and ReLU about half of its gradient. */
void
zeroHalf(Matrix &m, Rng &rng)
{
    Float *p = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        if (rng.bernoulli(0.5f))
            p[i] = 0.0f;
}

// Args = {workers, zero}: zero = 1 zeroes half of x first.
void
BM_GemmThreads(benchmark::State &state)
{
    setDefaultThreads(static_cast<std::uint32_t>(state.range(0)));
    Rng rng(12);
    Matrix x(kGemmRows, kGemmDim), w(kGemmDim, kGemmDim);
    fillNormal(x, rng, 0.0f, 1.0f);
    fillNormal(w, rng, 0.0f, 0.1f);
    if (state.range(1) != 0)
        zeroHalf(x, rng);
    Matrix y;
    for (auto _ : state) {
        gemm(x, w, y);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kGemmRows * kGemmDim *
                            kGemmDim);
    setDefaultThreads(0);
}
BENCHMARK(BM_GemmThreads)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->UseRealTime();

/**
 * Every Linear GEMM entry at one worker on the layer shapes the host
 * benchmark trains, N x in -> out: full-reddit-maxk's three SAGE layers
 * and sampled-flickr-relu's two frontier layers (~1,387 and ~344 rows).
 * Each entry gets its training operands: x (N x in) feeds gemm,
 * gemmTransA and cbsrGemmTransA, dy (N x out) gemmTransB, and its
 * MaxK k = 32 CBSR form the CBSR entries (out = 256 only). The
 * "zero50" operands have about half of x and dy zeroed, as dropout 0.5
 * and ReLU leave them; gemmTransB and cbsrGemmTransB fold every term,
 * so only the others can gain from it. Items are multiply-adds of the
 * dense product.
 */
struct LinearShape
{
    std::size_t n, in, out;
};

constexpr LinearShape kLinearShapes[] = {
    {4096, 64, 256}, {4096, 256, 256}, {4096, 256, 41},
    {1387, 64, 64},  {344, 64, 7},
};

enum class LinearGemm
{
    Gemm,
    GemmTransA,
    GemmTransB,
    CbsrGemmTransA,
    CbsrGemmTransB,
};

void
BM_LinearGemm(benchmark::State &state, LinearGemm entry, LinearShape s,
              bool zero)
{
    setDefaultThreads(1);
    Rng rng(14);
    Matrix x(s.n, s.in), w(s.in, s.out), dy(s.n, s.out);
    fillNormal(x, rng, 0.0f, 1.0f);
    fillNormal(w, rng, 0.0f, 0.1f);
    fillNormal(dy, rng, 0.0f, 1.0f);
    if (zero) {
        zeroHalf(x, rng);
        zeroHalf(dy, rng);
    }
    const bool cbsr = entry == LinearGemm::CbsrGemmTransA ||
                      entry == LinearGemm::CbsrGemmTransB;
    CbsrMatrix dys;
    if (cbsr)
        nn::maxkCompressFast(dy, 32, dys);
    Matrix out, workspace;
    for (auto _ : state) {
        switch (entry) {
          case LinearGemm::Gemm: gemm(x, w, out); break;
          case LinearGemm::GemmTransA: gemmTransA(x, dy, out); break;
          case LinearGemm::GemmTransB:
            gemmTransB(dy, w, workspace, out);
            break;
          case LinearGemm::CbsrGemmTransA: cbsrGemmTransA(x, dys, out); break;
          case LinearGemm::CbsrGemmTransB:
            cbsrGemmTransB(dys, w, workspace, out);
            break;
        }
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * s.n * s.in *
                            (cbsr ? 32 : s.out));
    setDefaultThreads(0);
}

[[maybe_unused]] const bool kLinearGemmsRegistered = [] {
    const std::pair<LinearGemm, const char *> entries[] = {
        {LinearGemm::Gemm, "gemm"},
        {LinearGemm::GemmTransA, "gemmTransA"},
        {LinearGemm::GemmTransB, "gemmTransB"},
        {LinearGemm::CbsrGemmTransA, "cbsrGemmTransA"},
        {LinearGemm::CbsrGemmTransB, "cbsrGemmTransB"},
    };
    for (const auto &[entry, name] : entries)
        for (const LinearShape &s : kLinearShapes) {
            const bool cbsr = entry == LinearGemm::CbsrGemmTransA ||
                              entry == LinearGemm::CbsrGemmTransB;
            if (cbsr && s.out != 256)
                continue;
            for (const bool zero : {false, true}) {
                const std::string label =
                    std::string("BM_LinearGemm/") + name + "/" +
                    std::to_string(s.n) + "x" + std::to_string(s.in) +
                    "->" + std::to_string(s.out) +
                    (zero ? "/zero50" : "/dense");
                benchmark::RegisterBenchmark(label.c_str(), BM_LinearGemm,
                                             entry, s, zero)
                    ->Unit(benchmark::kMillisecond)
                    ->UseRealTime();
            }
        }
    return true;
}();

// Args = {workers, k}: k = 0 runs the dense backward (gemmTransA +
// gemmTransB), k > 0 the CBSR one on a MaxK-k gradient.
void
BM_LinearBackwardThreads(benchmark::State &state)
{
    setDefaultThreads(static_cast<std::uint32_t>(state.range(0)));
    const auto k = static_cast<std::uint32_t>(state.range(1));
    Rng rng(13);
    nn::Linear lin(kGemmDim, kGemmDim, rng, "lin");
    Matrix x(kGemmRows, kGemmDim), dy(kGemmRows, kGemmDim);
    fillNormal(x, rng, 0.0f, 1.0f);
    fillNormal(dy, rng, 0.0f, 1.0f);
    CbsrMatrix dys;
    if (k > 0)
        nn::maxkCompressFast(dy, k, dys);
    Matrix dx;
    for (auto _ : state) {
        if (k > 0)
            lin.backward(x, dys, dx);
        else
            lin.backward(x, dy, dx);
        benchmark::DoNotOptimize(dx.data());
        benchmark::ClobberMemory();
    }
    const std::size_t cols = k > 0 ? k : kGemmDim;
    state.SetItemsProcessed(state.iterations() * 2 * kGemmRows * cols *
                            kGemmDim);
    setDefaultThreads(0);
}
BENCHMARK(BM_LinearBackwardThreads)
    ->ArgsProduct({{1, 2, 4}, {0, 32}})
    ->UseRealTime();

void
BM_EdgeGroupPartition(benchmark::State &state)
{
    Rng rng(6);
    CsrGraph g = rmat(13, 400000, rng);
    for (auto _ : state) {
        auto part = EdgeGroupPartition::build(g, 32);
        benchmark::DoNotOptimize(part.groups().size());
    }
    state.SetItemsProcessed(state.iterations() * g.numEdges());
}
BENCHMARK(BM_EdgeGroupPartition);

void
BM_CacheModelAccess(benchmark::State &state)
{
    gpusim::CacheModel cache(1 << 20, 16, 128);
    Rng rng(7);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        addr = rng.next() & ((1 << 24) - 1);
        benchmark::DoNotOptimize(cache.access(addr, false).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheModelAccess);

} // namespace
} // namespace maxk

BENCHMARK_MAIN();
