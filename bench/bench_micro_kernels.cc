/**
 * @file
 * google-benchmark microbenchmarks of the host-side hot paths: MaxK
 * pivot selection, CBSR (de)compression, the fast aggregation loops,
 * the Linear GEMMs, and the cache model itself. These measure the
 * reproduction's own throughput (host wall-clock), complementing the
 * simulated-GPU numbers the table/figure benches report.
 */

#include <benchmark/benchmark.h>

#include "common/parallel.hh"
#include "common/rng.hh"
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

void
BM_GemmThreads(benchmark::State &state)
{
    setDefaultThreads(static_cast<std::uint32_t>(state.range(0)));
    Rng rng(12);
    Matrix x(kGemmRows, kGemmDim), w(kGemmDim, kGemmDim);
    fillNormal(x, rng, 0.0f, 1.0f);
    fillNormal(w, rng, 0.0f, 0.1f);
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
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

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
