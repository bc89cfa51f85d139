/**
 * @file
 * Fig. 8 reproduction: forward SpGEMM and backward SSpMM speedup over
 * the cuSPARSE-like and GNNAdvisor-like SpMM baselines across all 24
 * Table-1 graphs and the paper's k sweep (dim_origin = 256).
 *
 * Reported exactly as the figure's four series per graph:
 *   SpGEMM/cuSPARSE, SSpMM/cuSPARSE, SpGEMM/GNNA, SSpMM/GNNA.
 *
 * Expected shape: speedup grows as k shrinks and saturates below k~8;
 * high-average-degree graphs (Reddit, ddi, ogbn-proteins, ppa,
 * ogbn-products) show the largest gains; k <= 128 wins nearly
 * everywhere against GNNA and in most cases against cuSPARSE.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/stopwatch.hh"
#include "common/table.hh"
#include "core/maxk.hh"
#include "core/spgemm_forward.hh"
#include "core/sspmm_backward.hh"
#include "kernels/registry.hh"
#include "kernels/spmm_gnna.hh"
#include "kernels/spmm_row_wise.hh"
#include "tensor/init.hh"

using namespace maxk;

namespace
{
constexpr std::uint32_t kDimOrigin = 256;

struct GraphResult
{
    std::string name;
    double avgDeg;
    double tSpmmCusp, tSpmmGnna;
    std::string selectorPick;   //!< adaptive SpMM pick for this twin
    std::string selectorReason;
    std::vector<double> spgemmVsCusp, sspmmVsCusp;
    std::vector<double> spgemmVsGnna, sspmmVsGnna;
};

/**
 * Perf-report pass (--json): rerun each kernel with the cache model off
 * so every recorded byte is structural — deterministic across runs and
 * machines, which is what lets tools/maxk-perf-check hold tight
 * regression thresholds against bench/baselines/fig8_smoke.json. Each
 * configuration is warmed once so the records capture the steady-state
 * (zero-allocation) launch.
 */
void
recordPerf(const std::string &graph_name, const bench::TwinBundle &twin,
           const Matrix &x, const std::vector<std::uint32_t> &ks)
{
    SimOptions opt = twin.opt;
    opt.simulateCaches = false;

    Matrix y;
    spmmRowWise(twin.graph, x, y, opt);
    bench::recordKernel("fig8", graph_name, kDimOrigin, 0, [&] {
        return spmmRowWise(twin.graph, x, y, opt);
    });
    spmmGnna(twin.graph, twin.part, x, y, opt);
    bench::recordKernel("fig8", graph_name, kDimOrigin, 0, [&] {
        return spmmGnna(twin.graph, twin.part, x, y, opt);
    });

    for (const std::uint32_t k : ks) {
        MaxKResult mk;
        maxkCompress(x, k, opt, mk);
        bench::recordKernel("fig8", graph_name, kDimOrigin, k, [&] {
            maxkCompress(x, k, opt, mk);
            return mk.stats;
        });
        spgemmForward(twin.graph, twin.part, mk.cbsr, y, opt);
        bench::recordKernel("fig8", graph_name, kDimOrigin, k, [&] {
            return spgemmForward(twin.graph, twin.part, mk.cbsr, y, opt);
        });
        CbsrMatrix fused_cbsr;
        Matrix y_fused;
        spgemmForwardFused(twin.graph, twin.part, x, k, fused_cbsr,
                           y_fused, opt);
        bench::recordKernel("fig8", graph_name, kDimOrigin, k, [&] {
            return spgemmForwardFused(twin.graph, twin.part, x, k,
                                      fused_cbsr, y_fused, opt);
        });
        CbsrMatrix dxs;
        dxs.adoptPattern(mk.cbsr);
        sspmmBackward(twin.graph, twin.part, y, dxs, opt);
        bench::recordKernel("fig8", graph_name, kDimOrigin, k, [&] {
            return sspmmBackward(twin.graph, twin.part, y, dxs, opt);
        });
    }
}

GraphResult
runGraph(const DatasetInfo &info, const std::vector<std::uint32_t> &ks)
{
    bench::TwinBundle twin =
        bench::makeTwin(info, kDimOrigin, Aggregator::SageMean);
    GraphResult r;
    r.name = info.name;
    r.avgDeg = twin.graph.avgDegree();
    r.selectorPick = std::string(
        kernels::resolveSpmmVariant("auto", twin.graph, kDimOrigin, 0,
                                    twin.opt, &r.selectorReason)
            .name);

    Rng rng(9000 + twin.graph.numNodes());
    Matrix x(twin.graph.numNodes(), kDimOrigin);
    fillNormal(x, rng, 0.0f, 1.0f);

    Matrix y;
    r.tSpmmCusp = spmmRowWise(twin.graph, x, y, twin.opt).totalSeconds;
    r.tSpmmGnna =
        spmmGnna(twin.graph, twin.part, x, y, twin.opt).totalSeconds;

    for (const std::uint32_t k : ks) {
        MaxKResult mk = maxkCompress(x, k, twin.opt);
        const double t_fwd =
            spgemmForward(twin.graph, twin.part, mk.cbsr, y, twin.opt)
                .totalSeconds;
        CbsrMatrix dxs;
        dxs.adoptPattern(mk.cbsr);
        const double t_bwd =
            sspmmBackward(twin.graph, twin.part, y, dxs, twin.opt)
                .totalSeconds;
        r.spgemmVsCusp.push_back(r.tSpmmCusp / t_fwd);
        r.sspmmVsCusp.push_back(r.tSpmmCusp / t_bwd);
        r.spgemmVsGnna.push_back(r.tSpmmGnna / t_fwd);
        r.sspmmVsGnna.push_back(r.tSpmmGnna / t_bwd);
    }

    if (bench::perfEnabled())
        recordPerf(info.name, twin, x, ks);
    return r;
}

void
printSeries(const char *title, const std::vector<GraphResult> &results,
            const std::vector<std::uint32_t> &ks,
            std::vector<double> GraphResult::*series)
{
    std::vector<std::string> headers{"Graph", "avg deg"};
    for (auto k : ks)
        headers.push_back("k=" + std::to_string(k));
    TextTable table(std::move(headers));
    for (const auto &r : results) {
        std::vector<std::string> row{r.name, formatFloat(r.avgDeg, 0)};
        for (double s : r.*series)
            row.push_back(formatFloat(s, 2));
        table.addRow(std::move(row));
    }
    std::printf("\n-- %s --\n%s", title, table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBench(argc, argv);
    bench::banner("Fig. 8: SpGEMM / SSpMM kernel speedup over SpMM "
                  "baselines (dim_origin = 256)");

    const auto ks = bench::fastMode()
                        ? std::vector<std::uint32_t>{8, 32, 128}
                        : bench::paperKSweep();
    const auto &suite = kernelSuite();
    const std::size_t limit = bench::fastMode() ? 4 : suite.size();

    Stopwatch watch;
    std::vector<GraphResult> results;
    for (std::size_t i = 0; i < limit; ++i) {
        results.push_back(runGraph(suite[i], ks));
        std::fprintf(stderr, "  [%zu/%zu] %s done (%.1fs)\n", i + 1,
                     limit, suite[i].name.c_str(),
                     watch.elapsedNs() * 1e-9);
    }

    // What the adaptive selector would run for the dense SpMM baseline
    // of each dataset ("auto" resolved at the same launch shape).
    TextTable picks({"Graph", "avg deg", "adaptive SpMM pick", "why"});
    for (const auto &r : results)
        picks.addRow({r.name, formatFloat(r.avgDeg, 0), r.selectorPick,
                      r.selectorReason});
    std::printf("\n-- Adaptive selector picks (dim_origin = 256) --\n%s",
                picks.render().c_str());

    printSeries("MaxK-GNN forward SpGEMM speedup vs cuSPARSE SpMM",
                results, ks, &GraphResult::spgemmVsCusp);
    printSeries("MaxK-GNN backward SSpMM speedup vs cuSPARSE SpMM",
                results, ks, &GraphResult::sspmmVsCusp);
    printSeries("MaxK-GNN forward SpGEMM speedup vs GNNAdvisor SpMM",
                results, ks, &GraphResult::spgemmVsGnna);
    printSeries("MaxK-GNN backward SSpMM speedup vs GNNAdvisor SpMM",
                results, ks, &GraphResult::sspmmVsGnna);

    // Paper's headline aggregate: average speedup on graphs with avg
    // degree > 50 at k = 8/16/32/64 (Sec. 5.2).
    std::printf("\n-- Aggregate: graphs with average degree > 50 --\n");
    TextTable agg({"k", "SpGEMM/cuSP (paper 4.63/4.15/2.54/1.46)",
                   "SSpMM/cuSP (paper 6.93/5.39/2.55/1.46)",
                   "SpGEMM/GNNA (paper 6.39/5.71/3.50/2.02)",
                   "SSpMM/GNNA (paper 9.57/7.46/3.55/2.04)"});
    for (const std::uint32_t target_k : {8u, 16u, 32u, 64u}) {
        std::size_t ki = ks.size();
        for (std::size_t i = 0; i < ks.size(); ++i)
            if (ks[i] == target_k)
                ki = i;
        if (ki == ks.size())
            continue;
        double s1 = 0, s2 = 0, s3 = 0, s4 = 0;
        int n = 0;
        for (const auto &r : results) {
            if (r.avgDeg <= 50.0)
                continue;
            s1 += r.spgemmVsCusp[ki];
            s2 += r.sspmmVsCusp[ki];
            s3 += r.spgemmVsGnna[ki];
            s4 += r.sspmmVsGnna[ki];
            ++n;
        }
        if (n == 0)
            continue;
        agg.addRow({std::to_string(target_k), formatFloat(s1 / n, 2),
                    formatFloat(s2 / n, 2), formatFloat(s3 / n, 2),
                    formatFloat(s4 / n, 2)});
    }
    std::printf("%s\n", agg.render().c_str());

    // Coverage claim: fraction of (graph, k<=128) cases with speedup.
    int wins_cusp = 0, wins_gnna = 0, cases = 0;
    for (const auto &r : results)
        for (std::size_t i = 0; i < ks.size(); ++i) {
            if (ks[i] > 128)
                continue;
            ++cases;
            wins_cusp += r.spgemmVsCusp[i] > 1.0 ? 1 : 0;
            wins_gnna += r.spgemmVsGnna[i] > 1.0 ? 1 : 0;
        }
    std::printf("SpGEMM wins at k<=128: %.1f%% vs cuSPARSE (paper "
                "92.2%%), %.1f%% vs GNNA (paper 100%%)\n",
                100.0 * wins_cusp / cases, 100.0 * wins_gnna / cases);
    std::printf("Total bench time: %.1fs\n", watch.elapsedNs() * 1e-9);
    bench::writePerfReport();
    return 0;
}
