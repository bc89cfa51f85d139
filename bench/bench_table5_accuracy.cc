/**
 * @file
 * Table 5 reproduction: accuracy AND speedup of MaxK-GNN against the
 * ReLU baseline for SAGE / GCN / GIN on the five evaluation datasets,
 * at two k values per model (the paper picks the best-performing k).
 *
 * Accuracy comes from real full-batch training on the SBM accuracy
 * twins (hidden 64; k scaled to preserve the paper's k/hidden density).
 * Speedups come from the simulated epoch profiles on the kernel twins
 * at the Table 3 architecture, as in Fig. 9.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/stopwatch.hh"
#include "common/table.hh"
#include "kernels/registry.hh"
#include "nn/trainer.hh"

using namespace maxk;

namespace
{

constexpr std::size_t kAccuracyHidden = 64;

/** Paper k values reported per dataset (SAGE row of Table 5). */
std::pair<std::uint32_t, std::uint32_t>
paperKs(const std::string &name)
{
    if (name == "Reddit")
        return {32, 16};
    if (name == "ogbn-proteins")
        return {64, 32};
    if (name == "ogbn-products")
        return {32, 16};
    if (name == "Yelp")
        return {96, 32};
    return {32, 8}; // Flickr
}

double
trainOnce(const TrainingTask &task, TrainingData data, nn::GnnKind kind,
          nn::Nonlinearity nonlin, std::uint32_t k_scaled)
{
    nn::ModelConfig cfg;
    cfg.kind = kind;
    cfg.nonlin = nonlin;
    cfg.maxkK = k_scaled;
    cfg.numLayers = 2;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = kAccuracyHidden;
    cfg.outDim = task.numClasses;
    cfg.dropout = 0.1f;
    cfg.seed = 1234;
    nn::GnnModel model(cfg);
    nn::Trainer trainer(model, data, task);
    nn::TrainConfig tc;
    tc.epochs = bench::fastMode() ? 30 : 80;
    tc.lr = 0.01f;
    tc.evalEvery = 10;
    return trainer.run(tc).testAtBestVal;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBench(argc, argv);
    bench::banner("Table 5: MaxK-GNN accuracy & speedup vs ReLU "
                  "baseline (DGL/cuSPARSE and GNNAdvisor)");
    std::printf("Accuracy: SBM twin, hidden %zu, k scaled by "
                "hidden/256 to preserve density.\n"
                "Speedup: simulated epoch profile at Table 3 scale "
                "(hidden 256/384).\n",
                kAccuracyHidden);

    Stopwatch watch;
    std::vector<nn::GnnKind> models = {nn::GnnKind::Sage,
                                       nn::GnnKind::Gcn,
                                       nn::GnnKind::Gin};
    bench::smokeShrink(models);
    std::vector<TrainingTask> tasks = trainingSuite();
    bench::smokeShrink(tasks);

    for (const auto &task : tasks) {
        const auto [k_hi, k_lo] = paperKs(task.info.name);
        bench::TwinBundle twin =
            bench::makeTwin(task.info, 256, Aggregator::SageMean);

        std::printf("\n### %s (metric: %s) ###\n",
                    task.info.name.c_str(), metricName(task.metric));
        TextTable table({"model", "method", "k(paper)", "k(scaled)",
                         "metric", "spd cuSP.", "spd GNNA."});

        for (const nn::GnnKind kind : models) {
            twin.graph.setAggregatorWeights(nn::aggregatorFor(kind));
            nn::ModelConfig prof;
            prof.kind = kind;
            prof.nonlin = nn::Nonlinearity::Relu;
            prof.numLayers = 3;
            prof.inDim = 128;
            prof.hiddenDim = 256;
            prof.outDim = task.numClasses;
            const double t_cusp =
                nn::profileEpoch(prof, twin.graph, twin.part, twin.opt)
                    .total();
            const double t_gnna =
                nn::profileEpoch(prof, twin.graph, twin.part, twin.opt,
                                 kernels::kernelVariantOrDie("spmm_gnna"))
                    .total();

            Rng rng(777);
            TrainingData data = materializeTrainingData(task, rng);

            const double base_metric =
                trainOnce(task, data, kind, nn::Nonlinearity::Relu, 0);
            table.addRow({nn::gnnKindName(kind), "baseline", "-", "-",
                          formatFloat(base_metric, 4), "1.00x",
                          formatFloat(t_gnna / t_cusp, 2) + "x vs self"});

            for (const std::uint32_t k : {k_hi, k_lo}) {
                const std::uint32_t k_scaled = std::max<std::uint32_t>(
                    1, k * kAccuracyHidden / 256);
                const double metric = trainOnce(
                    task, data, kind, nn::Nonlinearity::MaxK, k_scaled);
                nn::ModelConfig mcfg = prof;
                mcfg.nonlin = nn::Nonlinearity::MaxK;
                mcfg.maxkK = k;
                const double t_maxk =
                    nn::profileEpoch(mcfg, twin.graph, twin.part,
                                     twin.opt)
                        .total();
                table.addRow({nn::gnnKindName(kind), "MaxK-GNN",
                              std::to_string(k),
                              std::to_string(k_scaled),
                              formatFloat(metric, 4),
                              formatSpeedup(t_cusp / t_maxk),
                              formatSpeedup(t_gnna / t_maxk)});
            }
        }
        std::printf("%s", table.render().c_str());
        std::fprintf(stderr, "  [%s done, %.1fs]\n",
                     task.info.name.c_str(),
                     watch.elapsedNs() * 1e-9);
    }

    std::printf("\nExpected shape (paper Table 5): MaxK at the larger "
                "k matches baseline metric\n(sometimes exceeding it); "
                "the smaller k trades a little metric for more "
                "speedup;\nReddit-class datasets reach ~2-4.5x, "
                "Flickr/Yelp-class 1.05-1.4x.\nTotal bench time: "
                "%.1fs\n",
                watch.elapsedNs() * 1e-9);
    return 0;
}
