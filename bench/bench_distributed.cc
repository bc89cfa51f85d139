/**
 * @file
 * Sharded-execution bench: really runs rank-based partition-parallel
 * training (dist::ShardedTrainer) and reconciles the measured
 * Communicator traffic against the analytical profileDistributedEpoch
 * model, for the ReLU baseline vs MaxK-GNN at 2/4/8 ranks.
 *
 * With --json it emits maxk-perf-v1 records gated by
 * tools/maxk-perf-check (baseline bench/baselines/distributed.json):
 *
 *   kernel "halo-train":  dram_bytes = measured Halo-channel bytes of
 *                         the training epochs, l2_req_bytes = the
 *                         analytical model's total for the same epochs
 *                         (the gate thereby pins their agreement),
 *                         sim_seconds = modeled exchange seconds/epoch,
 *                         alloc_count = steady-state Matrix/CBSR heap
 *                         allocations across ALL ranks (0 when warm);
 *   kernel "shard-compute": sim_seconds = modeled slowest-shard compute
 *                         seconds/epoch, dram_bytes = replica count.
 *
 * All metrics are structural (topology + shapes, cache model off), so
 * the records are bit-identical across machines and thread counts.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/table.hh"
#include "dist/sharded_trainer.hh"
#include "nn/distributed.hh"

using namespace maxk;

namespace
{

nn::ModelConfig
modelFor(nn::Nonlinearity nonlin, const TrainingTask &task)
{
    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Sage;
    cfg.nonlin = nonlin;
    cfg.maxkK = 16;
    cfg.numLayers = 3;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = 64;
    cfg.outDim = task.numClasses;
    cfg.dropout = 0.3f;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBench(argc, argv);
    bench::banner("Sharded execution: rank-parallel training with CBSR "
                  "halo exchange (measured vs model)");

    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = 600;
    task.accuracyAvgDegree = 10.0;
    Rng rng(404);
    TrainingData data = materializeTrainingData(task, rng);

    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.evalEvery = 100; // evals at the first and last epoch only

    SimOptions opt;
    opt.simulateCaches = false;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);

    std::vector<std::uint32_t> rank_sweep{2, 4, 8};
    bench::smokeShrink(rank_sweep);

    TextTable table({"ranks", "method", "replicas", "halo KB (meas)",
                     "halo KB (model)", "compute ms", "exchange ms",
                     "imbalance", "steady allocs", "final acc"});
    for (const std::uint32_t ranks : rank_sweep) {
        Rng prng(171);
        const Partition parts = bfsPartition(data.graph, ranks, prng);
        nn::ClusterConfig cluster;
        cluster.numGpus = ranks;

        for (const auto nonlin :
             {nn::Nonlinearity::Relu, nn::Nonlinearity::MaxK}) {
            const nn::ModelConfig cfg = modelFor(nonlin, task);
            dist::ShardedTrainer sharded(cfg, data, task, parts);
            const dist::ShardedTrainResult run = sharded.run(tc);
            const auto model = nn::profileDistributedEpoch(
                cfg, data.graph, parts, cluster, opt);
            const std::uint64_t model_bytes =
                model.exchangedBytes * tc.epochs;

            table.addRow(
                {std::to_string(ranks),
                 nonlin == nn::Nonlinearity::MaxK ? "MaxK-GNN k=16"
                                                  : "ReLU baseline",
                 std::to_string(model.boundaryReplicas),
                 formatFloat(run.trainHaloBytes / 1e3, 2),
                 formatFloat(model_bytes / 1e3, 2),
                 formatFloat(model.computeSeconds * 1e3, 3),
                 formatFloat(model.exchangeSeconds * 1e3, 3),
                 formatFloat(model.imbalance, 3),
                 std::to_string(run.train.steadyStateAllocCount),
                 formatFloat(run.train.finalTestMetric, 3)});

            if (bench::perfEnabled()) {
                const std::uint32_t k_field =
                    nonlin == nn::Nonlinearity::MaxK ? cfg.maxkK : 0;
                bench::PerfRecord halo;
                halo.bench = "bench_distributed";
                halo.kernel = "halo-train";
                halo.graph = task.info.name + "-acc/r" +
                             std::to_string(ranks);
                halo.dim =
                    static_cast<std::uint32_t>(cfg.hiddenDim);
                halo.k = k_field;
                halo.simSeconds = model.exchangeSeconds;
                halo.dramBytes = run.trainHaloBytes;
                halo.l2ReqBytes = model_bytes;
                halo.peakWorkspaceBytes = 0;
                halo.allocCount = run.train.steadyStateAllocCount;
                bench::perfRecords().push_back(halo);

                bench::PerfRecord compute;
                compute.bench = "bench_distributed";
                compute.kernel = "shard-compute";
                compute.graph = halo.graph;
                compute.dim = halo.dim;
                compute.k = k_field;
                compute.simSeconds = model.computeSeconds;
                compute.dramBytes = model.boundaryReplicas;
                bench::perfRecords().push_back(compute);
            }
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Takeaways: measured halo traffic equals the replica-exact "
        "model; MaxK ships CBSR\nrows ((4+idx)*k bytes) on the hidden "
        "layers instead of 4*dim, so its exchange\nvolume shrinks on "
        "top of the kernel speedup; steady-state epochs allocate "
        "nothing.\n");
    bench::writePerfReport();
    return 0;
}
