/**
 * @file
 * Extension bench: MaxK-GNN under partition-parallel full-graph
 * training (the BNS-GCN deployment the paper cites as compatible,
 * Sec. 1). For 1-8 simulated GPUs on the ogbn-products twin, compares
 * the ReLU baseline with MaxK-GNN on per-epoch compute, boundary
 * exchange volume, and total epoch time — including the BNS boundary
 * sampling knob.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "common/table.hh"
#include "nn/distributed.hh"

using namespace maxk;

int
main(int argc, char **argv)
{
    bench::initBench(argc, argv);
    bench::banner("Extension: partition-parallel training (BNS-GCN "
                  "deployment) with MaxK-GNN");

    const auto info = *findDataset("ogbn-products");
    bench::TwinBundle twin =
        bench::makeTwin(info, 256, Aggregator::SageMean);

    nn::ModelConfig relu;
    relu.kind = nn::GnnKind::Sage;
    relu.nonlin = nn::Nonlinearity::Relu;
    relu.numLayers = 3;
    relu.inDim = 100;
    relu.hiddenDim = 256;
    relu.outDim = 47;
    nn::ModelConfig maxk = relu;
    maxk.nonlin = nn::Nonlinearity::MaxK;
    maxk.maxkK = 32;

    // --smoke keeps one multi-part exchange (2 GPUs) and one sample
    // rate below 1.0; nothing gates this bench's numbers.
    std::vector<std::uint32_t> gpu_counts = {1, 2, 4, 8};
    bench::smokeShrink(gpu_counts, 2);
    std::vector<double> rates = {1.0, 0.5, 0.1};
    bench::smokeShrink(rates, 2);

    Rng rng(31);
    TextTable table({"GPUs", "method", "compute ms", "exchange ms",
                     "boundary nodes", "exchanged MB", "epoch ms",
                     "speedup"});
    for (const std::uint32_t gpus : gpu_counts) {
        const Partition part = bfsPartition(twin.graph, gpus, rng);
        nn::ClusterConfig cluster;
        cluster.numGpus = gpus;

        const auto t_relu = nn::profileDistributedEpoch(
            relu, twin.graph, part, cluster, twin.opt);
        const auto t_maxk = nn::profileDistributedEpoch(
            maxk, twin.graph, part, cluster, twin.opt);

        auto add = [&](const char *name,
                       const nn::DistributedEpochTiming &t,
                       double speedup) {
            table.addRow({std::to_string(gpus), name,
                          formatFloat(t.computeSeconds * 1e3, 3),
                          formatFloat(t.exchangeSeconds * 1e3, 3),
                          std::to_string(t.boundaryNodes),
                          formatFloat(t.exchangedBytes / 1e6, 2),
                          formatFloat(t.total() * 1e3, 3),
                          formatSpeedup(speedup)});
        };
        add("ReLU baseline", t_relu, 1.0);
        add("MaxK-GNN k=32", t_maxk, t_relu.total() / t_maxk.total());
    }
    std::printf("%s\n", table.render().c_str());

    // BNS sampling sweep at 4 GPUs.
    const Partition part = bfsPartition(twin.graph, 4, rng);
    TextTable bns({"boundary sample rate", "exchanged MB (ReLU)",
                   "exchanged MB (MaxK)", "epoch ms (MaxK)"});
    for (const double rate : rates) {
        nn::ClusterConfig cluster;
        cluster.numGpus = 4;
        cluster.boundarySampleRate = rate;
        const auto t_relu = nn::profileDistributedEpoch(
            relu, twin.graph, part, cluster, twin.opt);
        const auto t_maxk = nn::profileDistributedEpoch(
            maxk, twin.graph, part, cluster, twin.opt);
        bns.addRow({formatFloat(rate, 2),
                    formatFloat(t_relu.exchangedBytes / 1e6, 2),
                    formatFloat(t_maxk.exchangedBytes / 1e6, 2),
                    formatFloat(t_maxk.total() * 1e3, 3)});
    }
    std::printf("\nBNS-GCN boundary sampling at 4 GPUs:\n%s\n",
                bns.render().c_str());
    std::printf("Takeaways: MaxK shrinks the hidden-layer boundary "
                "exchange by 4*dim/(4+1)k (6.4x\nat k=32, dim=256; the "
                "final layer ships dense logits either way) on top of "
                "its\nkernel speedup; boundary sampling composes "
                "multiplicatively. Accounting is\nreplica-exact: a "
                "boundary node ships once per remote reader part "
                "(matching the\nreal dist::ShardedTrainer traffic — "
                "see bench_distributed).\n");
    return 0;
}
