/**
 * @file
 * sharded2-reddit-relu: dist::ShardedTrainer with 2 ranks over a
 * bfsPartition of full-reddit-maxk's graph, SAGE 3x256 ReLU, one pool
 * thread per rank. The only workload for dist (halo exchange,
 * allReduce); it runs the dense SpMM on long rows, beside the sampled
 * workload's short ones.
 */

#include <cmath>
#include <cstring>
#include <memory>

#include "dist/comm.hh"
#include "dist/halo.hh"
#include "dist/sharded_trainer.hh"
#include "graph/formats/checkpoint.hh"
#include "graph/partition.hh"
#include "nn/checkpoint.hh"
#include "nn/distributed.hh"
#include "nn/loss.hh"
#include "tensor/alloc_probe.hh"
#include "workloads.hh"

namespace hostbench
{

using namespace maxk;

namespace
{

constexpr std::uint32_t kRanks = 2;

struct ShardedState
{
    TrainingTask task;
    TrainingData data;
    nn::ModelConfig cfg;
    Partition part;
    std::unique_ptr<dist::ShardedTrainer> trainer;
};

std::unique_ptr<ShardedState>
buildSharded(const RunOptions &opt, Tracer *t, std::uint32_t unit)
{
    auto s = std::make_unique<ShardedState>();
    s->task = redditTask(opt.tiny);
    Rng rng(streamSeed(opt.seed, kGraph));
    s->data = timedCall(t, "graph.materialize", unit, [&] {
        return materializeTrainingData(s->task, rng);
    });
    s->cfg.kind = nn::GnnKind::Sage;
    s->cfg.nonlin = nn::Nonlinearity::Relu;
    s->cfg.numLayers = 3;
    s->cfg.inDim = s->task.featureDim;
    s->cfg.hiddenDim = opt.tiny ? 32 : 256;
    s->cfg.outDim = s->task.numClasses;
    s->cfg.dropout = 0.5f;
    s->cfg.seed = streamSeed(opt.seed, kModel);
    Rng prng(streamSeed(opt.seed, kPartition));
    s->part = timedCall(t, "graph.partition", unit, [&] {
        return bfsPartition(s->data.graph, kRanks, prng);
    });
    s->trainer = timedCall(t, "dist.plan", unit, [&] {
        return std::make_unique<dist::ShardedTrainer>(s->cfg, s->data,
                                                      s->task, s->part);
    });
    return s;
}

/** Span names of one rank's traced epoch. */
struct RankSpans
{
    explicit RankSpans(Tracer &t)
        : nn(t, 3), epoch(t.intern("epoch")), warmup(t.intern("warmup")),
          halo(t.intern("dist.halo")), reduce(t.intern("dist.allreduce"))
    {
    }
    NnSpans nn;
    std::uint32_t epoch, warmup, halo, reduce;
};

/**
 * Traced: the ShardedTrainer rank loop driven from this file, starting
 * from the engine's checkpoint (the weights, Adam state and dropout
 * streams the untraced run then resumes from). Each GnnLayer phase,
 * halo exchange and allReduce is one span in the rank's lane;
 * evaluation is the forward pass only (one nn.eval span).
 */
void
tracedRanks(const RunOptions &opt, ShardedState &s,
            const std::string &ckpt_dir, Tracer &t, Report &rep)
{
    auto loaded =
        formats::CheckpointStore(ckpt_dir, "sharded", 1).loadLatest();
    if (!loaded) {
        rep.check(false, "no checkpoint to trace from: " +
                             loaded.error().describe());
        return;
    }
    const formats::Checkpoint &image = loaded.value().checkpoint;
    const RankSpans sp(t);
    const dist::HaloPlan &plan = s.trainer->plan();
    std::size_t train_count = 0;
    for (auto m : s.data.trainMask)
        train_count += m ? 1 : 0;
    const std::uint32_t epochs = unitsFor(opt, 0.2, 2);
    std::vector<double> losses(kWarmupEpochs + epochs, 0.0);
    std::uint64_t allocs = 0;

    dist::CommWorld world(kRanks);
    world.run([&](dist::Communicator &comm) {
        const std::uint32_t r = comm.rank();
        const dist::HaloShard &shard = plan.shards[r];
        const CsrGraph &g = shard.extGraph;
        const std::size_t feat = s.data.features.cols();
        Matrix x(shard.numExt(), feat);
        std::vector<std::uint32_t> labels(shard.numExt(), 0);
        std::vector<std::uint8_t> mask(shard.numExt(), 0);
        for (NodeId i = 0; i < shard.numLocal(); ++i) {
            const NodeId v = shard.localGlobal[i];
            std::memcpy(x.row(i), s.data.features.row(v),
                        feat * sizeof(Float));
            labels[i] = s.data.labels[v];
            mask[i] = s.data.trainMask[v];
        }
        nn::GnnModel model(s.cfg);
        const nn::ParamRefs params = model.params();
        nn::Adam adam(params, nn::TrainConfig{}.lr);
        if (!nn::readModelState(image, model, adam))
            throw std::runtime_error("traced rank: checkpoint rejected");
        auto words = image.getU64s("rng.rank" + std::to_string(r));
        if (!words || words.value().size() != 4)
            throw std::runtime_error("traced rank: no dropout stream");
        model.dropoutRng().setStateWords(words.value().data());
        dist::HaloExchange ex(shard);
        auto &layers = model.layers();
        std::vector<Matrix> outs(layers.size());
        Matrix grad, probs, grad_cur, grad_prev;

        const auto forward = [&](bool training, Tracer *tt,
                                 std::uint32_t u) -> const Matrix & {
            for (std::size_t l = 0; l < layers.size(); ++l) {
                const Matrix &in = l == 0 ? x : outs[l - 1];
                {
                    Scope sc(tt, r, sp.nn.fwdCompute[l], u);
                    layers[l].forwardCompute(in, training,
                                             model.dropoutRng());
                }
                {
                    Scope sc(tt, r, sp.halo, u);
                    if (layers[l].activationIsCbsr())
                        ex.exchangeCbsr(comm, layers[l].activationCbsr());
                    else
                        ex.exchangeDense(comm, layers[l].activationDense());
                }
                Scope sc(tt, r, sp.nn.fwdCombine[l], u);
                layers[l].forwardCombine(g, outs[l]);
            }
            return outs.back();
        };

        for (std::uint32_t e = 0; e < kWarmupEpochs + epochs; ++e) {
            comm.barrier();
            if (e == kWarmupEpochs && r == 0)
                allocs = AllocProbe::totalAllocCount();
            Scope unit(&t, r, e < kWarmupEpochs ? sp.warmup : sp.epoch, e);
            const Matrix &logits = forward(true, &t, e);
            double loss = 0.0;
            {
                Scope sc(&t, r, sp.nn.loss, e);
                loss = nn::softmaxCrossEntropyInto(logits, labels, mask,
                                                   train_count, grad, probs);
            }
            const Matrix *up = &grad;
            for (std::size_t l = layers.size(); l-- > 0;) {
                {
                    Scope sc(&t, r, sp.nn.bwdAgg[l], e);
                    layers[l].backwardAgg(g, *up);
                }
                {
                    Scope sc(&t, r, sp.halo, e);
                    if (layers[l].activationIsCbsr())
                        ex.reverseCbsr(comm, layers[l].gradAggCbsr());
                    else
                        ex.reverseDense(comm, layers[l].gradAggDense());
                }
                {
                    Scope sc(&t, r, sp.nn.bwdPost[l], e);
                    layers[l].backwardPost(g, *up, grad_prev);
                }
                std::swap(grad_cur, grad_prev);
                up = &grad_cur;
            }
            {
                Scope sc(&t, r, sp.reduce, e);
                comm.allReduceSum(&loss, 1);
                for (nn::Param *p : params)
                    comm.allReduceSum(p->grad.data(), p->grad.size());
            }
            {
                Scope sc(&t, r, sp.nn.adam, e);
                adam.step();
            }
            Scope ev(&t, r, sp.nn.eval, e);
            forward(false, nullptr, e);
            if (r == 0)
                losses[e] = loss;
        }
        comm.barrier();
        if (r == 0)
            allocs = AllocProbe::totalAllocCount() - allocs;
    });
    for (double l : losses)
        rep.check(std::isfinite(l), "traced epoch loss not finite");
    rep.set("tensor.steady_allocs", static_cast<double>(allocs), "count");
}

} // namespace

void
runSharded2RedditRelu(const RunOptions &opt, Report &rep)
{
    std::unique_ptr<Tracer> tracer;
    if (opt.trace)
        tracer = std::make_unique<Tracer>(kRanks);
    Tracer *tr = tracer.get();

    double setup_s = 0.0;
    auto s = setupRepeated<ShardedState>(
        setupRepeats(opt), tr,
        [&](std::uint32_t i) { return buildSharded(opt, tr, i); },
        setup_s);

    // Epoch 2 timed again and again from the warm-up checkpoint. Every
    // run() call rebuilds the rank replicas and first-touches their
    // workspaces, which the unit time includes: about 1.4 s per call on
    // a 4-core x86 VM, a third of it the rebuild.
    nn::TrainConfig tc;
    tc.seed = streamSeed(opt.seed, kTrainer);
    tc.evalEvery = 1;
    tc.checkpointDir = checkpointDir(opt, "sharded");
    tc.checkpointEvery = kNoIntermediateCheckpoints;
    tc.checkpointKeep = 1;
    dist::ShardedTrainResult last;
    // (epochs trained, Halo bytes measured) of every run() call.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> calls;
    const std::vector<double> epoch_ms = runRepeated(
        unitsFor(opt, opt.trace ? 0.15 : 0.6, 3), tc.checkpointDir, rep,
        [&](std::uint32_t end) {
            tc.epochs = end;
            last = s->trainer->run(tc);
            const std::uint32_t first =
                end == kWarmupEpochs ? 0 : kWarmupEpochs;
            calls.push_back({end - first, last.trainHaloBytes});
        },
        [&] {
            if (tr)
                tracedRanks(opt, *s, tc.checkpointDir, *tr, rep);
        });
    const double rss = peakRssMb();
    checkLosses(rep, last.train.trainLoss, false);

    // The reconciliation contract: measured Halo bytes == the model's
    // exchangedBytes per epoch, call by call.
    nn::ClusterConfig cluster;
    cluster.numGpus = kRanks;
    SimOptions so;
    so.simulateCaches = false;
    const nn::DistributedEpochTiming model = nn::profileDistributedEpoch(
        s->cfg, s->data.graph, s->part, cluster, so);
    for (const auto &[epochs, bytes] : calls)
        rep.check(bytes == model.exchangedBytes * epochs,
                  "trainHaloBytes " + std::to_string(bytes) + " != " +
                      std::to_string(model.exchangedBytes) + " x " +
                      std::to_string(epochs) + " epochs");

    const double unit_ms = fastest(epoch_ms);
    rep.set("setup_s", setup_s, "s");
    rep.set("unit_ms", unit_ms, "ms");
    rep.set("peak_rss_mb", rss, "MB");
    if (!tracer)
        return;

    const double last_epochs = calls.back().first;
    rep.set("dist.halo_bytes_per_epoch", last.trainHaloBytes / last_epochs,
            "bytes");
    rep.set("dist.reduce_bytes_per_epoch", last.reduceBytes / last_epochs,
            "bytes");
    rep.set("dist.halo_rows",
            static_cast<double>(s->trainer->plan().totalReplicas()), "rows");
    rep.set("gpusim.epoch_ms", model.total() * 1e3, "sim_ms");

    auto groups = nnGroups(3);
    groups.push_back({"dist.halo_ms", {"dist.halo"}});
    groups.push_back({"dist.allreduce_ms", {"dist.allreduce"}});
    const TraceSummary sum = summarize(*tr, "epoch", groups);
    setTraceMetrics(rep, sum, sum.fastestUnitMs, unit_ms);
    const TraceSummary setup = summarize(
        *tr, "setup",
        {{"graph.materialize_ms", {"graph.materialize"}},
         {"graph.partition_ms", {"graph.partition"}},
         {"dist.plan_ms", {"dist.plan"}}});
    for (const auto &[name, ms] : setup.ms)
        rep.set(name, ms, "ms");
    writeTrace(*tr, opt, rep);
}

} // namespace hostbench
