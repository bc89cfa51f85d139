#include "dist/sharded_trainer.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/trace.hh"
#include "dist/sharded_model.hh"
#include "nn/loss.hh"
#include "nn/metrics.hh"
#include "nn/optimizer.hh"

namespace maxk::dist
{

ShardedTrainer::ShardedTrainer(const nn::ModelConfig &cfg,
                               TrainingData &data,
                               const TrainingTask &task,
                               const Partition &part)
    : cfg_(cfg), data_(data), task_(task), part_(part)
{
    checkInvariant(part_.assignment.size() == data_.graph.numNodes(),
                   "ShardedTrainer: partition/graph size mismatch");
    checkInvariant(cfg_.outDim == task_.numClasses,
                   "ShardedTrainer: model outDim != task classes");
    // Weights must be set on the GLOBAL graph before the plan copies
    // them into the shard subgraphs: boundary rows aggregate with
    // global degrees, exactly like the single-device Trainer.
    data_.graph.setAggregatorWeights(nn::aggregatorFor(cfg_.kind));
    plan_ = HaloPlan::build(data_.graph, part_);
    if (task_.multiLabel)
        multiTargets_ =
            nn::multiLabelTargets(data_.labels, task_.numClasses);
    for (std::uint8_t m : data_.trainMask)
        trainCount_ += m ? 1 : 0;
}

ShardedTrainResult
ShardedTrainer::run(const nn::TrainConfig &cfg)
{
    const std::uint32_t ranks = part_.numParts;
    const std::size_t num_classes = task_.numClasses;
    const std::size_t feat_dim = data_.features.cols();

    // Constructed on this thread: arms telemetry (the rank threads read
    // the global flag) and loads the resume image once; each rank
    // checks and restores from it inside the world.
    static const telemetry::Phase span("dist.epoch");
    nn::EpochLoop loop(cfg, {"ShardedTrainer", "sharded", "sharded.epoch",
                             span});
    ShardedTrainResult result;
    result.finalLogits.resize(data_.graph.numNodes(), num_classes);
    std::vector<std::uint64_t> train_halo(ranks, 0), eval_halo(ranks, 0);

    CommWorld world(ranks);
    world.setFaultInjector(cfg.faults);
    world.run([&](Communicator &comm) {
        const std::uint32_t r = comm.rank();
        const HaloShard &shard = plan_.shards[r];
        const NodeId num_local = shard.numLocal();
        const NodeId num_ext = shard.numExt();

        // Shard-local training data: local rows gathered from the
        // global arrays, halo rows zero (masked out everywhere).
        Matrix features(num_ext, feat_dim);
        std::vector<std::uint32_t> labels(num_ext, 0);
        std::vector<std::uint8_t> train_mask(num_ext, 0);
        for (NodeId i = 0; i < num_local; ++i) {
            const NodeId v = shard.localGlobal[i];
            std::copy(data_.features.row(v),
                      data_.features.row(v) + feat_dim,
                      features.row(i));
            labels[i] = data_.labels[v];
            train_mask[i] = data_.trainMask[v];
        }
        Matrix targets;
        if (task_.multiLabel)
            targets = nn::multiLabelTargets(labels, task_.numClasses);

        ShardedModel model(cfg_, shard);
        HaloExchange exchange(shard);
        nn::Adam adam(model.inner().params(), cfg.lr);
        const nn::ParamRefs params = model.inner().params();

        Matrix grad, probs;
        // Persistent gather lanes: only the rank-0 lane ever carries
        // payload, and its capacity is reused across evaluations.
        std::vector<std::vector<std::uint8_t>> gather_send(ranks),
            gather_recv;
        // Checkpoint gather lanes: each rank's 4 dropout-stream words.
        std::vector<std::vector<std::uint8_t>> ckpt_send(ranks),
            ckpt_recv;

        char rank_tag[16];
        rank_tag[0] = '\0';
        if (telemetry::armed())
            std::snprintf(rank_tag, sizeof(rank_tag), "rank%u", r);

        nn::EpochSteps steps;
        steps.trainEpoch = [&](std::uint32_t) {
            const std::uint64_t halo0 = comm.sentBytes(CommChannel::Halo);
            const Matrix *logits_ptr = nullptr;
            {
                MAXK_TRACE_SCOPE("dist.forward", rank_tag);
                logits_ptr =
                    &model.forward(comm, exchange, features, true);
            }
            const Matrix &logits = *logits_ptr;
            // Globally-normalised loss: dividing by the global
            // training-node count makes every local gradient row the
            // exact single-device gradient of that node.
            double loss_buf =
                task_.multiLabel
                    ? nn::sigmoidBceInto(logits, targets, train_mask,
                                         trainCount_, grad)
                    : nn::softmaxCrossEntropyInto(logits, labels,
                                                  train_mask,
                                                  trainCount_, grad,
                                                  probs);
            {
                MAXK_TRACE_SCOPE("dist.backward", rank_tag);
                model.backward(comm, exchange, grad);
            }
            train_halo[r] += comm.sentBytes(CommChannel::Halo) - halo0;

            comm.allReduceSum(&loss_buf, 1);
            // Fixed-order weight-gradient allReduce keeps the replicas
            // bitwise identical, so the optimizer step needs no
            // further synchronisation.
            for (nn::Param *p : params)
                comm.allReduceSum(p->grad.data(), p->grad.size());
            adam.step();
            return loss_buf;
        };
        steps.evaluate = [&](std::uint32_t) -> std::pair<double, double> {
            MAXK_TRACE_SCOPE("dist.eval", rank_tag);
            const std::uint64_t eval0 = comm.sentBytes(CommChannel::Halo);
            const Matrix &eval_logits =
                model.forward(comm, exchange, features, false);
            eval_halo[r] += comm.sentBytes(CommChannel::Halo) - eval0;

            // Gather the local logits rows to rank 0, which scatters
            // them into global row order and evaluates the metrics on
            // the full matrix — identical inputs to the single-device
            // eval.
            gather_send[0].resize(std::size_t(num_local) * num_classes *
                                  sizeof(Float));
            if (num_local > 0)
                std::memcpy(gather_send[0].data(), eval_logits.row(0),
                            gather_send[0].size());
            comm.allToAllv(gather_send, gather_recv, CommChannel::Gather);
            if (r != 0)
                return {0.0, 0.0};
            for (std::uint32_t src = 0; src < ranks; ++src) {
                const std::uint8_t *in = gather_recv[src].data();
                for (NodeId v : plan_.shards[src].localGlobal) {
                    std::memcpy(result.finalLogits.row(v), in,
                                num_classes * sizeof(Float));
                    in += num_classes * sizeof(Float);
                }
            }
            return nn::evalMetrics(result.finalLogits, task_, data_,
                                   multiTargets_);
        };

        // The weight-gradient allReduce keeps the replicas bitwise
        // identical, so rank 0's params + Adam state describe every
        // rank; only the dropout streams diverge, and each rank's is
        // persisted as "rng.rank<r>".
        const std::string rng_section = "rng.rank" + std::to_string(r);
        steps.checkSections = [&](const formats::Checkpoint &ck) {
            return ck.checkU64s(rng_section, 4);
        };
        steps.readSections = [&](const formats::Checkpoint &ck) {
            model.inner().dropoutRng().setStateWords(
                ck.getU64s(rng_section).value().data());
        };
        steps.writeSections = [&](formats::Checkpoint *ck) {
            // Gather every rank's dropout-stream position; rank 0
            // writes one image describing the whole world.
            std::uint64_t words[4];
            model.inner().dropoutRng().stateWords(words);
            ckpt_send[0].resize(sizeof(words));
            std::memcpy(ckpt_send[0].data(), words, sizeof(words));
            comm.allToAllv(ckpt_send, ckpt_recv, CommChannel::Gather);
            for (std::uint32_t src = 0; ck && src < ranks; ++src)
                ck->set("rng.rank" + std::to_string(src),
                        ckpt_recv[src].data(), ckpt_recv[src].size());
        };
        steps.barrier = [&] { comm.barrier(); };
        // One vote per rank: the image is restored only if every rank's
        // checks passed.
        steps.allAgree = [&](bool ok) {
            double rejections = ok ? 0.0 : 1.0;
            comm.allReduceSum(&rejections, 1);
            return rejections == 0.0;
        };

        loop.run(steps, model.inner(), adam, result.train, r, rank_tag);
    });

    for (std::uint32_t r = 0; r < ranks; ++r) {
        result.trainHaloBytes += train_halo[r];
        result.evalHaloBytes += eval_halo[r];
    }
    result.reduceBytes = world.totalSentBytes(CommChannel::Reduce);
    result.gatherBytes = world.totalSentBytes(CommChannel::Gather);
    return result;
}

} // namespace maxk::dist
