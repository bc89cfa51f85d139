/**
 * @file
 * Rank-parallel full-batch trainer: really runs the partition-parallel
 * deployment that nn/distributed.hh models analytically.
 *
 * One CommWorld thread per rank trains a full model replica on its
 * shard (dist/sharded_model.hh): per-layer halo exchange of boundary
 * activation rows forward, reverse partial-gradient exchange backward,
 * globally-normalised loss so every local gradient row is the exact
 * single-device gradient, and fixed-order weight-gradient allReduce so
 * the replicas stay bitwise in sync. Guarantees (asserted by
 * tests/test_sharded.cc):
 *
 *  - 1 rank: bitwise-identical loss/metric trajectories to nn::Trainer
 *    on the same graph and seeds;
 *  - R ranks: run-to-run deterministic at any MAXK_THREADS, loss within
 *    1e-5 of single-device (fp32 reassociation across shard boundaries
 *    is the only divergence; dropout must be disabled for trajectory
 *    comparison — masks are rank-local);
 *  - steady-state epochs (>= 2) perform zero Matrix/CbsrMatrix heap
 *    allocations across ALL ranks, including the loss path
 *    (AllocProbe-enforced, reported in train.steadyStateAllocCount);
 *  - measured Halo-channel traffic reconciles exactly with the
 *    corrected profileDistributedEpoch model:
 *    trainHaloBytes == exchangedBytes * epochs.
 */

#ifndef MAXK_DIST_SHARDED_TRAINER_HH
#define MAXK_DIST_SHARDED_TRAINER_HH

#include <cstdint>

#include "dist/halo.hh"
#include "graph/partition.hh"
#include "graph/registry.hh"
#include "nn/trainer.hh"

namespace maxk::dist
{

/** Outcome of a sharded run: the single-device result fields plus the
 *  gathered logits and the communication volumes measured over the
 *  epochs of this run() call (counters do not persist in checkpoints). */
struct ShardedTrainResult
{
    nn::TrainResult train;  //!< loss/metric trajectories (rank-0 view)

    /** Logits of the last evaluation, gathered to global row order. */
    Matrix finalLogits;

    /** Σ over ranks of Halo-channel bytes sent during training
     *  forward+backward passes (reconciles with the analytical model:
     *  == profileDistributedEpoch().exchangedBytes * epochs). */
    std::uint64_t trainHaloBytes = 0;

    /** Halo bytes of the evaluation-only forward passes. */
    std::uint64_t evalHaloBytes = 0;

    /** Reduce-channel bytes (loss + weight-gradient allReduce, plus
     *  the resume vote when a checkpoint image is loaded). */
    std::uint64_t reduceBytes = 0;

    /** Gather-channel bytes (evaluation logits and checkpointed
     *  dropout streams). */
    std::uint64_t gatherBytes = 0;
};

/** Partition-parallel trainer over a compiled HaloPlan. */
class ShardedTrainer
{
  public:
    /**
     * @param cfg  model configuration (replicated on every rank)
     * @param data graph + features + labels + masks (mutated: edge
     *             weights are set for the model's aggregator, exactly
     *             like nn::Trainer — halo rows must aggregate with
     *             global degrees)
     * @param task metric / multi-label configuration
     * @param part rank assignment; part.numParts ranks are spawned
     */
    ShardedTrainer(const nn::ModelConfig &cfg, TrainingData &data,
                   const TrainingTask &task, const Partition &part);

    /** Run the shared epoch loop on every rank thread; deterministic
     *  given the model config's seed (and thread count). */
    ShardedTrainResult run(const nn::TrainConfig &cfg);

    const HaloPlan &plan() const { return plan_; }

  private:
    nn::ModelConfig cfg_;
    TrainingData &data_;
    const TrainingTask &task_;
    Partition part_;
    HaloPlan plan_;
    Matrix multiTargets_;      //!< global targets (rank-0 metrics)
    std::size_t trainCount_ = 0;  //!< global training-node count
};

} // namespace maxk::dist

#endif // MAXK_DIST_SHARDED_TRAINER_HH
