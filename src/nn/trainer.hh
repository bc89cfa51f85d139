/**
 * @file
 * Full-batch trainer plus the simulated epoch-time profiler.
 *
 * The two concerns are deliberately decoupled (README "Synthetic
 * twins"):
 *  - Trainer runs the fast functional path to measure accuracy /
 *    convergence on the (small) accuracy twin;
 *  - profileEpoch runs the simulated kernels once on the (larger,
 *    degree-faithful) kernel twin to obtain the epoch-time composition
 *    that Fig. 1 / Fig. 9 / Table 5 report. Epoch timing is workload-
 *    shape dependent but not weight dependent, so one profile per
 *    configuration suffices. Kernel schedules are chosen here, never
 *    in the functional path, which has one loop per op.
 */

#ifndef MAXK_NN_TRAINER_HH
#define MAXK_NN_TRAINER_HH

#include "graph/csr.hh"
#include "graph/edge_groups.hh"
#include "graph/registry.hh"
#include "kernels/registry.hh"
#include "kernels/sim_options.hh"
#include "nn/epoch_loop.hh"
#include "nn/model.hh"

namespace maxk::nn
{

/** Simulated per-epoch time decomposition (seconds). */
struct EpochTiming
{
    double aggFwd = 0.0;    //!< forward aggregation (SpMM or SpGEMM)
    double aggBwd = 0.0;    //!< backward aggregation (SpMM or SSpMM)
    double linear = 0.0;    //!< all GEMM work, fwd + bwd
    double nonlin = 0.0;    //!< ReLU or MaxK + CBSR (de)compression
    double other = 0.0;     //!< loss, optimizer, bookkeeping

    double total() const
    {
        return aggFwd + aggBwd + linear + nonlin + other;
    }

    /** Fraction of epoch spent in aggregation (the Amdahl p of Sec. 5). */
    double
    aggFraction() const
    {
        const double t = total();
        return t > 0.0 ? (aggFwd + aggBwd) / t : 0.0;
    }
};

/**
 * Profile one simulated training epoch of `cfg` on graph `a`.
 * For ReLU models the dense aggregations (forward and backward) are
 * charged to `baseline`, a simulated forward-shaped registry entry (the
 * Fig. 9 axes: the cuSPARSE-like default, or "spmm_gnna" for
 * GNNAdvisor); for MaxK models to the SpGEMM/SSpMM kernels over
 * `part`. Deterministic given opt.
 */
EpochTiming profileEpoch(
    const ModelConfig &cfg, const CsrGraph &a,
    const EdgeGroupPartition &part, const SimOptions &opt,
    const kernels::KernelVariant &baseline = kernels::defaultSpmmVariant());

/** Full-batch trainer for one model on one training twin. */
class Trainer
{
  public:
    /**
     * @param model trainable model (aggregator weights are applied to
     *              `data.graph` according to the model kind)
     * @param data  graph + features + labels + masks (mutated: edge
     *              weights are set for the model's aggregator)
     * @param task  metric / multi-label configuration
     */
    Trainer(GnnModel &model, TrainingData &data, const TrainingTask &task);

    /** Run the shared epoch loop with one full-graph step per epoch;
     *  deterministic given the model config's seed. */
    TrainResult run(const TrainConfig &cfg);

  private:
    GnnModel &model_;
    TrainingData &data_;
    const TrainingTask &task_;
    Matrix multiTargets_;  //!< BCE targets when task_.multiLabel
};

} // namespace maxk::nn

#endif // MAXK_NN_TRAINER_HH
