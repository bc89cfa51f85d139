/**
 * @file
 * Per-rank GNN model replica over one shard's extended subgraph.
 *
 * ShardedModel drives the GnnLayer phase hooks directly: each layer
 * runs dropout → Linear → nonlinearity on the extended feature matrix,
 * exchanges the boundary activation rows (CBSR rows for MaxK layers —
 * the paper's compounding communication win — dense rows otherwise),
 * then aggregates over the extended subgraph, whose halo rows now hold
 * the owners' exact activations. The backward pass mirrors it: reverse
 * aggregation accumulates partial gradients into the halo rows, the
 * reverse exchange hands them back to their owners (which fold them in
 * rank order), and the remainder of the backward runs locally.
 *
 * At one rank the extended subgraph is the whole graph, both exchanges
 * are empty, and the phase hooks execute exactly GnnModel::forward /
 * backward — bitwise-identical to the single-device Trainer.
 *
 * Known trade-off: the per-node stages (dropout / Linear / MaxK) run
 * over all numExt rows, so the halo rows are computed locally and then
 * overwritten by the exchange. This wastes O(haloRows * inDim *
 * outDim) GEMM work per layer but keeps every stage a whole-matrix op
 * with the exact single-device shapes (the bitwise 1-rank guarantee
 * and the zero-allocation contract fall out for free). Row-limited
 * variants of the Linear/Dropout path would remove it without changing
 * any exchanged byte — tracked in ROADMAP.
 */

#ifndef MAXK_DIST_SHARDED_MODEL_HH
#define MAXK_DIST_SHARDED_MODEL_HH

#include <vector>

#include "dist/comm.hh"
#include "dist/halo.hh"
#include "nn/model.hh"
#include "tensor/matrix.hh"

namespace maxk::dist
{

/** One rank's trainable replica (weights identical across ranks). */
class ShardedModel
{
  public:
    ShardedModel(const nn::ModelConfig &cfg, const HaloShard &shard)
        : shard_(shard), model_(cfg)
    {
    }

    /**
     * Full forward over the extended features (numExt rows; halo rows
     * of the input are ignored — every layer's halo activations come
     * from the exchange). Returns logits with numExt rows; only the
     * local rows [0, numLocal) are meaningful.
     */
    const Matrix &forward(Communicator &comm, HaloExchange &ex,
                          const Matrix &x_ext, bool training);

    /** Backprop from d(loss)/d(logits) (halo rows must be zero — the
     *  loss only sees local rows). Accumulates parameter grads. */
    void backward(Communicator &comm, HaloExchange &ex,
                  const Matrix &grad_logits);

    /** The underlying replica (parameters, config, layer stack). */
    nn::GnnModel &inner() { return model_; }

  private:
    const HaloShard &shard_;
    nn::GnnModel model_;
    std::vector<Matrix> outs_;  //!< outs_[l] = output of layer l
    Matrix gradCur_;
    Matrix gradPrev_;
};

} // namespace maxk::dist

#endif // MAXK_DIST_SHARDED_MODEL_HH
