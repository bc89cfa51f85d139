#include "dist/sharded_model.hh"

#include "common/logging.hh"

namespace maxk::dist
{

const Matrix &
ShardedModel::forward(Communicator &comm, HaloExchange &ex,
                      const Matrix &x_ext, bool training)
{
    checkInvariant(x_ext.rows() == shard_.numExt(),
                   "ShardedModel::forward: feature rows != numExt");
    auto &layers = model_.layers();
    // outs_[l] is layer l's output; layer 0 reads the caller's feature
    // matrix directly (no per-epoch copy — the features never change).
    outs_.resize(layers.size());
    for (std::size_t l = 0; l < layers.size(); ++l) {
        nn::GnnLayer &layer = layers[l];
        const Matrix &in = l == 0 ? x_ext : outs_[l - 1];
        layer.forwardCompute(in, training, model_.dropoutRng());
        // Boundary activation exchange at the paper's wire point:
        // after the nonlinearity (CBSR for MaxK layers), before the
        // aggregation that reads the halo rows.
        if (layer.activationIsCbsr())
            ex.exchangeCbsr(comm, layer.activationCbsr());
        else
            ex.exchangeDense(comm, layer.activationDense());
        layer.forwardCombine(shard_.extGraph, outs_[l]);
    }
    return outs_.back();
}

void
ShardedModel::backward(Communicator &comm, HaloExchange &ex,
                       const Matrix &grad_logits)
{
    checkInvariant(grad_logits.rows() == shard_.numExt(),
                   "ShardedModel::backward: gradient rows != numExt");
    auto &layers = model_.layers();
    // The top layer reads the caller's gradient directly; below it the
    // upstream gradient ping-pongs between the two member workspaces.
    const Matrix *upstream = &grad_logits;
    for (std::size_t l = layers.size(); l-- > 0;) {
        nn::GnnLayer &layer = layers[l];
        layer.backwardAgg(shard_.extGraph, *upstream);
        // Reverse halo exchange: the partial gradients this rank
        // accumulated for remote-owned rows travel back to their
        // owners; our own boundary rows absorb the peers' partials.
        if (layer.activationIsCbsr())
            ex.reverseCbsr(comm, layer.gradAggCbsr());
        else
            ex.reverseDense(comm, layer.gradAggDense());
        if (l == 0) {
            // Nothing reads the input gradient of layer 0.
            layer.backwardPost(shard_.extGraph, *upstream);
            break;
        }
        layer.backwardPost(shard_.extGraph, *upstream, gradPrev_);
        std::swap(gradCur_, gradPrev_);
        upstream = &gradCur_;
    }
}

} // namespace maxk::dist
