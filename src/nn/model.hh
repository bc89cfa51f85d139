/**
 * @file
 * Multi-layer GNN model: a stack of GnnLayer with the architecture the
 * paper evaluates (Table 3: 3-4 layers, hidden 256/384, SAGE/GCN/GIN).
 */

#ifndef MAXK_NN_MODEL_HH
#define MAXK_NN_MODEL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/csr.hh"
#include "nn/gnn_layer.hh"
#include "nn/param.hh"
#include "tensor/matrix.hh"

namespace maxk::nn
{

/** Whole-network configuration. */
struct ModelConfig
{
    GnnKind kind = GnnKind::Sage;
    Nonlinearity nonlin = Nonlinearity::Relu;
    std::uint32_t maxkK = 32;       //!< k for MaxK layers
    std::uint32_t numLayers = 3;
    std::size_t inDim = 64;
    std::size_t hiddenDim = 64;
    std::size_t outDim = 8;
    Float dropout = 0.5f;
    Float ginEps = 0.0f;
    std::uint64_t seed = 42;
};

/** Stack of GNN layers with cached activations for backprop. */
class GnnModel
{
  public:
    explicit GnnModel(const ModelConfig &cfg);

    /**
     * Full-batch forward. Returns the logits (N x outDim). Every layer's
     * dropout output and intermediate activation is cached for
     * backward(); `x` is read in place.
     */
    const Matrix &forward(const CsrGraph &a, const Matrix &x,
                          bool training);

    /**
     * Training form of forwardRows(): the same forward on one row set
     * per layer (GnnLayer's training row form, gnn_layer.hh), with
     * dropout, cached for backward(a, grad, rows). rows[l].target must
     * lie inside rows[l].compute and hold every row of
     * rows[l + 1].compute; the minibatch extractor builds such sets
     * from the sampler's hop record. Only the rows of
     * rows.back().target of the logits are written, and each is
     * bitwise the all-rows forward's row: the dropout stream is drawn
     * over every row, so the masks are the all-rows ones.
     */
    const Matrix &forward(const CsrGraph &a, const Matrix &x, bool training,
                          const std::vector<LayerRows> &rows);

    /**
     * Hook invoked between a layer's forwardCompute and forwardCombine
     * phases — the point where the activation (CBSR for MaxK layers,
     * dense otherwise) is complete but not yet aggregated. The serving
     * layer injects cached embedding rows and harvests newly computed
     * ones here; the sharded executor exchanges halo rows at the same
     * seam.
     */
    using LayerHook = std::function<void(std::uint32_t layer, GnnLayer &)>;

    /**
     * Row-set inference forward (no dropout): layer l computes its
     * activation on rows[l].compute and its output on rows[l].target
     * only (GnnLayer's row-set contract, gnn_layer.hh), with `hook` run
     * between the two phases of every layer. `x` is layer 0's input,
     * read in place. Each computed row is bitwise the row forward()
     * would produce, as long as every row a computed row reads was
     * computed (or written by the hook) first; every other row of every
     * activation keeps stale contents. A layer with empty sets does no
     * arithmetic. Returns the logits; only the rows of
     * rows.back().target are written. Caches nothing for backward().
     */
    const Matrix &forwardRows(const CsrGraph &a, const Matrix &x,
                              const std::vector<LayerRows> &rows,
                              const LayerHook &hook = {});

    /** Backprop from d(loss)/d(logits); accumulates parameter grads.
     *  Layer 0 computes no input gradient: nothing reads it. */
    void backward(const CsrGraph &a, const Matrix &grad_logits);

    /**
     * Backprop of forward(a, x, training, rows) over the same row sets:
     * reads grad_logits only on rows.back().target, and every layer
     * computes only its rows. When every nonzero row of grad_logits is
     * a last-layer target, every parameter gradient is bitwise that of
     * backward(a, grad_logits) after the all-rows forward: a row left
     * out holds an exact ±0 gradient there and adds nothing, unless an
     * input feature outside the sets is non-finite (0 * inf = NaN in
     * the all-rows sums; the row-set sums stay finite).
     */
    void backward(const CsrGraph &a, const Matrix &grad_logits,
                  const std::vector<LayerRows> &rows);

    ParamRefs params();

    const ModelConfig &config() const { return cfg_; }
    std::vector<GnnLayer> &layers() { return layers_; }

    /**
     * The dropout RNG stream. The sharded executor (dist::ShardedModel)
     * drives the layer phase hooks directly and must consume this
     * stream exactly like forward() does, so a 1-rank sharded run stays
     * bitwise-identical to the single-device path.
     */
    Rng &dropoutRng() { return dropRng_; }

    /** Input/output width of layer l per the stacking rule. */
    std::size_t layerInDim(std::uint32_t l) const;
    std::size_t layerOutDim(std::uint32_t l) const;

  private:
    /**
     * The one forward loop: `rows` null is every row. A training
     * forward (`cache`) runs each layer's dropout and caches it for
     * backward; an inference one reads each layer input in place.
     */
    const Matrix &forwardLoop(const CsrGraph &a, const Matrix &x,
                              const std::vector<LayerRows> *rows,
                              bool cache, bool training,
                              const LayerHook &hook);

    /** The one backward loop: `rows` null is every row. */
    void backwardLoop(const CsrGraph &a, const Matrix &grad_logits,
                      const std::vector<LayerRows> *rows);

    /** fatal unless rows holds one valid set pair per layer. */
    void checkRows(const CsrGraph &a,
                   const std::vector<LayerRows> &rows) const;

    ModelConfig cfg_;
    Rng dropRng_;
    std::vector<GnnLayer> layers_;
    std::vector<Matrix> acts_;  //!< acts_[l] = input of layer l > 0

    // Persistent backward ping-pong buffers: backward() alternates the
    // upstream/downstream gradient between these two workspaces instead
    // of moving locals (which would strand their storage and force a
    // reallocation every epoch).
    Matrix gradCur_;
    Matrix gradPrev_;
};

} // namespace maxk::nn

#endif // MAXK_NN_MODEL_HH
