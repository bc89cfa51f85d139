/**
 * @file
 * One GNN layer in both of the paper's configurations (Fig. 2):
 *
 *  ReLU baseline:  out = Agg(A, ReLU(Linear1(x)))  [+ model-specific term]
 *  MaxK-GNN:       out = Agg(A, MaxK_k(Linear1(x))) with the sparsified
 *                  activation held in CBSR, aggregated by SpGEMM forward
 *                  and SSpMM backward.
 *
 * Model-specific combination:
 *  SAGE: out += Linear2(x)        (self connection, mean aggregator A)
 *  GCN:  out = Agg(...)           (symmetric-normalised A)
 *  GIN:  out += (1 + eps) * h     (sum aggregator A)
 *
 * The final layer of a network skips the nonlinearity (logits stay
 * dense), so both variants run one dense SpMM there.
 *
 * Row sets: every phase call also takes RowSets (tensor/row_set.hh),
 * one layer's LayerRows. Linear1 and the nonlinearity then run only on
 * the layer's compute rows, and the aggregation plus the SAGE/GIN self
 * term only on its target rows. Every computed row folds the same
 * products in the same order as the full-batch forward (GEMM rows keep
 * the ascending inner-index fold and the ±0 skip, aggregation rows keep
 * CSR edge order, MaxK selects per row), so it is bitwise the
 * full-batch row. Rows outside the sets keep stale contents and are
 * never read: the caller guarantees that every activation row a target
 * row aggregates (its neighbours, and itself for GIN) was computed or
 * written into the activation buffers between the two phases, and that
 * the input rows Linear1 (compute rows) and the SAGE self path (target
 * rows) read are valid. The call with no sets is the all-rows case.
 *
 *  - Inference form, forwardCompute(x, compute) and
 *    forwardCombine(a, x, out, target): reads x in place, applies no
 *    dropout and caches nothing for backward (serving).
 *  - Training form, forwardCompute(x, training, rng, compute) and
 *    forwardCombine(a, out, target), then backwardAgg and backwardPost
 *    with the same sets: target must lie inside compute (the SAGE self
 *    path reads the dropout output). Dropout draws its stream over
 *    every row, so each computed row's mask is the all-rows mask. The
 *    backward reads d_out only on target rows (the only rows that can
 *    be nonzero when the next layer's compute rows are this layer's
 *    targets), folds the reverse aggregation only from them into the
 *    compute rows, and runs the rest of the backward on the compute
 *    rows (SAGE's Linear2 on the target rows); dx is written on the
 *    compute rows. A row left out of a parameter-gradient sum is one
 *    whose gradient the all-rows backward holds at exact ±0, so it
 *    adds nothing, and every parameter gradient is bitwise the
 *    all-rows one as long as the rows left out hold finite inputs
 *    (0 * inf = NaN: a non-finite input feature outside the sets
 *    poisons only the all-rows gradients).
 *
 * Each phase call opens a span (nn.fwd_compute, nn.fwd_combine,
 * nn.bwd_agg, nn.bwd_post) whose detail is the layer's name, "layerN"
 * in a GnnModel.
 *
 * This class is the host's functional path: one fp32 loop per
 * operation, whatever schedule the simulator models for it, so a
 * kernel-schedule choice never moves an output bit. Simulated kernel
 * timing, and with it every such choice, lives in profileEpoch()
 * (trainer.hh); README "Kernel variants and adaptive selection" holds
 * the argument.
 */

#ifndef MAXK_NN_GNN_LAYER_HH
#define MAXK_NN_GNN_LAYER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/cbsr.hh"
#include "graph/csr.hh"
#include "nn/dropout.hh"
#include "nn/linear.hh"
#include "nn/param.hh"
#include "tensor/matrix.hh"
#include "tensor/row_set.hh"

namespace maxk::nn
{

/** GNN architecture family. */
enum class GnnKind { Sage, Gcn, Gin };

/** Nonlinearity placed before the aggregation (Fig. 2). */
enum class Nonlinearity { Relu, MaxK };

const char *gnnKindName(GnnKind kind);
const char *nonlinearityName(Nonlinearity n);

/** Aggregator convention a model kind uses for its edge weights. */
Aggregator aggregatorFor(GnnKind kind);

/** Configuration of one layer. */
struct GnnLayerConfig
{
    GnnKind kind = GnnKind::Sage;
    Nonlinearity nonlin = Nonlinearity::Relu;
    std::uint32_t maxkK = 32;   //!< clamped to the layer width
    bool lastLayer = false;     //!< last layer: identity nonlinearity
    Float ginEps = 0.0f;
    Float dropout = 0.0f;
};

/**
 * The rows one layer of a row-set forward or training step computes,
 * as ascending local row ids (see the file comment). Serving's planner
 * fills one per layer, and so does the minibatch extractor.
 */
struct LayerRows
{
    std::vector<NodeId> compute; //!< Linear1 + nonlinearity rows
    std::vector<NodeId> target;  //!< aggregation + self-term rows
};

/** One trainable GNN layer (fast functional path). */
class GnnLayer
{
  public:
    GnnLayer(const GnnLayerConfig &cfg, std::size_t in_dim,
             std::size_t out_dim, Rng &rng, const std::string &name);

    /**
     * Forward pass; caches intermediates for backward.
     *
     * @param a        adjacency with this model's aggregator weights
     * @param x        input features (N x in_dim)
     * @param out      output (N x out_dim)
     * @param training enables dropout
     * @param rng      dropout stream
     */
    void forward(const CsrGraph &a, const Matrix &x, Matrix &out,
                 bool training, Rng &rng);

    /**
     * Backward pass using the cached forward state. Accumulates
     * parameter gradients and produces dx.
     *
     * The structural transpose is never materialised: CSR(A) is CSC(A^T)
     * so the same arrays serve the reverse aggregation, as in the
     * paper's SSpMM (Fig. 5).
     */
    void backward(const CsrGraph &a, const Matrix &d_out, Matrix &dx);

    /*
     * Sharded-execution phase hooks (src/dist/). The sharded executor
     * must exchange boundary activation rows *between* the nonlinearity
     * and the aggregation (that is the point where MaxK models carry
     * CBSR rows — the paper's compounding communication win), and
     * exchange partial gradients between the reverse aggregation and
     * the rest of the backward pass. forward() and backward() above are
     * expressed in terms of these phases, so the single-device path and
     * the sharded path execute the exact same arithmetic in the same
     * order (bitwise-identical at one rank).
     */

    /** Forward phase 1: dropout + Linear1 + nonlinearity (no
     *  aggregation) on the `compute` rows. Fills the activation
     *  accessible below and caches the dropout output for backward. */
    void forwardCompute(const Matrix &x, bool training, Rng &rng,
                        RowSet compute = {});

    /** Forward phase 2: aggregation over `a` plus the model-specific
     *  combination (SAGE self path / GIN eps term) into the `target`
     *  rows of `out`. */
    void forwardCombine(const CsrGraph &a, Matrix &out, RowSet target = {});

    /** Inference phase 1 (no dropout, nothing cached): Linear1 +
     *  nonlinearity on the `compute` rows of the layer input x. */
    void forwardCompute(const Matrix &x, RowSet compute);

    /** Inference phase 2: aggregation + self term on the `target` rows
     *  of `out`; x is the input phase 1 saw. */
    void forwardCombine(const CsrGraph &a, const Matrix &x, Matrix &out,
                        RowSet target);

    /** Whether the current forward activation is CBSR (MaxK non-last
     *  layer) rather than dense. Valid after forwardCompute(). */
    bool activationIsCbsr() const { return usedCbsr_; }

    /** Mutable activation buffers — the sharded executor overwrites the
     *  halo rows with the owners' exchanged values before
     *  forwardCombine(). */
    Matrix &activationDense() { return hDense_; }
    CbsrMatrix &activationCbsr() { return cbsr_; }

    /** Backward phase 1: reverse aggregation only (A^T * d_out, dense
     *  or SSpMM at the forward pattern), from the `target` rows of
     *  d_out into the `compute` rows. */
    void backwardAgg(const CsrGraph &a, const Matrix &d_out,
                     RowSet compute = {}, RowSet target = {});

    /** Mutable reverse-aggregation gradients — the sharded executor
     *  ships the halo rows back to their owners (which add them into
     *  their local rows) and zeroes them before backwardPost(). */
    Matrix &gradAggDense() { return dh_; }
    CbsrMatrix &gradAggCbsr() { return dcbsr_; }

    /** Backward phase 2: nonlinearity backward, Linear backward, self
     *  path, dropout backward — everything after the aggregation; dx is
     *  written on the `compute` rows. */
    void backwardPost(const CsrGraph &a, const Matrix &d_out, Matrix &dx,
                      RowSet compute = {}, RowSet target = {});

    /** Backward phase 2 without the input gradient: only the parameter
     *  gradients, bitwise those of the overload above. For the first
     *  layer, whose dx nothing reads. */
    void backwardPost(const CsrGraph &a, const Matrix &d_out,
                      RowSet compute = {}, RowSet target = {});

    void collectParams(ParamRefs &out);

    const GnnLayerConfig &config() const { return cfg_; }
    std::size_t inDim() const { return linear1_.inDim(); }
    std::size_t outDim() const { return linear1_.outDim(); }

    /** Effective k after clamping to the layer width. */
    std::uint32_t effectiveK() const;

    /** CBSR activation of the last forward (MaxK layers only). */
    const CbsrMatrix &lastCbsr() const { return cbsr_; }

  private:
    /** Linear1 + nonlinearity on the compute rows of x. */
    void linearAndNonlin(const Matrix &x, RowSet compute);

    /** Gradient w.r.t. the pre-activation: into dcbsr_ (CBSR) or
     *  denseGradY(). */
    void preActivationGrad(const Matrix &d_out, RowSet compute,
                           RowSet target);
    const Matrix &denseGradY() const
    {
        // The last layer's nonlinearity is the identity: dh_ already is
        // the pre-activation gradient.
        return cfg_.lastLayer ? dh_ : dy_;
    }

    GnnLayerConfig cfg_;
    std::string name_;  //!< span detail ("layerN" in a GnnModel)
    Linear linear1_;
    Linear linear2_;  //!< SAGE self path only
    Dropout dropout_;

    // Cached forward state.
    Matrix xDropped_;   //!< layer input after dropout
    Matrix y_;          //!< Linear1 output (pre-activation)
    Matrix hDense_;     //!< activation (dense form; ReLU/identity path)
    CbsrMatrix cbsr_;   //!< activation (CBSR form; MaxK path)
    bool usedCbsr_ = false;

    // Persistent backward/forward workspaces: every per-call temporary
    // lives here so steady-state epochs perform zero Matrix/CbsrMatrix
    // heap allocations (asserted by tests/test_workspace.cc via
    // tensor/alloc_probe.hh).
    Matrix self_;       //!< SAGE self-path output (forward)
    CbsrMatrix dcbsr_;  //!< CBSR gradient at the forward pattern
    Matrix dh_;         //!< reverse-aggregated dense gradient
    Matrix dy_;         //!< gradient w.r.t. the pre-activation
    Matrix dxDropped_;  //!< gradient w.r.t. the dropped input
    Matrix dxSelf_;     //!< SAGE self-path input gradient
};

/** out = A * x for dense x (reference aggregation, fast path). */
void aggregateDense(const CsrGraph &a, const Matrix &x, Matrix &out,
                    RowSet rows = {});

/**
 * out = A^T * x for dense x (reverse aggregation, fast path), folding
 * only the rows of `sources` of x into the rows of `dests` of out
 * (every other row untouched). `dests` must hold every out-neighbour of
 * every listed source; per destination row the sources fold in
 * ascending order at any thread count (core/transpose_gather.hh).
 */
void aggregateDenseTransposed(const CsrGraph &a, const Matrix &x,
                              Matrix &out, RowSet sources = {},
                              RowSet dests = {});

/** out = A * cbsr (row-wise product SpGEMM semantics, fast path). */
void aggregateCbsr(const CsrGraph &a, const CbsrMatrix &xs, Matrix &out,
                   RowSet rows = {});

/**
 * dxs.data = sampled A^T * dxl at dxs's pattern (SSpMM semantics, fast
 * path). dxs must already carry the forward pattern. Row sets as in
 * aggregateDenseTransposed.
 */
void aggregateCbsrBackward(const CsrGraph &a, const Matrix &dxl,
                           CbsrMatrix &dxs, RowSet sources = {},
                           RowSet dests = {});

/** MaxK + CBSR compression without device simulation (fast path):
 *  each row's selection lands directly in its CBSR row. */
void maxkCompressFast(const Matrix &x, std::uint32_t k, CbsrMatrix &out,
                      RowSet rows = {});

} // namespace maxk::nn

#endif // MAXK_NN_GNN_LAYER_HH
