#include "nn/model.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/trace.hh"

namespace maxk::nn
{

namespace
{

/** "layerN" tag for span args; empty (and free) when disarmed. */
void
layerTag(char (&tag)[32], std::size_t l)
{
    tag[0] = '\0';
    if (telemetry::armed())
        std::snprintf(tag, sizeof(tag), "layer%zu", l);
}

} // namespace

GnnModel::GnnModel(const ModelConfig &cfg)
    : cfg_(cfg), dropRng_(cfg.seed ^ 0xD80C7ull)
{
    checkInvariant(cfg.numLayers >= 1, "GnnModel: need >= 1 layer");
    Rng init_rng(cfg.seed);
    layers_.reserve(cfg.numLayers);
    for (std::uint32_t l = 0; l < cfg.numLayers; ++l) {
        GnnLayerConfig lc;
        lc.kind = cfg.kind;
        lc.nonlin = cfg.nonlin;
        lc.maxkK = cfg.maxkK;
        lc.lastLayer = l + 1 == cfg.numLayers;
        lc.ginEps = cfg.ginEps;
        lc.dropout = cfg.dropout;
        layers_.emplace_back(lc, layerInDim(l), layerOutDim(l), init_rng,
                             "layer" + std::to_string(l));
    }
}

std::size_t
GnnModel::layerInDim(std::uint32_t l) const
{
    return l == 0 ? cfg_.inDim : cfg_.hiddenDim;
}

std::size_t
GnnModel::layerOutDim(std::uint32_t l) const
{
    return l + 1 == cfg_.numLayers ? cfg_.outDim : cfg_.hiddenDim;
}

const Matrix &
GnnModel::forward(const CsrGraph &a, const Matrix &x, bool training)
{
    return forwardLoop(a, x, nullptr, true, training, {});
}

const Matrix &
GnnModel::forward(const CsrGraph &a, const Matrix &x, bool training,
                  const std::vector<LayerRows> &rows)
{
    checkRows(a, rows);
    return forwardLoop(a, x, &rows, true, training, {});
}

const Matrix &
GnnModel::forwardRows(const CsrGraph &a, const Matrix &x,
                      const std::vector<LayerRows> &rows,
                      const LayerHook &hook)
{
    checkRows(a, rows);
    return forwardLoop(a, x, &rows, false, false, hook);
}

void
GnnModel::checkRows(const CsrGraph &a,
                    const std::vector<LayerRows> &rows) const
{
    checkInvariant(rows.size() == layers_.size(),
                   "GnnModel: one row set per layer");
    // Distinct ascending in-range rows: a repeated row would have two
    // writers in the row-parallel kernels.
    auto valid = [&](const std::vector<NodeId> &ids) {
        for (std::size_t i = 0; i < ids.size(); ++i)
            if (ids[i] >= a.numNodes() || (i > 0 && ids[i] <= ids[i - 1]))
                return false;
        return true;
    };
    for (const LayerRows &r : rows)
        checkInvariant(valid(r.compute) && valid(r.target),
                       "GnnModel: row ids must be ascending, distinct "
                       "and < |V|");
}

const Matrix &
GnnModel::forwardLoop(const CsrGraph &a, const Matrix &x,
                      const std::vector<LayerRows> *rows, bool cache,
                      bool training, const LayerHook &hook)
{
    checkInvariant(x.rows() == a.numNodes(),
                   "GnnModel::forward: feature row count != |V|");
    acts_.resize(layers_.size() + 1);
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        GnnLayer &layer = layers_[l];
        const Matrix &in = l == 0 ? x : acts_[l];
        const RowSet compute = rows ? RowSet((*rows)[l].compute) : RowSet{};
        const RowSet target = rows ? RowSet((*rows)[l].target) : RowSet{};
        char tag[32];
        layerTag(tag, l);
        MAXK_TRACE_SCOPE("nn.layer.forward", tag);
        if (cache)
            layer.forwardCompute(in, training, dropRng_, compute);
        else
            layer.forwardCompute(in, compute);
        if (hook)
            hook(static_cast<std::uint32_t>(l), layer);
        if (cache)
            layer.forwardCombine(a, acts_[l + 1], target);
        else
            layer.forwardCombine(a, in, acts_[l + 1], target);
    }
    return acts_.back();
}

void
GnnModel::backward(const CsrGraph &a, const Matrix &grad_logits)
{
    backwardLoop(a, grad_logits, nullptr);
}

void
GnnModel::backward(const CsrGraph &a, const Matrix &grad_logits,
                   const std::vector<LayerRows> &rows)
{
    checkRows(a, rows);
    backwardLoop(a, grad_logits, &rows);
}

void
GnnModel::backwardLoop(const CsrGraph &a, const Matrix &grad_logits,
                       const std::vector<LayerRows> *rows)
{
    gradCur_ = grad_logits;
    for (std::size_t l = layers_.size(); l-- > 0;) {
        GnnLayer &layer = layers_[l];
        const RowSet compute = rows ? RowSet((*rows)[l].compute) : RowSet{};
        const RowSet target = rows ? RowSet((*rows)[l].target) : RowSet{};
        char tag[32];
        layerTag(tag, l);
        MAXK_TRACE_SCOPE("nn.layer.backward", tag);
        layer.backwardAgg(a, gradCur_, compute, target);
        if (l > 0) {
            layer.backwardPost(a, gradCur_, gradPrev_, compute, target);
            std::swap(gradCur_, gradPrev_);
        } else {
            // Nothing reads the input gradient of layer 0: weights only.
            layer.backwardPost(a, gradCur_, compute, target);
        }
    }
}

ParamRefs
GnnModel::params()
{
    ParamRefs refs;
    for (auto &layer : layers_)
        layer.collectParams(refs);
    return refs;
}

} // namespace maxk::nn
