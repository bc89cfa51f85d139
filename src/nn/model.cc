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
    acts_.resize(layers_.size() + 1);
    acts_[0] = x;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        char tag[32];
        layerTag(tag, l);
        MAXK_TRACE_SCOPE("nn.layer.forward", tag);
        layers_[l].forward(a, acts_[l], acts_[l + 1], training, dropRng_);
    }
    return acts_.back();
}

const Matrix &
GnnModel::forwardRows(const CsrGraph &a, const Matrix &x,
                      const std::vector<LayerRows> &rows,
                      const LayerHook &hook)
{
    checkInvariant(rows.size() == layers_.size(),
                   "GnnModel::forwardRows: one row set per layer");
    checkInvariant(x.rows() == a.numNodes(),
                   "GnnModel::forwardRows: feature row count != |V|");
    // Distinct ascending in-range rows: a repeated row would have two
    // writers in the row-parallel kernels.
    auto valid = [&](const std::vector<NodeId> &ids) {
        for (std::size_t i = 0; i < ids.size(); ++i)
            if (ids[i] >= a.numNodes() || (i > 0 && ids[i] <= ids[i - 1]))
                return false;
        return true;
    };
    acts_.resize(layers_.size() + 1);
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        checkInvariant(valid(rows[l].compute) && valid(rows[l].target),
                       "GnnModel::forwardRows: row ids must be ascending, "
                       "distinct and < |V|");
        GnnLayer &layer = layers_[l];
        const Matrix &in = l == 0 ? x : acts_[l];
        char tag[32];
        layerTag(tag, l);
        MAXK_TRACE_SCOPE("nn.layer.forward", tag);
        layer.forwardCompute(in, rows[l].compute);
        if (hook)
            hook(static_cast<std::uint32_t>(l), layer);
        layer.forwardCombine(a, in, acts_[l + 1], rows[l].target);
    }
    return acts_.back();
}

void
GnnModel::backward(const CsrGraph &a, const Matrix &grad_logits)
{
    gradCur_ = grad_logits;
    for (std::size_t l = layers_.size(); l-- > 0;) {
        char tag[32];
        layerTag(tag, l);
        MAXK_TRACE_SCOPE("nn.layer.backward", tag);
        if (l > 0) {
            layers_[l].backward(a, gradCur_, gradPrev_);
            std::swap(gradCur_, gradPrev_);
            continue;
        }
        // Nothing reads the input gradient of layer 0: weights only.
        layers_[0].backwardAgg(a, gradCur_);
        layers_[0].backwardPost(a, gradCur_);
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
