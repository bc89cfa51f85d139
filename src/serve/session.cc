#include "serve/session.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "common/trace.hh"
#include "kernels/gemm_cost.hh"
#include "tensor/alloc_probe.hh"

namespace maxk::serve
{

namespace
{

/**
 * Fixed (epoch, batch) stream tags of the serving graph. Every serving
 * sample — planner adjacency draws, the reference path, and the
 * pre-sampling ranking — uses these constants, so a vertex's sampled
 * neighborhood is the same in every batch it appears in (determinism
 * rule 1 in session.hh). They only need to be fixed, not special.
 */
constexpr std::uint32_t kServeEpochTag = 0x05E12EEDu;
constexpr std::uint32_t kServeBatchTag = 0x00CA11EDu;

/** Tag separating the presample seed-draw stream from everything else. */
constexpr std::uint64_t kPresampleTag = 0xF12E9CA9ull;

/** Batches before the steady-state allocation window opens. */
constexpr std::size_t kWarmupBatches = 2;

ServeConfig
validated(const ServeConfig &cfg)
{
    // The deadline itself is validated by RequestBatcher (fatal on a
    // zero/negative/non-finite value); the remaining knobs are checked
    // here so every invalid config dies with a serving-specific message.
    if (std::isnan(cfg.cacheFraction) || cfg.cacheFraction < 0.0 ||
        cfg.cacheFraction > 1.0)
        fatal("ServeSession: cacheFraction must be in [0, 1]");
    if (cfg.batchCapacity == 0)
        fatal("ServeSession: batchCapacity must be >= 1");
    if (std::isnan(cfg.latencyBudgetSimSeconds) ||
        cfg.latencyBudgetSimSeconds < 0.0)
        fatal("ServeSession: latencyBudgetSimSeconds must be >= 0");
    return cfg;
}

sample::SamplerConfig
samplerConfigFor(const ServeConfig &cfg, std::uint32_t num_layers)
{
    sample::SamplerConfig scfg;
    scfg.fanouts.assign(num_layers, cfg.fanout);
    scfg.batchSize = cfg.batchCapacity;
    scfg.seed = cfg.seed;
    return scfg;
}

} // namespace

ServeSession::ServeSession(nn::GnnModel &trained, const CsrGraph &graph,
                           const Matrix &features, const ServeConfig &cfg)
    : graph_(graph), features_(features), cfg_(validated(cfg)),
      numLayers_(trained.config().numLayers), model_(trained.config()),
      sampler_(graph, samplerConfigFor(cfg_, numLayers_)),
      capacity_(sampler_.nodeCapacity()),
      zeroLabels_(graph.numNodes(), 0),
      extractor_(capacity_, nn::aggregatorFor(trained.config().kind),
                 features, zeroLabels_, nullptr),
      batcher_(cfg_.deadlineSimSeconds, cfg_.batchCapacity)
{
    const NodeId n = graph_.numNodes();
    checkInvariant(features_.rows() == n,
                   "ServeSession: feature rows != |V|");
    checkInvariant(features_.cols() == trained.config().inDim,
                   "ServeSession: feature width != model inDim");

    // Serving replica: same config, parameter values copied. The
    // session owns its capacity-shaped workspaces, so serving never
    // perturbs the training model's (or an eval replica's) buffers.
    const nn::ParamRefs src = trained.params();
    const nn::ParamRefs dst = model_.params();
    checkInvariant(src.size() == dst.size(),
                   "ServeSession: replica parameter mismatch");
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i]->value = src[i]->value;

    adjOff_.assign(n, -1);
    localOf_.assign(n, 0);
    stamp_.assign(n, 0);
    rowStamp_.assign(n, 0);
    plan_.resize(numLayers_);

    // Pre-size the forward input: only the planned rows of it are
    // written per batch.
    xIn_.ensureShape(capacity_, features_.cols());
    rows_.resize(numLayers_);

    presampleAndPin();
}

std::uint32_t
ServeSession::sampledDegree(NodeId v) const
{
    const EdgeId deg = graph_.degree(v);
    return static_cast<std::uint32_t>(
        std::min<EdgeId>(deg, cfg_.fanout));
}

void
ServeSession::presampleAndPin()
{
    const NodeId n = graph_.numNodes();
    const std::uint32_t cacheable = numLayers_ >= 2 ? numLayers_ - 1 : 0;
    NodeId pin_count = static_cast<NodeId>(
        std::min<double>(cfg_.cacheFraction * static_cast<double>(n) + 0.5,
                         static_cast<double>(n)));
    if (cacheable == 0)
        pin_count = 0; // a 1-layer model has no cacheable activations

    if (cacheable > 0 && !cfg_.pinnedOverride.empty()) {
        // Persisted pinned set (e.g. restored from a checkpoint): pin
        // exactly these vertices, bypassing the presample ranking. The
        // EmbeddingCache constructor enforces uniqueness and range.
        pinned_ = cfg_.pinnedOverride;
        pin_count = static_cast<NodeId>(pinned_.size());
    } else if (pin_count > 0) {
        // FGNN pre-sampling: run the serving sampler over uniform seed
        // batches and count how often each vertex lands in a sampled
        // block; hot (high-frequency) vertices are the ones steady-state
        // traffic keeps re-expanding.
        std::vector<std::uint64_t> freq(n, 0);
        for (std::uint32_t r = 0; r < cfg_.presampleBatches; ++r) {
            Rng rng(rngKey(cfg_.seed, kPresampleTag, r));
            seedsWs_.clear();
            for (std::uint32_t i = 0; i < cfg_.batchCapacity; ++i)
                seedsWs_.push_back(
                    static_cast<NodeId>(rng.nextBounded(n)));
            sampler_.sample(kServeEpochTag, kServeBatchTag, seedsWs_,
                            batchWs_);
            for (const NodeId v : batchWs_.nodes)
                ++freq[v];
        }
        std::vector<NodeId> rank(n);
        std::iota(rank.begin(), rank.end(), NodeId{0});
        std::sort(rank.begin(), rank.end(),
                  [&](NodeId a, NodeId b) {
                      if (freq[a] != freq[b])
                          return freq[a] > freq[b];
                      return a < b;
                  });
        pinned_.assign(rank.begin(), rank.begin() + pin_count);
    }

    if (cacheable > 0 && (pin_count > 0 || cfg_.lruSlots > 0)) {
        std::vector<EmbeddingCache::LayerSpec> specs(cacheable);
        for (std::uint32_t l = 0; l < cacheable; ++l) {
            specs[l].dimOrigin =
                static_cast<std::uint32_t>(model_.layerOutDim(l));
            specs[l].cbsr =
                model_.config().nonlin == nn::Nonlinearity::MaxK;
            specs[l].dimK = specs[l].cbsr
                                ? model_.layers()[l].effectiveK()
                                : specs[l].dimOrigin;
        }
        cache_.emplace(n, std::move(specs), pinned_, cfg_.lruSlots);
    }
}

const NodeId *
ServeSession::sampledAdj(NodeId v)
{
    if (adjOff_[v] >= 0)
        return adjData_.data() + adjOff_[v];
    const std::int64_t off = static_cast<std::int64_t>(adjData_.size());
    const EdgeId e0 = graph_.rowPtr()[v];
    const EdgeId deg = graph_.degree(v);
    const std::uint32_t f = cfg_.fanout;
    if (f == 0) {
        // Seed-only serving: empty adjacency everywhere.
    } else if (deg <= f) {
        adjData_.insert(adjData_.end(), graph_.colIdx().begin() + e0,
                        graph_.colIdx().begin() + e0 + deg);
    } else {
        // Bit-for-bit the NeighborSampler draw with the serve tags:
        // partial Fisher-Yates over edge positions from the per-vertex
        // keyed stream, then ascending order.
        Rng rng(rngKey(cfg_.seed, kServeEpochTag, kServeBatchTag, v));
        pickWs_.resize(deg);
        std::iota(pickWs_.begin(), pickWs_.end(), EdgeId{0});
        for (std::uint32_t t = 0; t < f; ++t) {
            const std::uint64_t j = t + rng.nextBounded(deg - t);
            std::swap(pickWs_[t], pickWs_[j]);
        }
        for (std::uint32_t t = 0; t < f; ++t)
            adjData_.push_back(graph_.colIdx()[e0 + pickWs_[t]]);
        std::sort(adjData_.begin() + off, adjData_.end());
    }
    adjOff_[v] = off;
    return adjData_.data() + off;
}

void
ServeSession::buildPlan(const std::vector<NodeId> &seeds, bool allow_stale)
{
    // Need-set recursion, top layer down. T[l] holds the rows whose
    // layer-l OUTPUT h^l must be correct; the activation sources of
    // layer l are need = T ∪ adj_s(T) (the T part feeds GIN's eps term
    // and keeps the recursion uniform across kinds). Cached sources are
    // injected; uncached ones are computed from layer input X[l] =
    // computed ∪ (SAGE ? T : ∅) — which is exactly T[l-1], the rows the
    // previous layer must produce. With an empty cache this collapses
    // to T[l] = ball_{L-1-l}(seeds): the NeighborSampler's flattened
    // block (cross-checked in executeReference).
    const bool sage = model_.config().kind == nn::GnnKind::Sage;

    plan_[numLayers_ - 1].target = seeds;
    for (std::uint32_t l = numLayers_; l-- > 0;) {
        LayerPlan &lp = plan_[l];
        lp.need.clear();
        lp.computed.clear();
        lp.inject.clear();
        if (++curStamp_ == 0) {
            stamp_.assign(stamp_.size(), 0);
            curStamp_ = 1;
        }
        for (const NodeId v : lp.target) {
            if (stamp_[v] != curStamp_) {
                stamp_[v] = curStamp_;
                lp.need.push_back(v);
            }
            const NodeId *adj = sampledAdj(v);
            const std::uint32_t dv = sampledDegree(v);
            for (std::uint32_t t = 0; t < dv; ++t) {
                const NodeId u = adj[t];
                if (stamp_[u] != curStamp_) {
                    stamp_[u] = curStamp_;
                    lp.need.push_back(u);
                }
            }
        }
        std::sort(lp.need.begin(), lp.need.end());

        const bool cacheable = cache_.has_value() && l + 1 < numLayers_;
        for (const NodeId u : lp.need) {
            const std::int64_t slot =
                cacheable ? cache_->lookup(l, u, allow_stale) : -1;
            if (slot >= 0)
                lp.inject.emplace_back(u, slot);
            else
                lp.computed.push_back(u);
        }

        if (l > 0) {
            std::vector<NodeId> &nt = plan_[l - 1].target;
            nt.clear();
            if (sage)
                std::set_union(lp.computed.begin(), lp.computed.end(),
                               lp.target.begin(), lp.target.end(),
                               std::back_inserter(nt));
            else
                nt = lp.computed;
        }
    }

    // Feature gather set X[0] (empty when layer 0 has no targets, i.e.
    // every activation it would feed comes from the cache).
    featureRows_.clear();
    const LayerPlan &lp0 = plan_[0];
    if (sage)
        std::set_union(lp0.computed.begin(), lp0.computed.end(),
                       lp0.target.begin(), lp0.target.end(),
                       std::back_inserter(featureRows_));
    else
        featureRows_ = lp0.computed;

    // Batch node set: union of every layer's activation sources.
    if (++curStamp_ == 0) {
        stamp_.assign(stamp_.size(), 0);
        curStamp_ = 1;
    }
    nodes_.clear();
    for (std::uint32_t l = 0; l < numLayers_; ++l)
        for (const NodeId u : plan_[l].need)
            if (stamp_[u] != curStamp_) {
                stamp_[u] = curStamp_;
                nodes_.push_back(u);
            }
    std::sort(nodes_.begin(), nodes_.end());
    checkInvariant(nodes_.size() <= capacity_,
                   "ServeSession: plan exceeds node capacity");
    for (std::size_t r = 0; r < nodes_.size(); ++r)
        localOf_[nodes_[r]] = static_cast<NodeId>(r);

    // The row-set forward's sets, as local rows: layer l computes its
    // activation on the uncached sources and its output on the targets.
    // localOf_ is monotone over nodes_, so ascending global lists map to
    // ascending local ones.
    for (std::uint32_t l = 0; l < numLayers_; ++l) {
        nn::LayerRows &rows = rows_[l];
        rows.compute.clear();
        for (const NodeId v : plan_[l].computed)
            rows.compute.push_back(localOf_[v]);
        rows.target.clear();
        for (const NodeId v : plan_[l].target)
            rows.target.push_back(localOf_[v]);
    }

    // Row set: vertices needing sampled out-edges in the local CSR.
    if (++curRowStamp_ == 0) {
        rowStamp_.assign(rowStamp_.size(), 0);
        curRowStamp_ = 1;
    }
    for (std::uint32_t l = 0; l < numLayers_; ++l)
        for (const NodeId v : plan_[l].target)
            rowStamp_[v] = curRowStamp_;
}

void
ServeSession::buildLocalGraph()
{
    const std::size_t nl = nodes_.size();
    rowPtrStage_.assign(capacity_ + 1, 0);
    for (std::size_t r = 0; r < nl; ++r) {
        const NodeId v = nodes_[r];
        rowPtrStage_[r + 1] =
            rowStamp_[v] == curRowStamp_ ? sampledDegree(v) : 0;
    }
    for (std::size_t r = 0; r < capacity_; ++r)
        rowPtrStage_[r + 1] += rowPtrStage_[r];
    colIdxStage_.resize(rowPtrStage_[capacity_]);
    for (std::size_t r = 0; r < nl; ++r) {
        const NodeId v = nodes_[r];
        if (rowStamp_[v] != curRowStamp_)
            continue;
        const NodeId *adj = sampledAdj(v);
        const std::uint32_t dv = sampledDegree(v);
        EdgeId at = rowPtrStage_[r];
        for (std::uint32_t t = 0; t < dv; ++t)
            colIdxStage_[at++] = localOf_[adj[t]];
    }
    localGraph_ = CsrGraph::fromCsr(capacity_, std::move(rowPtrStage_),
                                    std::move(colIdxStage_));
    applyServeWeights(localGraph_, nodes_);
    rowPtrStage_.clear();
    colIdxStage_.clear();
}

void
ServeSession::applyServeWeights(CsrGraph &g,
                                const std::vector<NodeId> &global_ids)
{
    // Batch-invariant weights from fixed sampled degrees (determinism
    // rule 2 in the file comment). Applied identically on the planner
    // and reference paths, overwriting whatever local-degree convention
    // the graph carried.
    const nn::GnnKind kind = model_.config().kind;
    std::vector<Float> &vals = g.mutableValues();
    vals.resize(g.numEdges(), 1.0f);
    const std::vector<EdgeId> &rp = g.rowPtr();
    const std::vector<NodeId> &ci = g.colIdx();
    for (std::size_t r = 0; r < global_ids.size(); ++r) {
        const EdgeId b = rp[r];
        const EdgeId e = rp[r + 1];
        if (b == e)
            continue;
        switch (kind) {
          case nn::GnnKind::Sage: {
            // Row length == deg_s(row): the row carries exactly the
            // fixed sampled adjacency on both paths.
            const Float w = 1.0f / static_cast<Float>(e - b);
            for (EdgeId t = b; t < e; ++t)
                vals[t] = w;
            break;
          }
          case nn::GnnKind::Gcn: {
            const Float di = static_cast<Float>(
                std::max<std::uint32_t>(sampledDegree(global_ids[r]), 1));
            for (EdgeId t = b; t < e; ++t) {
                const Float dj = static_cast<Float>(
                    std::max<std::uint32_t>(
                        sampledDegree(global_ids[ci[t]]), 1));
                vals[t] = 1.0f / std::sqrt(di * dj);
            }
            break;
          }
          case nn::GnnKind::Gin:
            for (EdgeId t = b; t < e; ++t)
                vals[t] = 1.0f;
            break;
        }
    }
}

void
ServeSession::executePlanned(BatchServeStats &bs)
{
    buildLocalGraph();

    const std::size_t dim = features_.cols();
    for (const NodeId v : featureRows_) {
        const Float *src = features_.row(v);
        Float *dst = xIn_.row(localOf_[v]);
        std::copy(src, src + dim, dst);
    }

    auto hook = [&](std::uint32_t l, nn::GnnLayer &layer) {
        const LayerPlan &lp = plan_[l];
        const bool cb = layer.activationIsCbsr();
        for (const auto &[v, slot] : lp.inject) {
            const NodeId r = localOf_[v];
            if (cb)
                cache_->loadCbsrRow(l, slot, layer.activationCbsr(), r);
            else
                cache_->loadDenseRow(l, slot,
                                     layer.activationDense().row(r));
        }
        if (cache_ && l + 1 < numLayers_) {
            for (const NodeId v : lp.computed) {
                const std::int64_t slot = cache_->admit(l, v);
                if (slot < 0)
                    continue;
                const NodeId r = localOf_[v];
                if (cb)
                    cache_->storeCbsrRow(l, slot, layer.activationCbsr(),
                                         r);
                else
                    cache_->storeDenseRow(
                        l, slot, layer.activationDense().row(r));
            }
        }
    };
    logitsWs_ = &model_.forwardRows(localGraph_, xIn_, rows_, hook);
    (void)bs;
}

void
ServeSession::executeReference(BatchServeStats &bs)
{
    sampler_.sample(kServeEpochTag, kServeBatchTag, seedsWs_, batchWs_);
    // Structural cross-check: with no cache the planner's node set must
    // be exactly the sampler's flattened k-hop block.
    checkInvariant(batchWs_.nodes == nodes_,
                   "ServeSession: planner/sampler node-set mismatch");
    extractor_.extract(batchWs_, mbWs_);
    applyServeWeights(mbWs_.graph, batchWs_.nodes);
    logitsWs_ = &model_.forward(mbWs_.graph, mbWs_.features, false);
    (void)bs;
}

double
ServeSession::batchSimSeconds(const BatchServeStats &bs) const
{
    // Structural roofline over PLANNED work: gathered feature rows,
    // computed activation rows, aggregated edges and injected cache
    // bytes — what the row-set forward executes on the host too. The
    // serving forward is modeled as graph-captured: launch overhead is
    // charged ONCE per executed layer (the explicit term below), so each
    // roofline call's embedded per-call overhead is stripped — otherwise
    // fixed launch cost dominates the per-batch time and masks the cache
    // win. Layers below the first one with targets are served entirely
    // from the cache and launch nothing.
    std::uint32_t first = 0;
    while (first + 1 < numLayers_ && plan_[first].target.empty())
        ++first;
    const gpusim::DeviceConfig &dev = cfg_.device;
    const double launch = dev.launchOverheadUs * 1e-6;
    double s = launch * static_cast<double>(numLayers_ - first + 1);
    s += elementwiseSimSeconds(bs.featureBytesGathered / sizeof(Float),
                               dev) -
         launch;
    const bool sage = model_.config().kind == nn::GnnKind::Sage;
    const bool maxk = model_.config().nonlin == nn::Nonlinearity::MaxK;
    for (std::uint32_t l = first; l < numLayers_; ++l) {
        const LayerPlan &lp = plan_[l];
        const std::uint64_t m = lp.computed.size();
        const std::uint64_t t = lp.target.size();
        const std::uint64_t in_dim = model_.layerInDim(l);
        const std::uint64_t out_dim = model_.layerOutDim(l);
        if (m > 0) {
            s += gemmSimSeconds(m, in_dim, out_dim, dev) - launch;
            s += elementwiseSimSeconds(m * out_dim, dev) - launch;
        }
        if (sage && t > 0)
            s += gemmSimSeconds(t, in_dim, out_dim, dev) - launch;
        std::uint64_t edges = 0;
        for (const NodeId v : lp.target)
            edges += sampledDegree(v);
        const std::uint64_t width =
            maxk && l + 1 < numLayers_
                ? std::min<std::uint64_t>(model_.config().maxkK, out_dim)
                : out_dim;
        s += elementwiseSimSeconds(edges * width + t * out_dim, dev) -
             launch;
        if (cache_ && l + 1 < numLayers_) {
            const double inject_bytes =
                static_cast<double>(lp.inject.size()) *
                static_cast<double>(cache_->rowBytes(l));
            s += inject_bytes / (dev.hbmGBs * 1e9);
        }
    }
    return s;
}

void
ServeSession::degradeCache()
{
    if (cache_)
        cache_->markAllStale();
}

Expected<ServeReport, ServeError>
ServeSession::replay(const std::vector<ServeRequest> &trace)
{
    const NodeId n = graph_.numNodes();

    // ServeBurst fault (ISSUE 9): extend the trace with a deterministic
    // burst of `payload` requests that all arrive at the trace's last
    // arrival instant — the overload shape the shed/degrade policy is
    // built for. Vertices come from a keyed stream, so the same plan
    // always appends the same burst.
    const std::vector<ServeRequest> *req = &trace;
    std::uint64_t burst = 0;
    if (cfg_.faults) {
        if (const FaultSpec *f = cfg_.faults->fire("serve.replay")) {
            if (f->kind != FaultKind::ServeBurst)
                throw InjectedFault(*f);
            burst = f->payload;
            burstWs_.assign(trace.begin(), trace.end());
            double at = 0.0;
            for (const ServeRequest &r : trace)
                if (std::isfinite(r.arrivalSimSeconds))
                    at = std::max(at, r.arrivalSimSeconds);
            Rng rng(rngKey(cfg_.seed, 0xB125Cull, f->occurrence, burst));
            for (std::uint64_t i = 0; i < burst; ++i)
                burstWs_.push_back(ServeRequest{
                    at, static_cast<NodeId>(rng.nextBounded(n))});
            req = &burstWs_;
        }
    }
    const std::vector<ServeRequest> &reqs = *req;

    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (!std::isfinite(reqs[i].arrivalSimSeconds))
            return unexpected(ServeError{
                i, "non-finite arrival time in request trace"});
        if (reqs[i].vertex >= n)
            return unexpected(ServeError{
                i, "request vertex " + std::to_string(reqs[i].vertex) +
                       " out of range (|V| = " + std::to_string(n) +
                       ")"});
    }

    Stopwatch watch;
    ServeReport rep;
    rep.requests = reqs.size();
    rep.burstRequests = burst;
    batcher_.plan(reqs, batchesWs_);
    rep.batches = batchesWs_.size();
    rep.logits.ensureShape(reqs.size(), model_.config().outDim);
    rep.latencySimSeconds.assign(reqs.size(), 0.0);
    rep.requestOutcome.assign(reqs.size(), ServeReport::kOutcomeFresh);
    rep.requestBatch.assign(reqs.size(), 0);
    rep.batchStats.reserve(batchesWs_.size());

    // Overload policy (all off when the budget is 0, which reduces this
    // loop to the ISSUE 8 behaviour bit for bit): a serialized server
    // starts each batch when the previous one finished, projects the
    // batch's worst-case request latency from its PLANNED work before
    // executing anything, and degrades (stale replan) then sheds when
    // the projection blows the budget.
    const double budget = cfg_.latencyBudgetSimSeconds;
    const bool queue_model = budget > 0.0;
    double server_free = 0.0;

    const CacheStats cache_base =
        cache_ ? cache_->stats() : CacheStats{};
    std::uint64_t alloc_base = 0;

    for (std::size_t bi = 0; bi < batchesWs_.size(); ++bi) {
        MAXK_TRACE_SCOPE_NAMED(batch_span, "serve.batch");
        if (bi == kWarmupBatches)
            alloc_base = AllocProbe::totalAllocCount();
        const RequestBatch &batch = batchesWs_[bi];

        seedsWs_.clear();
        for (const std::uint32_t idx : batch.requests)
            seedsWs_.push_back(reqs[idx].vertex);
        std::sort(seedsWs_.begin(), seedsWs_.end());
        seedsWs_.erase(std::unique(seedsWs_.begin(), seedsWs_.end()),
                       seedsWs_.end());

        BatchServeStats bs;
        bs.requests = static_cast<std::uint32_t>(batch.requests.size());
        bs.seeds = static_cast<std::uint32_t>(seedsWs_.size());

        // Plan the batch and meter the plan-derived work; called a
        // second time (allow_stale) when the policy degrades the batch.
        auto planBatch = [&](bool allow_stale) {
            const CacheStats pre =
                cache_ ? cache_->stats() : CacheStats{};
            buildPlan(seedsWs_, allow_stale);
            bs.cacheHits = bs.cacheMisses = 0;
            bs.nodesRecomputed = bs.nodesInjected = 0;
            bs.edgesAggregated = bs.cacheBytesInjected = 0;
            bs.staleRowsInjected = 0;
            if (cache_) {
                bs.cacheHits = cache_->stats().hits - pre.hits;
                bs.cacheMisses = cache_->stats().misses - pre.misses;
                bs.staleRowsInjected =
                    cache_->stats().staleServed - pre.staleServed;
            }
            for (std::uint32_t l = 0; l < numLayers_; ++l) {
                const LayerPlan &lp = plan_[l];
                bs.nodesRecomputed += lp.computed.size();
                bs.nodesInjected += lp.inject.size();
                for (const NodeId v : lp.target)
                    bs.edgesAggregated += sampledDegree(v);
                if (cache_ && l + 1 < numLayers_)
                    bs.cacheBytesInjected +=
                        static_cast<std::uint64_t>(lp.inject.size()) *
                        cache_->rowBytes(l);
            }
            bs.featureBytesGathered =
                static_cast<std::uint64_t>(featureRows_.size()) *
                features_.cols() * sizeof(Float);
        };
        planBatch(false);

        const double start =
            queue_model
                ? std::max(batch.dispatchSimSeconds, server_free)
                : batch.dispatchSimSeconds;
        std::uint8_t outcome = ServeReport::kOutcomeFresh;
        if (queue_model) {
            double earliest = reqs[batch.requests.front()].arrivalSimSeconds;
            for (const std::uint32_t idx : batch.requests)
                earliest =
                    std::min(earliest, reqs[idx].arrivalSimSeconds);
            double worst = start + batchSimSeconds(bs) - earliest;
            if (worst > budget && cfg_.staleServeEnabled && cache_) {
                planBatch(true);
                worst = start + batchSimSeconds(bs) - earliest;
                if (bs.staleRowsInjected > 0)
                    outcome = ServeReport::kOutcomeStale;
            }
            if (worst > budget && cfg_.shedOnOverload) {
                // Shed before the forward: zeroed logits, no service
                // time charged, no cache mutation beyond the planning
                // lookups (admissions only happen during execution, so
                // later batches' logits are unaffected).
                bs.shed = true;
                bs.serviceSimSeconds = 0.0;
                bs.nodesRecomputed = bs.nodesInjected = 0;
                bs.featureBytesGathered = bs.cacheBytesInjected = 0;
                bs.edgesAggregated = 0;
                bs.staleRowsInjected = 0;
                const std::size_t out_dim = model_.config().outDim;
                for (const std::uint32_t idx : batch.requests) {
                    Float *dst = rep.logits.row(idx);
                    std::fill(dst, dst + out_dim, 0.0f);
                    rep.requestBatch[idx] =
                        static_cast<std::uint32_t>(bi);
                    rep.requestOutcome[idx] = ServeReport::kOutcomeShed;
                }
                rep.sheddedRequests += batch.requests.size();
                rep.cacheHits += bs.cacheHits;
                rep.cacheMisses += bs.cacheMisses;
                rep.batchStats.push_back(bs);
                if (telemetry::armed()) {
                    telemetry::counterAdd("serve.requests",
                                          batch.requests.size());
                    telemetry::counterAdd("serve.requests.shed",
                                          batch.requests.size());
                    telemetry::counterAdd("serve.cache.hits",
                                          bs.cacheHits);
                    telemetry::counterAdd("serve.cache.misses",
                                          bs.cacheMisses);
                }
                continue;
            }
        }

        if (cache_)
            executePlanned(bs);
        else
            executeReference(bs);
        bs.serviceSimSeconds = batchSimSeconds(bs);
        batch_span.setSimSeconds(bs.serviceSimSeconds);
        const double finish = start + bs.serviceSimSeconds;
        if (queue_model)
            server_free = finish;

        if (outcome == ServeReport::kOutcomeStale) {
            rep.staleServedRequests += batch.requests.size();
            ++rep.degradedBatches;
        }
        rep.staleRowsInjected += bs.staleRowsInjected;

        const std::size_t out_dim = model_.config().outDim;
        const bool armed = telemetry::armed();
        for (const std::uint32_t idx : batch.requests) {
            const NodeId r = localOf_[reqs[idx].vertex];
            const Float *src = logitsWs_->row(r);
            Float *dst = rep.logits.row(idx);
            std::copy(src, src + out_dim, dst);
            rep.latencySimSeconds[idx] =
                finish - reqs[idx].arrivalSimSeconds;
            rep.requestOutcome[idx] = outcome;
            rep.requestBatch[idx] = static_cast<std::uint32_t>(bi);
            if (armed) {
                // Latencies are simulated (deterministic), recorded in
                // integer ns so the histogram merge stays exact.
                telemetry::histogramRecord(
                    "serve.latency_ns",
                    static_cast<std::uint64_t>(
                        rep.latencySimSeconds[idx] * 1e9 + 0.5));
            }
        }
        if (armed) {
            telemetry::counterAdd("serve.requests",
                                  batch.requests.size());
            telemetry::counterAdd("serve.batches", 1);
            telemetry::counterAdd("serve.cache.hits", bs.cacheHits);
            telemetry::counterAdd("serve.cache.misses", bs.cacheMisses);
            if (outcome == ServeReport::kOutcomeStale)
                telemetry::counterAdd("serve.requests.stale",
                                      batch.requests.size());
        }

        rep.cacheHits += bs.cacheHits;
        rep.cacheMisses += bs.cacheMisses;
        rep.nodesRecomputed += bs.nodesRecomputed;
        rep.nodesInjected += bs.nodesInjected;
        rep.featureBytesGathered += bs.featureBytesGathered;
        rep.cacheBytesInjected += bs.cacheBytesInjected;
        rep.edgesAggregated += bs.edgesAggregated;
        rep.serviceSimSeconds += bs.serviceSimSeconds;
        rep.batchStats.push_back(bs);
    }

    if (batchesWs_.size() > kWarmupBatches)
        rep.steadyStateAllocCount =
            AllocProbe::totalAllocCount() - alloc_base;
    if (cache_) {
        rep.cacheStores = cache_->stats().stores - cache_base.stores;
        rep.cacheEvictions =
            cache_->stats().evictions - cache_base.evictions;
    }
    if (rep.requests > 0 && rep.sheddedRequests == rep.requests)
        return unexpected(ServeError{
            0,
            "overload policy shed every request (budget " +
                std::to_string(budget) + " sim seconds, " +
                std::to_string(rep.requests) + " requests)",
            ServeError::Kind::Shedded});

    // Latency percentiles over SERVED requests only: shed requests have
    // no latency (their entry stays 0 and would skew the tail downward).
    std::vector<double> sorted;
    sorted.reserve(rep.latencySimSeconds.size());
    for (std::size_t i = 0; i < rep.latencySimSeconds.size(); ++i)
        if (rep.requestOutcome[i] != ServeReport::kOutcomeShed)
            sorted.push_back(rep.latencySimSeconds[i]);
    if (!sorted.empty()) {
        std::sort(sorted.begin(), sorted.end());
        auto pct = [&](double q) {
            const std::size_t nq = sorted.size();
            std::size_t idx = static_cast<std::size_t>(
                std::ceil(q * static_cast<double>(nq)));
            idx = idx == 0 ? 0 : idx - 1;
            return sorted[std::min(idx, nq - 1)];
        };
        rep.p50LatencySimSeconds = pct(0.50);
        rep.p99LatencySimSeconds = pct(0.99);
        rep.maxLatencySimSeconds = sorted.back();
    }
    if (rep.serviceSimSeconds > 0.0)
        rep.requestsPerSimSecond = static_cast<double>(rep.requests) /
                                   rep.serviceSimSeconds;
    rep.hostSeconds = watch.seconds();
    return rep;
}

} // namespace maxk::serve
