/**
 * @file
 * Online inference session: the "millions of users" half of the ROADMAP
 * north star (ISSUE 8). A ServeSession answers per-vertex prediction
 * requests over a trained GnnModel by replaying a request trace through
 * RequestBatcher -> frontier planner -> (EmbeddingCache | recompute) ->
 * GnnModel::forwardRows, which computes only the planned rows.
 *
 * Determinism contract (the correctness anchor, proven by
 * tests/test_serve.cc): the logits returned for a vertex are a pure
 * function of (trained parameters, graph, features, serve seed, fanout)
 * — independent of arrival interleaving, batch composition, cache
 * fraction, and thread count. Three design rules make that hold:
 *
 *  1. Fixed per-vertex sampled adjacency. Serving samples with ONE
 *     uniform fanout and FIXED (epoch, batch) stream tags, so vertex
 *     v's sampled neighbor set adj_s(v) never depends on which batch
 *     first reached it (unlike training, where each (epoch, batch)
 *     resamples). The draw procedure is bit-for-bit the
 *     NeighborSampler's, so the reference path (NeighborSampler +
 *     MinibatchExtractor) and the planner path expand identical graphs.
 *
 *  2. Batch-invariant edge weights. Training minibatches weight edges
 *     by LOCAL sampled degrees, which vary with batch composition (a
 *     frontier vertex has an empty row in one batch and a sampled row
 *     in another). Serving instead derives every weight from the fixed
 *     sampled degree deg_s(v) = min(deg(v), fanout): SAGE 1/deg_s(row),
 *     GCN 1/sqrt(max(deg_s(i),1) * max(deg_s(j),1)), GIN 1 — applied
 *     identically on both execution paths.
 *
 *  3. Per-row compute. Every op in the forward (Linear, MaxK pivot
 *     select, ReLU, dropout-off, row-wise aggregation over ascending
 *     neighbor lists) reads and writes rows independently, so a row's
 *     value cannot depend on which other rows share its batch.
 *
 * With those rules, a cached activation row is bitwise equal to what
 * recomputing it would produce, so cache hits change stats and
 * simulated cost but never logits.
 *
 * Row-set execution. Rule 3 is also why the cached path may compute
 * only what the plan needs: it hands the planner's per-layer sets, as
 * local rows, to the row-set forward (nn::LayerRows, GnnModel::
 * forwardRows). Layer l runs Linear1 and the nonlinearity on its
 * uncached sources (`computed`) and the aggregation and self term on
 * its targets, and every such row is bitwise the padded forward's. The
 * planner guarantees that each row a computed row reads was computed or
 * injected first; every other row of the capacity-shaped buffers keeps
 * stale contents and is never read. Host time therefore follows planned
 * work, and the cache pays off on the host clock too. The cache-off
 * path (sampler + extractor + padded forward) stays the reference the
 * anchor tests compare against.
 *
 * Cost model: serving also charges a deterministic structural cost
 * model of the same planned work (gathered feature rows, computed
 * activation rows, aggregated edges, injected cache bytes) through the
 * gemm/elementwise roofline on the simulated A100. bench_serve gates
 * those numbers in CI.
 */

#ifndef MAXK_SERVE_SESSION_HH
#define MAXK_SERVE_SESSION_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.hh"
#include "common/fault.hh"
#include "gpusim/device.hh"
#include "nn/model.hh"
#include "sample/extractor.hh"
#include "sample/sampler.hh"
#include "serve/batcher.hh"
#include "serve/embedding_cache.hh"

namespace maxk::serve
{

/** Serving configuration (validated by ServeSession: fatal() on a
 *  non-positive deadline, cacheFraction outside [0, 1], or zero batch
 *  capacity). */
struct ServeConfig
{
    /** Uniform per-hop fanout of the fixed serving graph (0 = seed-only
     *  MLP over features). Uniformity is required for determinism rule
     *  1 above. */
    std::uint32_t fanout = 8;

    /** Seed of the serving graph's keyed sampling streams. */
    std::uint64_t seed = 2027;

    /** Max simulated seconds a request may wait for its batch. */
    double deadlineSimSeconds = 2e-3;

    /** Max requests coalesced into one forward (also the sampler's
     *  batchSize, which fixes the padded node capacity). */
    std::uint32_t batchCapacity = 32;

    /** Fraction of |V| pinned per cacheable layer, ranked by presampled
     *  frequency (FGNN policy). 0 disables pinning. */
    double cacheFraction = 0.0;

    /** Extra LRU slots per layer admitting non-pinned vertices. */
    std::uint32_t lruSlots = 0;

    /** Pre-sampling rounds for the frequency ranking (each round
     *  samples one batchCapacity-sized uniform seed set). */
    std::uint32_t presampleBatches = 8;

    /** Simulated device for the structural cost model. */
    gpusim::DeviceConfig device = gpusim::DeviceConfig::a100();

    // ------------------------------------------------------------------
    // Overload policy (ISSUE 9). All knobs default OFF so the committed
    // serving perf baseline (bench/baselines/serve.json) is untouched:
    // with latencyBudgetSimSeconds == 0 the replay loop is byte-for-byte
    // the ISSUE 8 behaviour (per-batch latency = dispatch + service -
    // arrival, nothing shed, nothing served stale).
    // ------------------------------------------------------------------

    /**
     * Simulated end-to-end latency budget. When > 0, replay() switches
     * to a serialized-server queue model (a batch starts at
     * max(dispatch, previous batch finish)) and projects each batch's
     * worst-case request latency BEFORE executing it. A batch projected
     * over budget is first degraded (staleServeEnabled), then shed
     * (shedOnOverload); with both off the batch still runs and simply
     * reports an over-budget latency.
     */
    double latencyBudgetSimSeconds = 0.0;

    /**
     * Degraded mode: when an over-budget batch can be cheapened by
     * serving cache entries marked stale (EmbeddingCache::markAllStale
     * after a weight refresh / failover), replan with allow_stale and
     * serve the stale rows. Every request of such a batch is explicitly
     * marked ServeReport::kOutcomeStale — degraded answers are never
     * silently passed off as fresh.
     */
    bool staleServeEnabled = false;

    /**
     * Load shedding: a batch still over budget after (optional) stale
     * degradation is dropped before its forward — zeroed logits, outcome
     * kOutcomeShed, excluded from the latency percentiles. Bounds the
     * simulated p99 of the served requests under overload.
     */
    bool shedOnOverload = false;

    /**
     * Non-empty: pin exactly these vertices instead of running the
     * presample frequency ranking (restoring a persisted pinned set from
     * a checkpoint). Entries must be unique and < |V| (fatal otherwise,
     * via the EmbeddingCache invariants).
     */
    std::vector<NodeId> pinnedOverride;

    /** Optional fault injector (site "serve.replay": a ServeBurst spec
     *  appends `payload` deterministic requests to the trace tail). Not
     *  owned. */
    FaultInjector *faults = nullptr;
};

/** Typed replay failure (recoverable; no process exit). */
struct ServeError
{
    enum class Kind : std::uint8_t
    {
        InvalidRequest = 0, //!< malformed trace entry (requestIndex set)
        Shedded = 1,        //!< overload shed EVERY request of the trace
    };

    std::size_t requestIndex = 0;
    std::string message;
    Kind kind = Kind::InvalidRequest;
};

/** Per-batch serving stats (index by ServeReport::requestBatch). */
struct BatchServeStats
{
    std::uint32_t requests = 0;       //!< trace entries in this batch
    std::uint32_t seeds = 0;          //!< distinct request vertices
    std::uint64_t nodesRecomputed = 0; //!< planned activation rows
    std::uint64_t nodesInjected = 0;  //!< rows served from the cache
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t featureBytesGathered = 0;
    std::uint64_t cacheBytesInjected = 0;
    std::uint64_t edgesAggregated = 0;
    std::uint64_t staleRowsInjected = 0; //!< stale cache rows served
    bool shed = false;                //!< dropped before its forward
    double serviceSimSeconds = 0.0;   //!< structural cost of the forward
};

/** Outcome of one trace replay. */
struct ServeReport
{
    /** Per-request outcome codes (requestOutcome). */
    static constexpr std::uint8_t kOutcomeFresh = 0;
    static constexpr std::uint8_t kOutcomeStale = 1;
    static constexpr std::uint8_t kOutcomeShed = 2;

    std::uint64_t requests = 0;
    std::uint64_t batches = 0;

    // Aggregates over batchStats.
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheStores = 0;
    std::uint64_t cacheEvictions = 0;
    std::uint64_t nodesRecomputed = 0;
    std::uint64_t nodesInjected = 0;
    std::uint64_t featureBytesGathered = 0;
    std::uint64_t cacheBytesInjected = 0;
    std::uint64_t edgesAggregated = 0;

    /** Σ per-batch structural service time (the throughput basis:
     *  requestsPerSimSecond = requests / serviceSimSeconds). */
    double serviceSimSeconds = 0.0;
    double requestsPerSimSecond = 0.0;

    /**
     * Simulated request latency = batch start + service - arrival,
     * where start is the dispatch time (default) or
     * max(dispatch, previous batch finish) under the queue model
     * (latencyBudgetSimSeconds > 0). Percentiles cover SERVED requests
     * only — shed requests (latency pinned to 0) are excluded.
     */
    double p50LatencySimSeconds = 0.0;
    double p99LatencySimSeconds = 0.0;
    double maxLatencySimSeconds = 0.0;

    // Overload/degradation metering (ISSUE 9; all zero with the policy
    // knobs off).
    std::uint64_t sheddedRequests = 0;     //!< outcome kOutcomeShed
    std::uint64_t staleServedRequests = 0; //!< outcome kOutcomeStale
    std::uint64_t staleRowsInjected = 0;   //!< stale cache rows served
    std::uint64_t degradedBatches = 0;     //!< batches replanned stale
    std::uint64_t burstRequests = 0;       //!< appended by ServeBurst

    double hostSeconds = 0.0;

    /** Matrix/CbsrMatrix heap allocations from batch 2 on (0 once the
     *  persistent workspaces are warm; AllocProbe-enforced). */
    std::uint64_t steadyStateAllocCount = 0;

    /** One row per trace entry, trace order. */
    Matrix logits;

    /** Per-request simulated latency, trace order (0 when shed). */
    std::vector<double> latencySimSeconds;

    /** Per-request outcome (kOutcomeFresh/Stale/Shed), trace order. */
    std::vector<std::uint8_t> requestOutcome;

    /** Trace index -> batch index (per-request stats live in
     *  batchStats[requestBatch[i]]). */
    std::vector<std::uint32_t> requestBatch;
    std::vector<BatchServeStats> batchStats;
};

/** Online inference session over a trained model (see file comment). */
class ServeSession
{
  public:
    /**
     * @param trained  trained model; parameter values are copied into a
     *                 serving replica (the session never mutates it and
     *                 keeps its own capacity-shaped workspaces)
     * @param graph    global topology (outlives the session)
     * @param features global N x inDim feature store (outlives the
     *                 session; rows are gathered per batch — the
     *                 PyTorch-Direct gather-on-access shape)
     * @param cfg      validated serving config
     */
    ServeSession(nn::GnnModel &trained, const CsrGraph &graph,
                 const Matrix &features, const ServeConfig &cfg);

    /**
     * Replay a request trace: batch by deadline, answer every request.
     * Returns a typed error (no abort) for an out-of-range vertex or a
     * non-finite arrival time; the session state is untouched in that
     * case. Deterministic: identical traces (same arrival times and
     * vertices, any construction order of the vector) yield bitwise-
     * identical logits; stats additionally depend on prior replays
     * through cache state, logits never do.
     */
    Expected<ServeReport, ServeError>
    replay(const std::vector<ServeRequest> &trace);

    /**
     * Degrade every resident cache entry to stale (a weight refresh or
     * failover invalidated the cached activations). Subsequent replays
     * treat stale entries as misses — unless staleServeEnabled lets an
     * over-budget batch serve them explicitly marked. No-op without a
     * cache.
     */
    void degradeCache();

    const ServeConfig &config() const { return cfg_; }
    bool cacheEnabled() const { return cache_.has_value(); }
    const EmbeddingCache *cache() const
    {
        return cache_ ? &*cache_ : nullptr;
    }

    /** Fixed sampled degree deg_s(v) = min(deg(v), fanout). */
    std::uint32_t sampledDegree(NodeId v) const;

    /** Pinned vertex set (ranked order), empty when cacheFraction 0. */
    const std::vector<NodeId> &pinnedVertices() const { return pinned_; }

    /** Padded node capacity of every serving forward. */
    NodeId nodeCapacity() const { return capacity_; }

  private:
    struct LayerPlan
    {
        std::vector<NodeId> target;   //!< rows whose output h^l is needed
        std::vector<NodeId> need;     //!< activation sources T ∪ adj_s(T)
        std::vector<NodeId> computed; //!< uncached subset of need
        std::vector<std::pair<NodeId, std::int64_t>> inject; //!< (v, slot)
    };

    void presampleAndPin();
    const NodeId *sampledAdj(NodeId v); //!< memoized fixed adjacency
    void buildPlan(const std::vector<NodeId> &seeds, bool allow_stale);
    void buildLocalGraph();
    void applyServeWeights(CsrGraph &g,
                           const std::vector<NodeId> &global_ids);
    void executePlanned(BatchServeStats &bs);
    void executeReference(BatchServeStats &bs);
    double batchSimSeconds(const BatchServeStats &bs) const;

    const CsrGraph &graph_;
    const Matrix &features_;
    ServeConfig cfg_;
    std::uint32_t numLayers_ = 0;

    nn::GnnModel model_;  //!< serving replica (capacity-shaped)
    sample::NeighborSampler sampler_;
    NodeId capacity_ = 0;
    std::vector<std::uint32_t> zeroLabels_;
    sample::MinibatchExtractor extractor_;
    RequestBatcher batcher_;
    std::optional<EmbeddingCache> cache_;
    std::vector<NodeId> pinned_;

    // Memoized fixed per-vertex sampled adjacency (append-only; grows
    // until every requested vertex's frontier is resident — untracked
    // scratch, not part of the Matrix/CbsrMatrix zero-alloc contract).
    std::vector<std::int64_t> adjOff_;
    std::vector<NodeId> adjData_;
    std::vector<EdgeId> pickWs_;

    // Planner state (persistent workspaces).
    std::vector<LayerPlan> plan_;
    std::vector<nn::LayerRows> rows_;  //!< plan_ as local row sets
    std::vector<NodeId> nodes_;        //!< batch node set, ascending
    std::vector<NodeId> featureRows_;  //!< X[0]: rows needing real x
    std::vector<NodeId> localOf_;
    std::vector<std::uint32_t> stamp_; //!< generic per-vertex marker
    std::uint32_t curStamp_ = 0;
    std::vector<std::uint32_t> rowStamp_;
    std::uint32_t curRowStamp_ = 0;
    std::vector<NodeId> unionWs_;

    // Execution workspaces.
    std::vector<ServeRequest> burstWs_; //!< trace + ServeBurst appendix
    std::vector<RequestBatch> batchesWs_;
    std::vector<NodeId> seedsWs_;
    sample::SampleBatch batchWs_;
    sample::Minibatch mbWs_;
    CsrGraph localGraph_;
    std::vector<EdgeId> rowPtrStage_;
    std::vector<NodeId> colIdxStage_;
    Matrix xIn_;       //!< capacity x inDim gathered features
    const Matrix *logitsWs_ = nullptr; //!< last forward's logits
};

} // namespace maxk::serve

#endif // MAXK_SERVE_SESSION_HH
