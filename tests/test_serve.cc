/**
 * @file
 * Property-test layer for the online serving path (ISSUE 8):
 *
 *  - RequestBatcher: partition/order/deadline/capacity invariants on
 *    random traces, plus the capacity-fill early-dispatch rule;
 *  - EmbeddingCache: pinned + LRU accounting bitwise-matched against a
 *    naive map oracle, and CBSR/dense row round-trips;
 *  - ServeSession correctness anchor: cache-enabled serving is BITWISE
 *    equal to cache-disabled full-recompute serving on every request,
 *    across cache fractions {0.1, 0.5, 1.0}, LRU sizes, MAXK_THREADS
 *    {1, 4}, shuffled arrival orders, model kinds (SAGE/GCN/GIN) and
 *    nonlinearities (MaxK/ReLU), including warm-cache repeat replays;
 *  - cross-engine anchor: cache-off serving at full fanout returns, for
 *    every vertex, bitwise the full-graph evaluation forward's row;
 *  - steady-state replay performs zero Matrix/CbsrMatrix allocations;
 *  - repeat traffic yields cache hits and strictly higher simulated
 *    throughput than the cache-off path;
 *  - out-of-range vertices surface as typed errors, and the session
 *    stays usable afterwards.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "nn/model.hh"
#include "serve/session.hh"
#include "serve/trace.hh"
#include "support/fixtures.hh"
#include "tensor/init.hh"

namespace maxk
{
namespace
{

using serve::EmbeddingCache;
using serve::RequestBatch;
using serve::RequestBatcher;
using serve::ServeConfig;
using serve::ServeReport;
using serve::ServeRequest;
using serve::ServeSession;

struct ThreadGuard
{
    ~ThreadGuard() { setDefaultThreads(0); }
};

/* ----------------------------------------------------------- batcher */

std::vector<ServeRequest>
randomTrace(Rng &rng, NodeId num_nodes, std::size_t count,
            double mean_gap)
{
    std::vector<ServeRequest> trace(count);
    double t = 0.0;
    for (ServeRequest &r : trace) {
        t += rng.uniform() * 2.0 * mean_gap;
        r.arrivalSimSeconds = t;
        r.vertex = static_cast<NodeId>(rng.nextBounded(num_nodes));
    }
    return trace;
}

void
checkBatchingInvariants(const std::vector<ServeRequest> &trace,
                        const std::vector<RequestBatch> &batches,
                        double deadline, std::uint32_t capacity)
{
    std::vector<std::uint8_t> seen(trace.size(), 0);
    for (const RequestBatch &b : batches) {
        ASSERT_FALSE(b.requests.empty());
        ASSERT_LE(b.requests.size(), capacity);
        for (std::size_t i = 0; i < b.requests.size(); ++i) {
            const std::uint32_t idx = b.requests[i];
            ASSERT_LT(idx, trace.size());
            ASSERT_EQ(seen[idx], 0) << "request batched twice";
            seen[idx] = 1;
            // No member waits past its deadline, and dispatch never
            // precedes an arrival in the batch.
            ASSERT_LE(b.dispatchSimSeconds,
                      trace[idx].arrivalSimSeconds + deadline + 1e-12);
            ASSERT_GE(b.dispatchSimSeconds,
                      trace[idx].arrivalSimSeconds - 1e-12);
            if (i > 0) {
                const std::uint32_t prev = b.requests[i - 1];
                const bool ordered =
                    trace[prev].arrivalSimSeconds <
                        trace[idx].arrivalSimSeconds ||
                    (trace[prev].arrivalSimSeconds ==
                         trace[idx].arrivalSimSeconds &&
                     prev < idx);
                ASSERT_TRUE(ordered) << "batch not in arrival order";
            }
        }
    }
    // Partition: every request in exactly one batch.
    for (std::size_t i = 0; i < trace.size(); ++i)
        ASSERT_EQ(seen[i], 1) << "request " << i << " never batched";
}

TEST(RequestBatcher, InvariantsOnRandomTraces)
{
    Rng rng(901);
    for (const double deadline : {1e-4, 2e-3, 1.0}) {
        for (const std::uint32_t capacity : {1u, 7u, 32u}) {
            SCOPED_TRACE("deadline=" + std::to_string(deadline) +
                         " capacity=" + std::to_string(capacity));
            RequestBatcher batcher(deadline, capacity);
            std::vector<RequestBatch> batches;
            for (int round = 0; round < 4; ++round) {
                const std::vector<ServeRequest> trace =
                    randomTrace(rng, 50, 120, 5e-4);
                batcher.plan(trace, batches);
                checkBatchingInvariants(trace, batches, deadline,
                                        capacity);
            }
        }
    }
}

TEST(RequestBatcher, CapacityFillDispatchesEarly)
{
    RequestBatcher batcher(1.0, 2);
    // Four requests well inside one deadline window: capacity 2 must
    // split them into two batches dispatched at the filling arrival.
    const std::vector<ServeRequest> trace = {
        {0.10, 1}, {0.11, 2}, {0.12, 3}, {0.13, 4}};
    std::vector<RequestBatch> batches;
    batcher.plan(trace, batches);
    ASSERT_EQ(batches.size(), 2u);
    EXPECT_EQ(batches[0].requests, (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(batches[0].dispatchSimSeconds, 0.11);
    EXPECT_EQ(batches[1].requests, (std::vector<std::uint32_t>{2, 3}));
    EXPECT_EQ(batches[1].dispatchSimSeconds, 0.13);

    // A lone request under an unfilled deadline waits the full window.
    batcher.plan({{0.5, 9}}, batches);
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].dispatchSimSeconds, 1.5);
}

TEST(RequestBatcher, UnsortedTraceMatchesSortedTrace)
{
    Rng rng(902);
    std::vector<ServeRequest> trace = randomTrace(rng, 40, 64, 1e-3);
    RequestBatcher batcher(2e-3, 8);
    std::vector<RequestBatch> sorted_plan;
    batcher.plan(trace, sorted_plan);

    // Shuffle the vector order; arrivals are distinct, so batching must
    // regroup the exact same (arrival, vertex) sets.
    std::vector<std::uint32_t> perm(trace.size());
    for (std::uint32_t i = 0; i < perm.size(); ++i)
        perm[i] = i;
    for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.nextBounded(i)]);
    std::vector<ServeRequest> shuffled(trace.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        shuffled[i] = trace[perm[i]];

    std::vector<RequestBatch> shuffled_plan;
    batcher.plan(shuffled, shuffled_plan);
    ASSERT_EQ(shuffled_plan.size(), sorted_plan.size());
    for (std::size_t b = 0; b < sorted_plan.size(); ++b) {
        ASSERT_EQ(shuffled_plan[b].dispatchSimSeconds,
                  sorted_plan[b].dispatchSimSeconds);
        ASSERT_EQ(shuffled_plan[b].requests.size(),
                  sorted_plan[b].requests.size());
        for (std::size_t i = 0; i < sorted_plan[b].requests.size(); ++i) {
            const ServeRequest &a = trace[sorted_plan[b].requests[i]];
            const ServeRequest &s =
                shuffled[shuffled_plan[b].requests[i]];
            ASSERT_EQ(a.arrivalSimSeconds, s.arrivalSimSeconds);
            ASSERT_EQ(a.vertex, s.vertex);
        }
    }
}

/* ---------------------------------------------------- embedding cache */

/** Naive reference for the pinned+LRU policy: same inputs, same slots,
 *  same stats — maps and linear scans instead of the cache's arrays. */
struct CacheOracle
{
    NodeId pinnedCount;
    std::uint32_t lruSlots;
    std::map<NodeId, std::int64_t> pinnedSlot;
    // Per layer: vertex -> slot and slot -> (vertex, last touch).
    std::vector<std::map<NodeId, std::int64_t>> slotOf;
    std::vector<std::map<std::int64_t, std::pair<NodeId, std::uint64_t>>>
        lru;
    std::uint64_t clock = 0;
    serve::CacheStats stats;

    CacheOracle(std::uint32_t layers, const std::vector<NodeId> &pinned,
                std::uint32_t lru_slots)
        : pinnedCount(static_cast<NodeId>(pinned.size())),
          lruSlots(lru_slots), slotOf(layers), lru(layers)
    {
        for (std::size_t p = 0; p < pinned.size(); ++p)
            pinnedSlot[pinned[p]] = static_cast<std::int64_t>(p);
    }

    std::int64_t
    lookup(std::uint32_t layer, NodeId v)
    {
        auto it = slotOf[layer].find(v);
        if (it == slotOf[layer].end()) {
            ++stats.misses;
            return -1;
        }
        ++stats.hits;
        if (it->second >= static_cast<std::int64_t>(pinnedCount))
            lru[layer][it->second] = {v, ++clock};
        return it->second;
    }

    std::int64_t
    admit(std::uint32_t layer, NodeId v)
    {
        auto pin = pinnedSlot.find(v);
        if (pin != pinnedSlot.end()) {
            slotOf[layer][v] = pin->second;
            ++stats.stores;
            return pin->second;
        }
        if (lruSlots == 0) {
            ++stats.rejected;
            return -1;
        }
        std::int64_t slot;
        if (lru[layer].size() < lruSlots) {
            slot = static_cast<std::int64_t>(pinnedCount +
                                             lru[layer].size());
        } else {
            auto victim = lru[layer].begin();
            for (auto it = lru[layer].begin(); it != lru[layer].end();
                 ++it)
                if (it->second.second < victim->second.second)
                    victim = it;
            slotOf[layer].erase(victim->second.first);
            slot = victim->first;
            ++stats.evictions;
        }
        slotOf[layer][v] = slot;
        lru[layer][slot] = {v, ++clock};
        ++stats.stores;
        return slot;
    }
};

TEST(EmbeddingCache, MatchesNaiveMapOracle)
{
    const NodeId n = 64;
    const std::vector<NodeId> pinned = {3, 17, 40, 41};
    for (const std::uint32_t lru_slots : {0u, 1u, 5u}) {
        SCOPED_TRACE("lruSlots=" + std::to_string(lru_slots));
        std::vector<EmbeddingCache::LayerSpec> specs(2);
        specs[0] = {4, 16, true};
        specs[1] = {8, 8, false};
        EmbeddingCache cache(n, specs, pinned, lru_slots);
        CacheOracle oracle(2, pinned, lru_slots);

        Rng rng(331 + lru_slots);
        for (int op = 0; op < 4000; ++op) {
            const std::uint32_t layer =
                static_cast<std::uint32_t>(rng.nextBounded(2));
            const NodeId v = static_cast<NodeId>(rng.nextBounded(n));
            const std::int64_t got = cache.lookup(layer, v);
            const std::int64_t want = oracle.lookup(layer, v);
            ASSERT_EQ(got, want) << "lookup op " << op;
            if (got < 0) {
                // Miss: compute-and-admit, exactly like the session.
                ASSERT_EQ(cache.admit(layer, v),
                          oracle.admit(layer, v))
                    << "admit op " << op;
            }
        }
        EXPECT_EQ(cache.stats().hits, oracle.stats.hits);
        EXPECT_EQ(cache.stats().misses, oracle.stats.misses);
        EXPECT_EQ(cache.stats().stores, oracle.stats.stores);
        EXPECT_EQ(cache.stats().evictions, oracle.stats.evictions);
        EXPECT_EQ(cache.stats().rejected, oracle.stats.rejected);
        // Validity probes agree with the oracle's final occupancy.
        for (std::uint32_t layer = 0; layer < 2; ++layer)
            for (NodeId v = 0; v < n; ++v)
                ASSERT_EQ(cache.cached(layer, v),
                          oracle.slotOf[layer].count(v) != 0);
    }
}

TEST(EmbeddingCache, CbsrAndDenseRowsRoundTripBitwise)
{
    const std::uint32_t k = 6, dim = 24;
    std::vector<EmbeddingCache::LayerSpec> specs = {
        {k, dim, true}, {dim, dim, false}};
    EmbeddingCache cache(32, specs, {0, 1, 2, 3}, 2);

    Rng rng(77);
    CbsrMatrix src(4, k, dim), dst(4, k, dim);
    for (NodeId r = 0; r < 4; ++r) {
        // Ascending distinct indices, random payload.
        std::uint32_t col = static_cast<std::uint32_t>(
            rng.nextBounded(dim - k));
        for (std::uint32_t kk = 0; kk < k; ++kk) {
            src.dataRow(r)[kk] =
                static_cast<Float>(rng.uniform() * 2.0 - 1.0);
            src.setIndex(r, kk, col);
            col += 1 + static_cast<std::uint32_t>(
                       rng.nextBounded(2));
        }
    }
    for (NodeId r = 0; r < 4; ++r) {
        const std::int64_t slot = cache.admit(0, r);
        ASSERT_GE(slot, 0);
        cache.storeCbsrRow(0, slot, src, r);
        cache.loadCbsrRow(0, slot, dst, r);
        for (std::uint32_t kk = 0; kk < k; ++kk) {
            ASSERT_EQ(dst.dataRow(r)[kk], src.dataRow(r)[kk]);
            ASSERT_EQ(dst.indexAt(r, kk), src.indexAt(r, kk));
        }
    }
    // CBSR rowBytes: k floats + k narrow indices (the ~k/dim win).
    EXPECT_EQ(cache.rowBytes(0), k * sizeof(Float) + k * 1);
    EXPECT_LT(cache.storageBytes(), cache.denseEquivalentBytes());

    Matrix dense(4, dim), back(4, dim);
    fillNormal(dense, rng, 0.0f, 1.0f);
    for (NodeId r = 0; r < 4; ++r) {
        const std::int64_t slot = cache.admit(1, r);
        ASSERT_GE(slot, 0);
        cache.storeDenseRow(1, slot, dense.row(r));
        cache.loadDenseRow(1, slot, back.row(r));
        for (std::uint32_t c = 0; c < dim; ++c)
            ASSERT_EQ(back.at(r, c), dense.at(r, c));
    }
}

/* ------------------------------------------------ serving equivalence */

struct ServeRig
{
    CsrGraph graph;
    Matrix features;
    nn::GnnModel model;

    ServeRig(nn::GnnKind kind, nn::Nonlinearity nonlin,
             std::uint32_t layers, std::uint64_t seed)
        : graph(test::makeGraph(test::GraphShape::Community, 300, 2400,
                                static_cast<std::uint32_t>(seed))),
          features(graph.numNodes(), 16),
          model(modelConfig(kind, nonlin, layers, seed))
    {
        Rng rng(seed * 31 + 7);
        fillNormal(features, rng, 0.0f, 1.0f);
    }

    static nn::ModelConfig
    modelConfig(nn::GnnKind kind, nn::Nonlinearity nonlin,
                std::uint32_t layers, std::uint64_t seed)
    {
        nn::ModelConfig cfg;
        cfg.kind = kind;
        cfg.nonlin = nonlin;
        cfg.maxkK = 8;
        cfg.numLayers = layers;
        cfg.inDim = 16;
        cfg.hiddenDim = 32;
        cfg.outDim = 7;
        cfg.dropout = 0.0f;
        cfg.seed = seed;
        return cfg;
    }
};

ServeConfig
serveConfig(double fraction, std::uint32_t lru_slots)
{
    ServeConfig cfg;
    cfg.fanout = 4;
    cfg.batchCapacity = 16;
    cfg.deadlineSimSeconds = 2e-3;
    cfg.cacheFraction = fraction;
    cfg.lruSlots = lru_slots;
    return cfg;
}

/** Zipf-flavoured trace: repeats concentrate on low vertex ids. */
std::vector<ServeRequest>
hotTrace(Rng &rng, NodeId num_nodes, std::size_t count)
{
    std::vector<ServeRequest> trace(count);
    double t = 0.0;
    for (ServeRequest &r : trace) {
        t += rng.uniform() * 1e-3;
        r.arrivalSimSeconds = t;
        // Half the traffic hits the 16 hottest vertices.
        if (rng.bernoulli(0.5))
            r.vertex = static_cast<NodeId>(rng.nextBounded(16));
        else
            r.vertex =
                static_cast<NodeId>(rng.nextBounded(num_nodes));
    }
    return trace;
}

/** Compare per-request logits between two reports over the SAME trace
 *  content, where `perm` maps reference trace index -> other index. */
void
expectSameLogits(const ServeReport &ref, const ServeReport &got,
                 const std::vector<std::uint32_t> &perm)
{
    ASSERT_EQ(ref.requests, got.requests);
    ASSERT_EQ(ref.logits.cols(), got.logits.cols());
    for (std::size_t i = 0; i < perm.size(); ++i)
        for (std::size_t c = 0; c < ref.logits.cols(); ++c)
            ASSERT_EQ(ref.logits.at(i, c), got.logits.at(perm[i], c))
                << "request " << i << " col " << c;
}

std::vector<std::uint32_t>
identityPerm(std::size_t n)
{
    std::vector<std::uint32_t> perm(n);
    for (std::uint32_t i = 0; i < n; ++i)
        perm[i] = i;
    return perm;
}

TEST(ServeSession, CachedBitwiseEqualsUncachedAcrossEverything)
{
    ThreadGuard guard;
    struct Arch
    {
        nn::GnnKind kind;
        nn::Nonlinearity nonlin;
        std::uint32_t layers;
        const char *name;
    };
    const Arch archs[] = {
        {nn::GnnKind::Sage, nn::Nonlinearity::MaxK, 2, "sage-maxk-2"},
        {nn::GnnKind::Gcn, nn::Nonlinearity::MaxK, 2, "gcn-maxk-2"},
        {nn::GnnKind::Gin, nn::Nonlinearity::MaxK, 2, "gin-maxk-2"},
        {nn::GnnKind::Sage, nn::Nonlinearity::Relu, 2, "sage-relu-2"},
        {nn::GnnKind::Sage, nn::Nonlinearity::MaxK, 3, "sage-maxk-3"},
        // Dense row-set aggregation under GCN weights, and the GIN eps
        // term on dense rows over three layers.
        {nn::GnnKind::Gcn, nn::Nonlinearity::Relu, 2, "gcn-relu-2"},
        {nn::GnnKind::Gin, nn::Nonlinearity::Relu, 3, "gin-relu-3"},
    };

    for (const Arch &arch : archs) {
        SCOPED_TRACE(arch.name);
        ServeRig rig(arch.kind, arch.nonlin, arch.layers, 1100);
        Rng rng(1200);
        const std::vector<ServeRequest> trace =
            hotTrace(rng, rig.graph.numNodes(), 160);

        setDefaultThreads(1);
        ServeSession ref_session(rig.model, rig.graph, rig.features,
                                 serveConfig(0.0, 0));
        ASSERT_FALSE(ref_session.cacheEnabled());
        auto ref = ref_session.replay(trace);
        ASSERT_TRUE(ref.hasValue());
        ASSERT_EQ(ref.value().requests, trace.size());

        const std::vector<std::uint32_t> id =
            identityPerm(trace.size());
        for (const double fraction : {0.1, 0.5, 1.0}) {
            for (const std::uint32_t threads : {1u, 4u}) {
                SCOPED_TRACE("fraction=" + std::to_string(fraction) +
                             " threads=" + std::to_string(threads));
                setDefaultThreads(threads);
                ServeSession cached(rig.model, rig.graph, rig.features,
                                    serveConfig(fraction, 8));
                ASSERT_TRUE(cached.cacheEnabled());
                auto cold = cached.replay(trace);
                ASSERT_TRUE(cold.hasValue());
                expectSameLogits(ref.value(), cold.value(), id);
                // Warm cache: different inject/compute split, same
                // logits.
                auto warm = cached.replay(trace);
                ASSERT_TRUE(warm.hasValue());
                expectSameLogits(ref.value(), warm.value(), id);
            }
        }

        // Arrival interleaving: shuffling the trace vector (distinct
        // arrival times keep batching identical) must not move a single
        // bit of any request's logits.
        setDefaultThreads(1);
        std::vector<std::uint32_t> perm = id;
        for (std::size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1], perm[rng.nextBounded(i)]);
        std::vector<ServeRequest> shuffled(trace.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            shuffled[perm[i]] = trace[i];
        ServeSession again(rig.model, rig.graph, rig.features,
                           serveConfig(0.5, 8));
        auto shuffled_rep = again.replay(shuffled);
        ASSERT_TRUE(shuffled_rep.hasValue());
        expectSameLogits(ref.value(), shuffled_rep.value(), perm);
    }
}

TEST(ServeSession, ReplayIsIdempotentOnLogits)
{
    // Same session, same trace, three replays: logits bitwise-stable
    // even as cache state evolves between them.
    ServeRig rig(nn::GnnKind::Sage, nn::Nonlinearity::MaxK, 2, 1300);
    Rng rng(1301);
    const std::vector<ServeRequest> trace =
        hotTrace(rng, rig.graph.numNodes(), 96);
    ServeSession session(rig.model, rig.graph, rig.features,
                         serveConfig(0.2, 4));
    auto first = session.replay(trace);
    ASSERT_TRUE(first.hasValue());
    const std::vector<std::uint32_t> id = identityPerm(trace.size());
    for (int round = 0; round < 2; ++round) {
        auto next = session.replay(trace);
        ASSERT_TRUE(next.hasValue());
        expectSameLogits(first.value(), next.value(), id);
    }
}

/**
 * Cross-engine anchor: with a fanout at or above the maximum degree and
 * no cache, serving samples every neighbour (in CSR order), weighs each
 * edge with the full graph's degrees (deg_s = deg), and computes every
 * row independently, so each answered row is bitwise the row the
 * full-graph evaluation forward gives. No pair differs.
 */
TEST(ServeSession, CacheOffFullFanoutEqualsFullGraphForward)
{
    ThreadGuard guard;
    // Symmetric (the GCN weights read in-degrees), with self loops.
    const CsrGraph topology = test::makeGraph(test::GraphShape::Community,
                                              256, 1280, 4401);
    std::uint32_t max_degree = 0;
    for (NodeId v = 0; v < topology.numNodes(); ++v)
        max_degree = std::max<std::uint32_t>(
            max_degree, static_cast<std::uint32_t>(topology.degree(v)));
    Matrix features(topology.numNodes(), 16);
    Rng frng(4402);
    fillNormal(features, frng, 0.0f, 1.0f);

    // Every vertex once, in a shuffled order.
    Rng trng(4403);
    std::vector<ServeRequest> trace(topology.numNodes());
    for (NodeId v = 0; v < topology.numNodes(); ++v)
        trace[v].vertex = v;
    for (std::size_t i = trace.size(); i > 1; --i)
        std::swap(trace[i - 1].vertex, trace[trng.nextBounded(i)].vertex);
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace[i].arrivalSimSeconds = 1e-5 * static_cast<double>(i);

    ServeConfig cfg = serveConfig(0.0, 0);
    cfg.fanout = max_degree;
    for (const nn::GnnKind kind :
         {nn::GnnKind::Sage, nn::GnnKind::Gcn, nn::GnnKind::Gin}) {
        for (const nn::Nonlinearity nonlin :
             {nn::Nonlinearity::MaxK, nn::Nonlinearity::Relu}) {
            SCOPED_TRACE(std::string(nn::gnnKindName(kind)) + "-" +
                         nn::nonlinearityName(nonlin));
            nn::GnnModel model(ServeRig::modelConfig(kind, nonlin, 3, 4404));
            CsrGraph weighted = topology;
            weighted.setAggregatorWeights(nn::aggregatorFor(kind));
            for (const std::uint32_t threads : {1u, 4u}) {
                SCOPED_TRACE("threads=" + std::to_string(threads));
                setDefaultThreads(threads);
                const Matrix full = model.forward(weighted, features, false);
                ServeSession session(model, topology, features, cfg);
                ASSERT_FALSE(session.cacheEnabled());
                auto rep = session.replay(trace);
                ASSERT_TRUE(rep.hasValue());
                const Matrix &got = rep.value().logits;
                ASSERT_EQ(got.cols(), full.cols());
                for (std::size_t i = 0; i < trace.size(); ++i)
                    for (std::size_t c = 0; c < full.cols(); ++c)
                        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.at(i, c)),
                                  std::bit_cast<std::uint32_t>(
                                      full.at(trace[i].vertex, c)))
                            << "vertex " << trace[i].vertex << " col "
                            << c;
            }
        }
    }
}

/* --------------------------------------------------- stats and allocs */

TEST(ServeSession, SteadyStateServingIsAllocationFree)
{
    ServeRig rig(nn::GnnKind::Sage, nn::Nonlinearity::MaxK, 2, 1400);
    Rng rng(1401);
    const std::vector<ServeRequest> trace =
        hotTrace(rng, rig.graph.numNodes(), 200);
    for (const double fraction : {0.0, 0.5}) {
        SCOPED_TRACE("fraction=" + std::to_string(fraction));
        ServeSession session(rig.model, rig.graph, rig.features,
                             serveConfig(fraction, 8));
        auto rep = session.replay(trace);
        ASSERT_TRUE(rep.hasValue());
        ASSERT_GT(rep.value().batches, 3u);
        EXPECT_EQ(rep.value().steadyStateAllocCount, 0u)
            << rep.value().steadyStateAllocCount
            << " Matrix/CbsrMatrix allocations after batch 2";
    }
}

TEST(ServeSession, CacheHitsAndThroughputOnRepeatTraffic)
{
    ServeRig rig(nn::GnnKind::Sage, nn::Nonlinearity::MaxK, 2, 1500);
    Rng rng(1501);
    const std::vector<ServeRequest> trace =
        hotTrace(rng, rig.graph.numNodes(), 240);

    ServeSession off(rig.model, rig.graph, rig.features,
                     serveConfig(0.0, 0));
    auto off_rep = off.replay(trace);
    ASSERT_TRUE(off_rep.hasValue());
    EXPECT_EQ(off_rep.value().cacheHits, 0u);
    EXPECT_EQ(off_rep.value().nodesInjected, 0u);

    ServeSession on(rig.model, rig.graph, rig.features,
                    serveConfig(0.5, 16));
    auto cold = on.replay(trace);
    ASSERT_TRUE(cold.hasValue());
    // Hot vertices repeat within the trace, so even the cold replay
    // hits once their first batch stored them.
    EXPECT_GT(cold.value().cacheHits, 0u);
    EXPECT_GT(cold.value().nodesInjected, 0u);
    EXPECT_GT(cold.value().cacheStores, 0u);

    auto warm = on.replay(trace);
    ASSERT_TRUE(warm.hasValue());
    EXPECT_GT(warm.value().cacheHits, cold.value().cacheHits / 2);
    // The cache must convert injected rows into strictly less
    // recomputation and strictly more simulated throughput.
    EXPECT_LT(warm.value().nodesRecomputed,
              off_rep.value().nodesRecomputed);
    EXPECT_GT(warm.value().requestsPerSimSecond,
              off_rep.value().requestsPerSimSecond);
}

TEST(ServeSession, ReportAccountingConsistent)
{
    ServeRig rig(nn::GnnKind::Gcn, nn::Nonlinearity::MaxK, 2, 1600);
    Rng rng(1601);
    const std::vector<ServeRequest> trace =
        hotTrace(rng, rig.graph.numNodes(), 120);
    ServeSession session(rig.model, rig.graph, rig.features,
                         serveConfig(0.3, 8));
    auto rep_or = session.replay(trace);
    ASSERT_TRUE(rep_or.hasValue());
    const ServeReport &rep = rep_or.value();

    ASSERT_EQ(rep.requests, trace.size());
    ASSERT_EQ(rep.batchStats.size(), rep.batches);
    ASSERT_EQ(rep.latencySimSeconds.size(), trace.size());
    ASSERT_EQ(rep.requestBatch.size(), trace.size());

    std::uint64_t requests = 0, recomputed = 0, injected = 0;
    double service = 0.0;
    for (const auto &bs : rep.batchStats) {
        requests += bs.requests;
        recomputed += bs.nodesRecomputed;
        injected += bs.nodesInjected;
        service += bs.serviceSimSeconds;
        ASSERT_GT(bs.serviceSimSeconds, 0.0);
        ASSERT_LE(bs.seeds, bs.requests);
    }
    EXPECT_EQ(requests, rep.requests);
    EXPECT_EQ(recomputed, rep.nodesRecomputed);
    EXPECT_EQ(injected, rep.nodesInjected);
    EXPECT_EQ(service, rep.serviceSimSeconds);

    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_LT(rep.requestBatch[i], rep.batches);
        const auto &bs = rep.batchStats[rep.requestBatch[i]];
        // latency = dispatch + service - arrival >= service > 0, and
        // the queueing part is bounded by the deadline.
        ASSERT_GE(rep.latencySimSeconds[i], bs.serviceSimSeconds);
        ASSERT_LE(rep.latencySimSeconds[i],
                  session.config().deadlineSimSeconds +
                      bs.serviceSimSeconds + 1e-12);
    }
    EXPECT_LE(rep.p50LatencySimSeconds, rep.p99LatencySimSeconds);
    EXPECT_LE(rep.p99LatencySimSeconds, rep.maxLatencySimSeconds);

    // Pinning honoured: every pinned vertex reports pinned() true.
    ASSERT_TRUE(session.cache() != nullptr);
    for (const NodeId v : session.pinnedVertices())
        EXPECT_TRUE(session.cache()->pinned(v));
    EXPECT_EQ(session.pinnedVertices().size(),
              static_cast<std::size_t>(
                  session.cache()->pinnedCount()));
}

/* --------------------------------------------------------- typed errors */

TEST(ServeSession, OutOfRangeVertexReturnsTypedError)
{
    ServeRig rig(nn::GnnKind::Sage, nn::Nonlinearity::MaxK, 2, 1700);
    ServeSession session(rig.model, rig.graph, rig.features,
                         serveConfig(0.2, 4));

    std::vector<ServeRequest> trace = {
        {1e-4, 3}, {2e-4, rig.graph.numNodes()}, {3e-4, 5}};
    auto bad = session.replay(trace);
    ASSERT_FALSE(bad.hasValue());
    EXPECT_EQ(bad.error().requestIndex, 1u);
    EXPECT_NE(bad.error().message.find("out of range"),
              std::string::npos);

    // The failed replay left the session usable.
    trace[1].vertex = 7;
    auto good = session.replay(trace);
    ASSERT_TRUE(good.hasValue());
    EXPECT_EQ(good.value().requests, 3u);

    // Non-finite arrival times are typed errors too.
    trace[2].arrivalSimSeconds =
        std::numeric_limits<double>::quiet_NaN();
    auto nan_rep = session.replay(trace);
    ASSERT_FALSE(nan_rep.hasValue());
    EXPECT_EQ(nan_rep.error().requestIndex, 2u);
}

/* ------------------------------------------------------ trace parsing */

TEST(ServeTrace, WellFormedLinesParseInFileOrder)
{
    const char *text = "# a comment\n"
                       "\n"
                       "1.5e-3 7\n"
                       "   2e-3\t42   \n" // whitespace-tolerant
                       "0 0\n";
    auto parsed = serve::parseServeTrace(text, "t.trace", true);
    ASSERT_TRUE(parsed.hasValue());
    const auto &r = parsed.value();
    EXPECT_TRUE(r.skipped.empty());
    ASSERT_EQ(r.requests.size(), 3u);
    EXPECT_EQ(r.requests[0].arrivalSimSeconds, 1.5e-3);
    EXPECT_EQ(r.requests[0].vertex, 7u);
    EXPECT_EQ(r.requests[1].arrivalSimSeconds, 2e-3);
    EXPECT_EQ(r.requests[1].vertex, 42u);
    EXPECT_EQ(r.requests[2].vertex, 0u);
}

TEST(ServeTrace, StrictModeFailsOnTheFirstMalformedLineWithItsNumber)
{
    const char *text = "1e-3 1\n"
                       "2e-3 2\n"
                       "not-a-number 3\n"
                       "4e-3 4\n";
    auto parsed = serve::parseServeTrace(text, "t.trace", true);
    ASSERT_FALSE(parsed.hasValue());
    EXPECT_EQ(parsed.error().code, IoErrorCode::ParseError);
    EXPECT_EQ(parsed.error().line, 3u);
    EXPECT_EQ(parsed.error().path, "t.trace");
}

TEST(ServeTrace, LenientModeSkipsAndReportsEveryMalformedLine)
{
    const char *text = "1e-3 1\n"
                       "bogus\n"            // line 2: not two fields
                       "2e-3 2 trailing\n"  // line 3: trailing junk
                       "inf 3\n"            // line 4: non-finite arrival
                       "3e-3 4294967296\n"  // line 5: vertex > 32 bits
                       "4e-3 -1\n"          // line 6: negative vertex
                       "5e-3 5\n";
    auto parsed = serve::parseServeTrace(text, "t.trace", false);
    ASSERT_TRUE(parsed.hasValue());
    const auto &r = parsed.value();
    ASSERT_EQ(r.requests.size(), 2u);
    EXPECT_EQ(r.requests[0].vertex, 1u);
    EXPECT_EQ(r.requests[1].vertex, 5u);
    ASSERT_EQ(r.skipped.size(), 5u);
    const std::size_t expect_lines[] = {2, 3, 4, 5, 6};
    for (std::size_t i = 0; i < r.skipped.size(); ++i) {
        EXPECT_EQ(r.skipped[i].code, IoErrorCode::ParseError);
        EXPECT_EQ(r.skipped[i].line, expect_lines[i]);
    }
}

TEST(ServeTrace, BoundaryVertexIdsRoundTrip)
{
    // 2^32-1 is the largest representable NodeId and must parse; one
    // past it must not.
    auto max_ok = serve::parseServeTrace("1e-3 4294967295\n", "t", true);
    ASSERT_TRUE(max_ok.hasValue());
    EXPECT_EQ(max_ok.value().requests[0].vertex, 4294967295u);
    auto overflow =
        serve::parseServeTrace("1e-3 4294967296\n", "t", true);
    ASSERT_FALSE(overflow.hasValue());
    EXPECT_EQ(overflow.error().line, 1u);
}

TEST(ServeTrace, MissingFileIsOpenFailed)
{
    auto missing =
        serve::loadServeTrace("/nonexistent/dir/x.trace", true);
    ASSERT_FALSE(missing.hasValue());
    EXPECT_EQ(missing.error().code, IoErrorCode::OpenFailed);
}

} // namespace
} // namespace maxk
