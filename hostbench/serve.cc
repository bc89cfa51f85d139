/**
 * @file
 * serve-flickr-maxk: one client in a closed loop over
 * serve::ServeSession::replay. Each call carries the next 32 requests
 * of a Zipf(s = 1) trace over the vertices, spaced so that they form
 * one full batch; the next call goes out when the previous returns.
 * Same Flickr twin as sampled-flickr-relu, SAGE 2x128 with MaxK k = 16
 * at its seeded initial weights (serving cost does not depend on
 * training), fanout 10, batch capacity 32, 10% pinned cache, 256 LRU
 * slots, one pool thread. It runs the nn/core stack forward-only on
 * small padded batches, and is the only workload for the batcher, the
 * planner and the embedding cache.
 */

#include <algorithm>
#include <cstring>
#include <memory>

#include "serve/session.hh"
#include "tensor/alloc_probe.hh"
#include "workloads.hh"

namespace hostbench
{

using namespace maxk;

namespace
{

constexpr std::uint32_t kRequestsPerCall = 32;
constexpr std::uint32_t kWarmupCalls = 5;

/** Calls per timing block: a block's mean call time is one sample of
 *  unit_ms. A block spans a mix of hot and cold Zipf calls, yet stays
 *  short (~0.15 s) enough to fit in the host's brief uncontended dips. */
constexpr std::size_t kBlockCalls = 10;

std::vector<double>
blockMeans(const std::vector<double> &ms)
{
    std::vector<double> out;
    for (std::size_t i = 0; i + kBlockCalls <= ms.size(); i += kBlockCalls) {
        double sum = 0.0;
        for (std::size_t j = i; j < i + kBlockCalls; ++j)
            sum += ms[j];
        out.push_back(sum / kBlockCalls);
    }
    return out;
}

struct ServeState
{
    TrainingTask task;
    TrainingData data;
    nn::ModelConfig cfg;
    serve::ServeConfig scfg;
    std::unique_ptr<nn::GnnModel> model;
    std::unique_ptr<serve::ServeSession> session;
};

nn::ModelConfig
serveModel(const RunOptions &opt, const TrainingTask &task)
{
    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Sage;
    cfg.nonlin = nn::Nonlinearity::MaxK;
    cfg.numLayers = 2;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = opt.tiny ? 32 : 128;
    cfg.maxkK = opt.tiny ? 4 : 16;
    cfg.outDim = task.numClasses;
    cfg.seed = streamSeed(opt.seed, kModel);
    return cfg;
}

serve::ServeConfig
serveConfig(const RunOptions &opt, double cache_fraction,
            std::uint32_t lru_slots)
{
    serve::ServeConfig c;
    c.fanout = 10;
    c.batchCapacity = kRequestsPerCall;
    c.cacheFraction = cache_fraction;
    c.lruSlots = lru_slots;
    c.seed = streamSeed(opt.seed, kServe);
    return c;
}

std::unique_ptr<ServeState>
buildServe(const RunOptions &opt, Tracer *t, std::uint32_t unit)
{
    auto s = std::make_unique<ServeState>();
    s->task = flickrTask(opt.tiny);
    Rng rng(streamSeed(opt.seed, kGraph));
    s->data = timedCall(t, "graph.materialize", unit, [&] {
        return materializeTrainingData(s->task, rng);
    });
    s->cfg = serveModel(opt, s->task);
    s->scfg = serveConfig(opt, 0.10, 256);
    s->model = timedCall(t, "nn.model", unit, [&] {
        return std::make_unique<nn::GnnModel>(s->cfg);
    });
    s->session = timedCall(t, "serve.session", unit, [&] {
        return std::make_unique<serve::ServeSession>(
            *s->model, s->data.graph, s->data.features, s->scfg);
    });
    return s;
}

/**
 * The client's calls: `calls` blocks of 32 Zipf(1) draws over a
 * seeded random ranking of the vertices. Call c arrives at simulated
 * second c, its requests 1 us apart — well inside one batch deadline,
 * so each call is exactly one full batch.
 */
std::vector<std::vector<serve::ServeRequest>>
zipfCalls(const RunOptions &opt, NodeId n, std::uint32_t calls)
{
    Rng rng(streamSeed(opt.seed, kZipf));
    std::vector<NodeId> rank(n);
    for (NodeId v = 0; v < n; ++v)
        rank[v] = v;
    for (NodeId i = n; i > 1; --i)
        std::swap(rank[i - 1], rank[rng.nextBounded(i)]);
    std::vector<double> cdf(n);
    double acc = 0.0;
    for (NodeId r = 0; r < n; ++r)
        cdf[r] = acc += 1.0 / (r + 1.0);
    std::vector<std::vector<serve::ServeRequest>> out(calls);
    for (std::uint32_t c = 0; c < calls; ++c)
        for (std::uint32_t i = 0; i < kRequestsPerCall; ++i) {
            const double u = static_cast<double>(rng.uniform()) * acc;
            const auto r = static_cast<NodeId>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            out[c].push_back({c + i * 1e-6, rank[std::min(r, n - 1)]});
        }
    return out;
}

} // namespace

void
runServeFlickrMaxk(const RunOptions &opt, Report &rep)
{
    std::unique_ptr<Tracer> tracer;
    if (opt.trace)
        tracer = std::make_unique<Tracer>(1);
    Tracer *tr = tracer.get();

    double setup_s = 0.0;
    auto s = setupRepeated<ServeState>(
        setupRepeats(opt), tr,
        [&](std::uint32_t i) { return buildServe(opt, tr, i); }, setup_s);

    // p90 needs >= 100 untraced calls; a traced run interleaves traced
    // and untraced calls, so it makes at least twice as many. About
    // 12-16 ms per call on a 4-core x86 VM.
    const std::uint32_t floor = (opt.tiny ? 10 : 100) * (opt.trace ? 2 : 1);
    const std::uint32_t timed = unitsFor(opt, 60.0, floor);
    const auto calls =
        zipfCalls(opt, s->data.graph.numNodes(), kWarmupCalls + timed);
    const std::uint32_t check_every = 10;
    const std::uint32_t call_span = tr ? tr->intern("call") : 0;
    const std::uint32_t replay_span = tr ? tr->intern("serve.replay") : 0;

    std::vector<double> ms, traced_ms;
    std::vector<std::pair<std::uint32_t, Matrix>> sampled;
    std::uint64_t hits = 0, misses = 0, recomputed = 0, injected = 0,
                  batches = 0, allocs = 0;
    double sim_seconds = 0.0;
    for (std::uint32_t c = 0; c < calls.size(); ++c) {
        const bool timed_call = c >= kWarmupCalls;
        Tracer *call_tr = c % 2 ? tr : nullptr;
        const std::uint64_t allocs0 = AllocProbe::totalAllocCount();
        const Clock::time_point t0 = Clock::now();
        auto report = [&] {
            Scope unit(call_tr, 0, call_span, c);
            Scope replay(call_tr, 0, replay_span, c);
            return s->session->replay(calls[c]);
        }();
        const double call_ms = secondsSince(t0) * 1e3;
        if (!timed_call)
            continue;
        allocs += AllocProbe::totalAllocCount() - allocs0;
        rep.attempted += kRequestsPerCall;
        if (!report) {
            rep.failed += kRequestsPerCall;
            rep.check(false, "replay failed: " + report.error().message);
            continue;
        }
        const serve::ServeReport &r = report.value();
        (call_tr ? traced_ms : ms).push_back(call_ms);
        rep.failed += r.sheddedRequests;
        hits += r.cacheHits;
        misses += r.cacheMisses;
        recomputed += r.nodesRecomputed;
        injected += r.nodesInjected;
        batches += r.batches;
        sim_seconds += r.serviceSimSeconds;
        if ((c - kWarmupCalls) % check_every == 0)
            sampled.emplace_back(c, r.logits);
    }
    const double rss = peakRssMb();

    // The serving anchor: cached logits are bitwise-equal to a
    // cache-off session given the same requests.
    serve::ServeSession plain(*s->model, s->data.graph, s->data.features,
                              serveConfig(opt, 0.0, 0));
    for (const auto &[c, logits] : sampled) {
        auto ref = plain.replay(calls[c]);
        const bool same =
            ref && ref.value().logits.rows() == logits.rows() &&
            ref.value().logits.cols() == logits.cols() &&
            std::memcmp(ref.value().logits.data(), logits.data(),
                        logits.size() * sizeof(Float)) == 0;
        rep.check(same, "call " + std::to_string(c) +
                            ": cached logits differ from the cache-off "
                            "session");
    }

    rep.set("setup_s", setup_s, "s");
    printSamples("call ms per block", blockMeans(ms));
    rep.set("unit_ms", fastest(blockMeans(ms)), "ms");
    rep.set("peak_rss_mb", rss, "MB");
    if (!tracer)
        return;

    const double requests = static_cast<double>(timed) * kRequestsPerCall;
    rep.set("serve.call_p90_ms", percentile(ms, 90.0), "ms");
    rep.set("serve.hit_ratio",
            hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0,
            "ratio");
    rep.set("serve.rows_recomputed_per_req", recomputed / requests, "rows");
    rep.set("serve.rows_injected_per_req", injected / requests, "rows");
    rep.set("serve.planned_rows_ratio",
            static_cast<double>(recomputed) /
                (static_cast<double>(s->session->nodeCapacity()) *
                 s->cfg.numLayers * batches),
            "ratio");
    rep.set("gpusim.req_per_s", requests / sim_seconds, "req/sim_s");
    rep.set("tensor.steady_allocs", static_cast<double>(allocs), "count");

    Tracer &t = *tracer;
    const TraceSummary sum = summarize(t, "call", {});
    setTraceMetrics(rep, sum, fastest(blockMeans(traced_ms)),
                    fastest(blockMeans(ms)));
    const TraceSummary setup = summarize(
        t, "setup",
        {{"graph.materialize_ms", {"graph.materialize"}},
         {"serve.session_ms", {"serve.session"}}});
    rep.set("graph.materialize_ms", setup.ms.at("graph.materialize_ms"),
            "ms");
    rep.set("serve.session_ms", setup.ms.at("serve.session_ms"), "ms");
    writeTrace(t, opt, rep);
}

} // namespace hostbench
