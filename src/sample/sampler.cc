#include "sample/sampler.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace maxk::sample
{

namespace
{
/** Frontier vertices per parallel chunk of the draw loop. */
constexpr std::size_t kDrawGrain = 64;

/** Tag word separating the epoch-order stream from vertex streams. */
constexpr std::uint64_t kOrderTag = 0x5EED0CDEull;
} // namespace

NeighborSampler::NeighborSampler(const CsrGraph &g,
                                 const SamplerConfig &cfg)
    : g_(g), cfg_(cfg)
{
    if (cfg_.batchSize == 0)
        fatal("NeighborSampler: batch size must be >= 1");
    if (cfg_.fanouts.empty())
        fatal("NeighborSampler: need at least one fanout (one per layer)");

    // Node-count bound: B * (1 + f0 + f0*f1 + ...), clamped to |V|.
    std::uint64_t bound = cfg_.batchSize;
    std::uint64_t width = cfg_.batchSize;
    for (const std::uint32_t f : cfg_.fanouts) {
        width *= f;
        bound += width;
        if (bound >= g_.numNodes()) {
            bound = g_.numNodes();
            break;
        }
    }
    capacity_ = static_cast<NodeId>(
        std::min<std::uint64_t>(bound, g_.numNodes()));
    maxDegree_ = g_.maxDegree();
}

std::uint32_t
NeighborSampler::numBatches(std::size_t num_train) const
{
    return static_cast<std::uint32_t>(
        (num_train + cfg_.batchSize - 1) / cfg_.batchSize);
}

void
NeighborSampler::epochOrder(std::uint32_t epoch,
                            const std::vector<NodeId> &train_ids,
                            std::vector<NodeId> &order) const
{
    order = train_ids;
    Rng rng(rngKey(cfg_.seed, kOrderTag, epoch));
    for (std::size_t i = order.size(); i > 1; --i) {
        const std::size_t j =
            static_cast<std::size_t>(rng.nextBounded(i));
        std::swap(order[i - 1], order[j]);
    }
}

void
NeighborSampler::sample(std::uint32_t epoch, std::uint32_t batch,
                        const std::vector<NodeId> &seeds,
                        SampleBatch &out)
{
    checkInvariant(!seeds.empty(), "NeighborSampler::sample: no seeds");
    const NodeId n = g_.numNodes();
    if (stamp_.size() != n) {
        stamp_.assign(n, 0);
        curStamp_ = 0;
        localOf_.resize(n);
        hopOf_.resize(n);
    }
    // One draw scratch per chunk, each able to hold any vertex's edge
    // positions, so warm draws allocate nothing.
    const std::uint32_t chunks = resolveThreads(0);
    if (pick_.size() < chunks) {
        pick_.resize(chunks);
        for (std::vector<EdgeId> &p : pick_)
            p.reserve(maxDegree_);
    }
    if (++curStamp_ == 0) { // uint32 wrap: restart the marker epoch
        stamp_.assign(n, 0);
        curStamp_ = 1;
    }

    out.epoch = epoch;
    out.batchIndex = batch;
    out.seeds = seeds;
    std::sort(out.seeds.begin(), out.seeds.end());

    out.nodes.clear();
    adjData_.clear();
    adjStart_.clear();
    adjLen_.clear();
    frontier_.clear();
    std::vector<NodeId> &exp_vertex = sampledFlat_; // expansion order
    exp_vertex.clear();

    // Duplicate seeds collapse to one row: serving traces routinely ask
    // for the same vertex twice in a batch window, and the sampled
    // neighborhood of a vertex is seed-multiplicity-independent anyway
    // (per-vertex keyed streams). out.seeds keeps the deduplicated,
    // ascending set.
    NodeId unique_seeds = 0;
    for (const NodeId s : out.seeds) {
        checkInvariant(s < n, "NeighborSampler::sample: seed out of range");
        if (stamp_[s] == curStamp_)
            continue;
        stamp_[s] = curStamp_;
        hopOf_[s] = 0;
        out.seeds[unique_seeds++] = s;
        frontier_.push_back(s);
        out.nodes.push_back(s);
    }
    out.seeds.resize(unique_seeds);

    for (std::size_t hop = 0; hop < cfg_.fanouts.size(); ++hop) {
        const std::uint32_t f = cfg_.fanouts[hop];
        const std::size_t F = frontier_.size();
        const std::size_t exp_base = adjStart_.size();
        const std::size_t data_base = adjData_.size();
        adjStart_.resize(exp_base + F);
        adjLen_.resize(exp_base + F);
        adjData_.resize(data_base + F * static_cast<std::size_t>(f));
        exp_vertex.insert(exp_vertex.end(), frontier_.begin(),
                          frontier_.end());

        // Keyed per-vertex draws: every slot range is written by exactly
        // one frontier index, so the chunk layout cannot change results.
        parallelFor(
            0, F, kDrawGrain,
            [&](std::uint32_t chunk, std::size_t begin, std::size_t end) {
                std::vector<EdgeId> &pick = pick_[chunk];
                for (std::size_t i = begin; i < end; ++i) {
                    const NodeId v = frontier_[i];
                    const EdgeId e0 = g_.rowPtr()[v];
                    const EdgeId deg = g_.degree(v);
                    const std::size_t slot =
                        data_base + i * static_cast<std::size_t>(f);
                    adjStart_[exp_base + i] = static_cast<EdgeId>(slot);
                    std::uint32_t cnt = 0;
                    if (f == 0) {
                        // Seed-only hop: expanded with an empty row.
                    } else if (deg <= f) {
                        // Degree under the fanout: take every neighbor
                        // (already ascending in the CSR); no draw, so
                        // the keyed stream is untouched.
                        cnt = deg;
                        std::copy(g_.colIdx().begin() + e0,
                                  g_.colIdx().begin() + e0 + deg,
                                  adjData_.begin() + slot);
                    } else {
                        // Partial Fisher-Yates over the edge positions:
                        // f distinct picks from this vertex's own
                        // (epoch, batch, vertex)-keyed stream.
                        Rng rng(rngKey(cfg_.seed, epoch, batch, v));
                        pick.resize(deg);
                        std::iota(pick.begin(), pick.end(), EdgeId{0});
                        for (std::uint32_t t = 0; t < f; ++t) {
                            const std::uint64_t j =
                                t + rng.nextBounded(deg - t);
                            std::swap(pick[t], pick[j]);
                        }
                        for (std::uint32_t t = 0; t < f; ++t)
                            adjData_[slot + t] = g_.colIdx()[e0 + pick[t]];
                        std::sort(adjData_.begin() + slot,
                                  adjData_.begin() + slot + f);
                        cnt = f;
                    }
                    adjLen_[exp_base + i] = cnt;
                }
            });

        // Serial merge: discover unseen vertices in frontier order, then
        // sort — the discovered set (and hence everything downstream) is
        // independent of the parallel chunk layout.
        nextFrontier_.clear();
        for (std::size_t i = 0; i < F; ++i) {
            const EdgeId start = adjStart_[exp_base + i];
            for (std::uint32_t t = 0; t < adjLen_[exp_base + i]; ++t) {
                const NodeId u = adjData_[start + t];
                if (stamp_[u] != curStamp_) {
                    stamp_[u] = curStamp_;
                    hopOf_[u] = static_cast<std::uint32_t>(hop + 1);
                    nextFrontier_.push_back(u);
                }
            }
        }
        std::sort(nextFrontier_.begin(), nextFrontier_.end());
        out.nodes.insert(out.nodes.end(), nextFrontier_.begin(),
                         nextFrontier_.end());
        std::swap(frontier_, nextFrontier_);
    }

    // Canonical local ids: ascending global order. The map is monotone,
    // so the per-vertex sorted global neighbor lists stay sorted as
    // local rows.
    std::sort(out.nodes.begin(), out.nodes.end());
    checkInvariant(out.nodes.size() <= capacity_,
                   "NeighborSampler::sample: capacity bound violated");
    out.hops = static_cast<std::uint32_t>(cfg_.fanouts.size());
    out.hop.resize(out.nodes.size());
    for (std::size_t r = 0; r < out.nodes.size(); ++r) {
        localOf_[out.nodes[r]] = static_cast<NodeId>(r);
        out.hop[r] = hopOf_[out.nodes[r]];
    }

    const std::size_t nl = out.nodes.size();
    out.rowPtr.assign(nl + 1, 0);
    for (std::size_t e = 0; e < exp_vertex.size(); ++e)
        out.rowPtr[localOf_[exp_vertex[e]] + 1] = adjLen_[e];
    for (std::size_t r = 0; r < nl; ++r)
        out.rowPtr[r + 1] += out.rowPtr[r];

    out.colIdx.resize(out.rowPtr[nl]);
    for (std::size_t e = 0; e < exp_vertex.size(); ++e) {
        const std::size_t r = localOf_[exp_vertex[e]];
        const EdgeId start = adjStart_[e];
        EdgeId at = out.rowPtr[r];
        for (std::uint32_t t = 0; t < adjLen_[e]; ++t)
            out.colIdx[at++] = localOf_[adjData_[start + t]];
    }
}

} // namespace maxk::sample
