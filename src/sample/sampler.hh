/**
 * @file
 * Deterministic per-layer neighbor sampling — the first stage of the
 * sample-based mini-batch pipeline (ISSUE 6; FGNN's factored design,
 * SNIPPETS.md Sec. 1).
 *
 * Full-batch training caps this system at graphs that fit one shard;
 * mini-batch training over sampled k-hop neighborhoods is the standard
 * unlock (GraphSAGE fanout sampling). The sampler here is built on the
 * repo's determinism substrate: every vertex expansion draws from its
 * own Rng stream keyed on (sampler seed, epoch, batch, vertex) via
 * rngKey() (common/rng.hh), so the sampled subgraph of a given
 * (epoch, batch) is bitwise-identical at any MAXK_THREADS, any queue
 * depth, and any producer/consumer interleaving — the property the
 * pipelined trainer's bitwise-reproducibility contract rests on.
 *
 * Sampling semantics (one flattened k-hop block, with each row's hop
 * recorded): seeds form hop 0; at hop h every vertex first reached at
 * hop h draws min(fanouts[h], degree) distinct out-neighbors from its
 * keyed stream; the union of reached vertices becomes the minibatch
 * node set, and each expanded vertex keeps exactly its sampled edges.
 * Vertices first reached at the last hop keep empty rows (their
 * features enter only as aggregation sources). A fanout of 0 at hop 0
 * therefore yields a seed-only batch.
 *
 * The block is not split into per-layer bipartite blocks (FGNN's
 * blocks, SNIPPETS.md Sec. 1); instead every row carries the hop that
 * first reached it. A row at hop h has sampled edges only into rows at
 * hop <= h + 1, so layer l of an L-layer model needs its Linear on the
 * rows at hop <= L - l and its aggregation on the rows at hop
 * <= L - 1 - l: the per-layer row sets the extractor derives
 * (extractor.hh).
 */

#ifndef MAXK_SAMPLE_SAMPLER_HH
#define MAXK_SAMPLE_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "graph/csr.hh"

namespace maxk::sample
{

/** Mini-batch sampling configuration. */
struct SamplerConfig
{
    /** Neighbors sampled per vertex at each hop; arity must equal the
     *  model's layer count (checked by SampledTrainer). */
    std::vector<std::uint32_t> fanouts{10, 10};

    /** Seed vertices per minibatch (>= 1; the last batch of an epoch
     *  may be smaller). */
    std::uint32_t batchSize = 64;

    /** Root of every keyed stream (seed order and neighbor draws). */
    std::uint64_t seed = 7;
};

/**
 * One sampled minibatch in global ids + local CSR topology. The node
 * list is ascending in global id, so local ids are order-preserving:
 * sorted global neighbor lists map to sorted local rows for free.
 */
struct SampleBatch
{
    std::uint32_t epoch = 0;
    std::uint32_t batchIndex = 0;

    /** Sampled vertices, ascending global ids (seeds included). */
    std::vector<NodeId> nodes;

    /** Seed vertices of this batch, ascending global ids, deduplicated
     *  (duplicate seeds in the input collapse to one row). */
    std::vector<NodeId> seeds;

    /** Local-id CSR over `nodes`: row r holds the sampled out-edges of
     *  nodes[r] (empty for vertices first reached at the last hop). */
    std::vector<EdgeId> rowPtr;
    std::vector<NodeId> colIdx;

    /** hop[r]: the hop that first reached nodes[r] (0 for seeds, at
     *  most `hops`). */
    std::vector<std::uint32_t> hop;

    /** Hops sampled: the fanout count, one per model layer. */
    std::uint32_t hops = 0;

    std::size_t numNodes() const { return nodes.size(); }
    std::size_t numEdges() const { return colIdx.size(); }
};

/** Fanout-per-layer neighbor sampler with keyed per-vertex streams. */
class NeighborSampler
{
  public:
    /**
     * @param g   graph to sample (must outlive the sampler)
     * @param cfg validated config: fatal() on batchSize == 0 or an
     *            empty fanout list (fanout values of 0 are legal)
     */
    NeighborSampler(const CsrGraph &g, const SamplerConfig &cfg);

    const SamplerConfig &config() const { return cfg_; }

    /**
     * Upper bound on the node count of any sampled batch:
     * min(|V|, batchSize * (1 + f0 + f0*f1 + ...)). The extractor pads
     * every minibatch to this capacity so downstream Matrix workspaces
     * keep one shape across batches (zero-allocation steady state).
     */
    NodeId nodeCapacity() const { return capacity_; }

    /** ceil(num_train / batchSize): batches per epoch. */
    std::uint32_t numBatches(std::size_t num_train) const;

    /**
     * Deterministic seed order of one epoch: Fisher-Yates shuffle of
     * `train_ids` keyed on (seed, epoch). Slicing the order into
     * batchSize runs yields the epoch's batch seed sets.
     */
    void epochOrder(std::uint32_t epoch,
                    const std::vector<NodeId> &train_ids,
                    std::vector<NodeId> &order) const;

    /**
     * Sample the k-hop neighborhood of `seeds` into `out` (workspaces
     * reused; all vectors overwritten). Seeds may be an arbitrary
     * request set — any order, duplicates allowed (collapsed), isolated
     * vertices allowed (they become seed-only rows) — not just
     * train-mask batches. Bitwise-deterministic for a given
     * (epoch, batch, seed set) at any thread count. Not reentrant:
     * one sample() at a time per sampler (the pipeline's single
     * producer stage satisfies this by construction).
     */
    void sample(std::uint32_t epoch, std::uint32_t batch,
                const std::vector<NodeId> &seeds, SampleBatch &out);

  private:
    const CsrGraph &g_;
    SamplerConfig cfg_;
    NodeId capacity_ = 0;
    EdgeId maxDegree_ = 0;

    // Per-call workspaces (untracked std::vector scratch; reused so the
    // steady-state sampling loop does not grow them).
    std::vector<std::uint32_t> stamp_;     //!< visit marker per vertex
    std::uint32_t curStamp_ = 0;
    std::vector<NodeId> frontier_;         //!< vertices expanded this hop
    std::vector<NodeId> nextFrontier_;
    std::vector<NodeId> sampledFlat_;      //!< expansion-order vertices
    std::vector<NodeId> adjData_;          //!< sampled edges, global ids
    std::vector<EdgeId> adjStart_;         //!< per expanded vertex
    std::vector<std::uint32_t> adjLen_;
    std::vector<std::uint32_t> hopOf_;     //!< vertex -> first hop
    std::vector<NodeId> localOf_;          //!< vertex -> local id
    std::vector<std::vector<EdgeId>> pick_; //!< draw scratch per chunk
};

} // namespace maxk::sample

#endif // MAXK_SAMPLE_SAMPLER_HH
