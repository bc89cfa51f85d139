/**
 * @file
 * Minibatch extraction — stage two of the sample/extract/train pipeline
 * (FGNN's dedicated extraction task, SNIPPETS.md Sec. 1).
 *
 * Gathers one SampleBatch into a self-contained training input: a
 * compact local CSR with the model's aggregator weights, plus feature /
 * label / mask rows gathered from the global training data, and the
 * rows each layer of the training step computes. Every minibatch is
 * padded to the sampler's fixed node capacity with isolated,
 * zero-feature, unmasked rows, so the downstream GnnModel workspaces
 * see ONE shape for the whole run — that is what makes steady-state
 * epochs Matrix/CbsrMatrix-allocation-free (alloc_probe) even though
 * sampled subgraph sizes vary per batch. No layer computes a padding
 * row (it is in no row set), but the rows still draw their share of
 * the dropout stream, which therefore stays shape-constant.
 *
 * Row sets: for layer l of an L-layer model (L = the sampler's hop
 * count), `compute` is the rows first reached at hop <= L - l and
 * `target` the rows at hop <= L - 1 - l, ascending. Layer 0 computes
 * Linear1 on every real row and aggregates into the rows that have
 * sampled edges; the last layer aggregates only into the seeds. These
 * are exactly the rows a seed's logits depend on, so the row-set
 * training step (GnnModel::forward/backward with rows) is bitwise the
 * all-rows step on the same minibatch.
 *
 * A warm extract() allocates nothing: the slot's graph is refilled in
 * place (CsrGraph::assignCsr) and its row lists keep their capacity.
 */

#ifndef MAXK_SAMPLE_EXTRACTOR_HH
#define MAXK_SAMPLE_EXTRACTOR_HH

#include <cstdint>
#include <vector>

#include "graph/csr.hh"
#include "nn/gnn_layer.hh"
#include "sample/sampler.hh"
#include "tensor/matrix.hh"

namespace maxk::sample
{

/** One extracted minibatch (a persistent pipeline-slot workspace). */
struct Minibatch
{
    std::uint32_t epoch = 0;
    std::uint32_t batchIndex = 0;

    std::size_t numSeeds = 0;  //!< real seed rows (loss normalisation)
    std::size_t numNodes = 0;  //!< real rows; rows beyond are padding

    /** Local subgraph: always `capacity` rows (padding rows isolated),
     *  aggregator weights applied over local sampled degrees. */
    CsrGraph graph;

    /** Local row -> global vertex id (size numNodes). */
    std::vector<NodeId> globalIds;

    /** capacity x featureDim; rows >= numNodes zeroed. */
    Matrix features;

    /** capacity entries; padding rows get label 0 (never masked). */
    std::vector<std::uint32_t> labels;

    /** capacity entries; 1 exactly on the seed rows. */
    std::vector<std::uint8_t> trainMask;

    /** capacity x numClasses multi-label targets; only gathered when
     *  the extractor was given global targets (empty otherwise). */
    Matrix targets;

    /** One row set per model layer (see the file comment). */
    std::vector<nn::LayerRows> rows;
};

/** Gathers SampleBatch topology + global tensors into Minibatch slots. */
class MinibatchExtractor
{
  public:
    /**
     * @param capacity       fixed padded row count
     *                       (NeighborSampler::nodeCapacity())
     * @param agg            aggregator convention applied to each local
     *                       CSR (local sampled degrees, the GraphSAGE
     *                       minibatch semantics)
     * @param features       global N x featureDim inputs
     * @param labels         global per-node labels
     * @param multi_targets  global N x C multi-label targets, or nullptr
     *                       for single-label tasks
     */
    MinibatchExtractor(NodeId capacity, Aggregator agg,
                       const Matrix &features,
                       const std::vector<std::uint32_t> &labels,
                       const Matrix *multi_targets = nullptr);

    NodeId capacity() const { return capacity_; }

    /**
     * Fill `out` from `sb`. All slot storage is reused; at steady state
     * (every slot warmed once) the call performs no heap allocation but
     * the thread pool's (common/parallel.hh). Bitwise-deterministic at
     * any thread count (per-row disjoint gather).
     */
    void extract(const SampleBatch &sb, Minibatch &out);

  private:
    NodeId capacity_;
    Aggregator agg_;
    const Matrix &features_;
    const std::vector<std::uint32_t> &labels_;
    const Matrix *multiTargets_;

    std::vector<EdgeId> rowPtrStage_; //!< padded rowPtr, reused
};

} // namespace maxk::sample

#endif // MAXK_SAMPLE_EXTRACTOR_HH
