/**
 * @file
 * Compressed Sparse Row adjacency matrix — the substrate every kernel in
 * this reproduction consumes.
 *
 * MaxK-GNN (Sec. 3.2) stores the adjacency matrix A in CSR for the forward
 * SpGEMM and reuses the identical buffers as the CSC representation of A^T
 * for the backward SSpMM ("the transposed CSC format is equal to original
 * CSR format", Fig. 5). This class therefore exposes both views: rowPtr /
 * colIdx / values is simultaneously CSR(A) and CSC(A^T).
 */

#ifndef MAXK_GRAPH_CSR_HH
#define MAXK_GRAPH_CSR_HH

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace maxk
{

class EdgeGroupPartition;
struct DegreeStats;

/**
 * Aggregator semantics decide the edge weights used during feature
 * aggregation (Fig. 5 caption): SAGE mean uses 1/d(target), GCN uses
 * 1/sqrt(d_i * d_j), GIN sums with weight 1.
 */
enum class Aggregator { SageMean, Gcn, Gin };

/** Name for bench output. */
const char *aggregatorName(Aggregator agg);

/**
 * CSR graph with fp32 edge values. Nodes are [0, numNodes). Edges within a
 * row are kept sorted by destination for deterministic iteration.
 */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /**
     * Build from an edge list. Duplicate edges are collapsed.
     *
     * @param num_nodes number of vertices
     * @param edges     (src, dst) pairs
     * @param symmetrize insert the reverse of every edge
     * @param self_loops insert (v, v) for every vertex
     */
    static CsrGraph fromEdges(NodeId num_nodes,
                              std::vector<std::pair<NodeId, NodeId>> edges,
                              bool symmetrize, bool self_loops);

    /** Build directly from raw CSR arrays (values default to 1). */
    static CsrGraph fromCsr(NodeId num_nodes, std::vector<EdgeId> row_ptr,
                            std::vector<NodeId> col_idx,
                            std::vector<Float> values = {});

    /**
     * Refill this graph from raw CSR arrays (values set to 1), copying
     * them into the storage the graph already holds, so a graph reused
     * for graphs of bounded size stops allocating. The structure
     * changes, so every cache below is dropped.
     */
    void assignCsr(NodeId num_nodes, const std::vector<EdgeId> &row_ptr,
                   const std::vector<NodeId> &col_idx);

    NodeId numNodes() const { return numNodes_; }
    EdgeId numEdges() const
    {
        return static_cast<EdgeId>(colIdx_.size());
    }

    const std::vector<EdgeId> &rowPtr() const { return rowPtr_; }
    const std::vector<NodeId> &colIdx() const { return colIdx_; }
    const std::vector<Float> &values() const { return values_; }

    /**
     * Mutable access to the edge values. Invalidates the cached
     * transpose (see transposeCached()): call it again for every
     * mutation session rather than retaining the reference across
     * later transposeCached() calls.
     */
    std::vector<Float> &
    mutableValues()
    {
        transposeCache_.reset();
        return values_;
    }

    /** Out-degree of vertex v (row length). */
    EdgeId degree(NodeId v) const { return rowPtr_[v + 1] - rowPtr_[v]; }

    /** Average degree nnz / |V|. */
    double avgDegree() const;

    /** Maximum row length. */
    EdgeId maxDegree() const;

    /**
     * Set edge values according to the aggregator convention. For SAGE the
     * weight of edge (i, j) is 1/degree(i) (mean over neighbours of the
     * target row); for GCN it is 1/sqrt(d_i * d_j); for GIN it is 1.
     * Zero-degree rows contribute no edges, so no division by zero arises.
     */
    void setAggregatorWeights(Aggregator agg);

    /**
     * Explicit structural transpose (A^T as its own CSR). For symmetric
     * structure this returns the same pattern; values are transposed
     * faithfully. The MaxK-GNN kernels never need this — they reuse this
     * object as CSC(A^T) — but reference implementations and tests do.
     */
    CsrGraph transposed() const;

    /**
     * Lazily built, cached stable transpose — the scatter-shaped
     * backward paths (transpose_gather.hh) call this once per kernel
     * launch and used to rebuild A^T every time. The cache is
     * invalidated by value mutation (mutableValues(),
     * setAggregatorWeights()) and by assignCsr(), the only way the
     * structure of a CsrGraph changes after construction. Copies
     * share the cached object (it is immutable).
     *
     * Not internally locked: like the kernels' other pre-launch setup,
     * the first call for a given graph must come from the coordinating
     * thread, never from inside a parallelFor body.
     */
    const CsrGraph &transposeCached() const;

    /** Times transposeCached() actually built (test observability). */
    std::size_t transposeBuildCount() const { return transposeBuilds_; }

    /**
     * Lazily built, cached Edge-Group partition at the given workload
     * cap — the partition-consuming kernels (spmm_gnna, the nnz-balanced
     * and row-caching variants, SpGEMM/SSpMM launch sites going through
     * the kernel registry) share one build per (graph, cap). The
     * partition depends only on the sparsity structure, so only
     * assignCsr() invalidates it; a call with a different cap rebuilds
     * and replaces the cache. Same
     * threading contract as transposeCached(): first call for a given
     * cap from the coordinating thread. Defined in graph/edge_groups.cc.
     */
    const EdgeGroupPartition &
    edgeGroupsCached(std::uint32_t workload_cap) const;

    /** Times edgeGroupsCached() actually built (test observability). */
    std::size_t edgeGroupBuildCount() const { return egBuilds_; }

    /**
     * Lazily built, cached degree-distribution summary — the adaptive
     * kernel selector reads these features on every launch, so the
     * O(|V| log |V|) pass must run once per graph, not once per launch.
     * Structure-only, hence invalidated only by assignCsr(). Same
     * threading contract as transposeCached(). Defined in
     * graph/stats.cc.
     */
    const DegreeStats &degreeStatsCached() const;

    /** Times degreeStatsCached() actually built (test observability). */
    std::size_t degreeStatsBuildCount() const { return statsBuilds_; }

    /** True when the sparsity pattern (not values) is symmetric. */
    bool structureSymmetric() const;

    /** Validate CSR invariants (monotone rowPtr, in-range sorted cols). */
    bool validate() const;

    /** Bytes of the CSR arrays (rowPtr + colIdx + values). */
    Bytes storageBytes() const;

  private:
    NodeId numNodes_ = 0;
    std::vector<EdgeId> rowPtr_{0};
    std::vector<NodeId> colIdx_;
    std::vector<Float> values_;
    /** setAggregatorWeights(Gcn)'s in-degree count, empty between calls
     *  (only its capacity is kept). */
    std::vector<EdgeId> inDegree_;
    mutable std::shared_ptr<const CsrGraph> transposeCache_;
    mutable std::size_t transposeBuilds_ = 0;
    mutable std::shared_ptr<const EdgeGroupPartition> egCache_;
    mutable std::uint32_t egCacheCap_ = 0;
    mutable std::size_t egBuilds_ = 0;
    mutable std::shared_ptr<const DegreeStats> statsCache_;
    mutable std::size_t statsBuilds_ = 0;
};

} // namespace maxk

#endif // MAXK_GRAPH_CSR_HH
