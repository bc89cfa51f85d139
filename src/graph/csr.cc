#include "graph/csr.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace maxk
{

const char *
aggregatorName(Aggregator agg)
{
    switch (agg) {
      case Aggregator::SageMean: return "SAGE(mean)";
      case Aggregator::Gcn:      return "GCN";
      case Aggregator::Gin:      return "GIN";
    }
    return "?";
}

CsrGraph
CsrGraph::fromEdges(NodeId num_nodes,
                    std::vector<std::pair<NodeId, NodeId>> edges,
                    bool symmetrize, bool self_loops)
{
    if (symmetrize) {
        const std::size_t n = edges.size();
        edges.reserve(n * 2);
        for (std::size_t i = 0; i < n; ++i)
            edges.emplace_back(edges[i].second, edges[i].first);
    }
    if (self_loops) {
        edges.reserve(edges.size() + num_nodes);
        for (NodeId v = 0; v < num_nodes; ++v)
            edges.emplace_back(v, v);
    }

    for (const auto &[s, d] : edges)
        checkInvariant(s < num_nodes && d < num_nodes,
                       "fromEdges: endpoint out of range");

    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    CsrGraph g;
    g.numNodes_ = num_nodes;
    g.rowPtr_.assign(num_nodes + 1, 0);
    g.colIdx_.resize(edges.size());
    g.values_.assign(edges.size(), 1.0f);
    for (const auto &[s, d] : edges)
        ++g.rowPtr_[s + 1];
    for (NodeId v = 0; v < num_nodes; ++v)
        g.rowPtr_[v + 1] += g.rowPtr_[v];
    for (std::size_t i = 0; i < edges.size(); ++i)
        g.colIdx_[i] = edges[i].second;
    return g;
}

CsrGraph
CsrGraph::fromCsr(NodeId num_nodes, std::vector<EdgeId> row_ptr,
                  std::vector<NodeId> col_idx, std::vector<Float> values)
{
    CsrGraph g;
    g.numNodes_ = num_nodes;
    g.rowPtr_ = std::move(row_ptr);
    g.colIdx_ = std::move(col_idx);
    if (values.empty())
        g.values_.assign(g.colIdx_.size(), 1.0f);
    else
        g.values_ = std::move(values);
    checkInvariant(g.validate(), "fromCsr: invalid CSR arrays");
    checkInvariant(g.values_.size() == g.colIdx_.size(),
                   "fromCsr: value/col size mismatch");
    return g;
}

void
CsrGraph::assignCsr(NodeId num_nodes, const std::vector<EdgeId> &row_ptr,
                    const std::vector<NodeId> &col_idx)
{
    numNodes_ = num_nodes;
    rowPtr_ = row_ptr;
    colIdx_ = col_idx;
    values_.assign(colIdx_.size(), 1.0f);
    transposeCache_.reset();
    egCache_.reset();
    egCacheCap_ = 0;
    statsCache_.reset();
    checkInvariant(validate(), "assignCsr: invalid CSR arrays");
}

double
CsrGraph::avgDegree() const
{
    if (numNodes_ == 0)
        return 0.0;
    return static_cast<double>(numEdges()) / numNodes_;
}

EdgeId
CsrGraph::maxDegree() const
{
    EdgeId best = 0;
    for (NodeId v = 0; v < numNodes_; ++v)
        best = std::max(best, degree(v));
    return best;
}

void
CsrGraph::setAggregatorWeights(Aggregator agg)
{
    transposeCache_.reset();
    switch (agg) {
      case Aggregator::Gin:
        std::fill(values_.begin(), values_.end(), 1.0f);
        break;
      case Aggregator::SageMean:
        for (NodeId v = 0; v < numNodes_; ++v) {
            const EdgeId deg = degree(v);
            if (deg == 0)
                continue;
            const Float w = 1.0f / static_cast<Float>(deg);
            for (EdgeId e = rowPtr_[v]; e < rowPtr_[v + 1]; ++e)
                values_[e] = w;
        }
        break;
      case Aggregator::Gcn: {
        // In-degree equals out-degree only for symmetric structure; compute
        // in-degrees explicitly so directed graphs are handled too, into
        // storage the graph keeps, so a reused graph stops allocating.
        inDegree_.assign(numNodes_, 0);
        for (NodeId c : colIdx_)
            ++inDegree_[c];
        for (NodeId v = 0; v < numNodes_; ++v) {
            const EdgeId d_i = degree(v);
            if (d_i == 0)
                continue;
            for (EdgeId e = rowPtr_[v]; e < rowPtr_[v + 1]; ++e) {
                const EdgeId d_j = inDegree_[colIdx_[e]];
                values_[e] = d_j == 0
                    ? 0.0f
                    : 1.0f / std::sqrt(static_cast<Float>(d_i) *
                                       static_cast<Float>(d_j));
            }
        }
        inDegree_.clear(); // keeps the capacity; a graph copy gets none
        break;
      }
    }
}

CsrGraph
CsrGraph::transposed() const
{
    CsrGraph t;
    t.numNodes_ = numNodes_;
    t.rowPtr_.assign(numNodes_ + 1, 0);
    t.colIdx_.resize(colIdx_.size());
    t.values_.resize(values_.size());

    for (NodeId c : colIdx_)
        ++t.rowPtr_[c + 1];
    for (NodeId v = 0; v < numNodes_; ++v)
        t.rowPtr_[v + 1] += t.rowPtr_[v];

    std::vector<EdgeId> cursor(t.rowPtr_.begin(), t.rowPtr_.end() - 1);
    for (NodeId r = 0; r < numNodes_; ++r) {
        for (EdgeId e = rowPtr_[r]; e < rowPtr_[r + 1]; ++e) {
            const NodeId c = colIdx_[e];
            const EdgeId slot = cursor[c]++;
            t.colIdx_[slot] = r;
            t.values_[slot] = values_[e];
        }
    }
    return t;
}

const CsrGraph &
CsrGraph::transposeCached() const
{
    if (!transposeCache_) {
        transposeCache_ =
            std::make_shared<const CsrGraph>(transposed());
        ++transposeBuilds_;
    }
    return *transposeCache_;
}

bool
CsrGraph::structureSymmetric() const
{
    const CsrGraph t = transposed();
    return t.rowPtr_ == rowPtr_ && t.colIdx_ == colIdx_;
}

bool
CsrGraph::validate() const
{
    if (rowPtr_.size() != static_cast<std::size_t>(numNodes_) + 1)
        return false;
    if (rowPtr_.front() != 0)
        return false;
    if (rowPtr_.back() != colIdx_.size())
        return false;
    for (NodeId v = 0; v < numNodes_; ++v) {
        if (rowPtr_[v] > rowPtr_[v + 1])
            return false;
        for (EdgeId e = rowPtr_[v]; e < rowPtr_[v + 1]; ++e) {
            if (colIdx_[e] >= numNodes_)
                return false;
            if (e > rowPtr_[v] && colIdx_[e - 1] >= colIdx_[e])
                return false; // must be strictly increasing within a row
        }
    }
    return true;
}

Bytes
CsrGraph::storageBytes() const
{
    return rowPtr_.size() * sizeof(EdgeId) +
           colIdx_.size() * sizeof(NodeId) + values_.size() * sizeof(Float);
}

} // namespace maxk
