/**
 * @file
 * Synthetic graph generators standing in for the paper's 24 public
 * datasets (README "Synthetic twins"). Two families matter for kernel
 * behaviour:
 *
 *  - power-law graphs (RMAT): reproduce the skewed "evil row" degree
 *    distribution that causes SpMM warp imbalance (Sec. 1 of the paper);
 *  - planted-partition (SBM) community graphs: supply learnable labels for
 *    the training-accuracy experiments (Fig. 9/10, Table 5).
 */

#ifndef MAXK_GRAPH_GENERATORS_HH
#define MAXK_GRAPH_GENERATORS_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "graph/csr.hh"

namespace maxk
{

/** Erdős–Rényi G(n, m): m undirected edges drawn uniformly. */
CsrGraph erdosRenyi(NodeId num_nodes, EdgeId num_edges, Rng &rng,
                    bool self_loops = true);

/**
 * RMAT power-law generator (Chakrabarti et al. parameters). Produces a
 * symmetric graph with roughly target_edges directed edges whose degree
 * distribution is heavy-tailed, like Reddit / ogbn-products.
 *
 * @param scale     log2 of node count
 * @param target_edges desired nnz after symmetrisation/dedup (approximate)
 * @param a,b,c     RMAT quadrant probabilities (d = 1-a-b-c)
 */
CsrGraph rmat(std::uint32_t scale, EdgeId target_edges, Rng &rng,
              double a = 0.57, double b = 0.19, double c = 0.19,
              bool self_loops = true);

/**
 * Stochastic block model with equal-size communities and the labelling.
 *
 * @param num_nodes      vertex count
 * @param num_communities number of blocks (= classification classes)
 * @param avg_degree     expected degree per vertex
 * @param p_in_fraction  fraction of a vertex's edges that stay in-block
 */
struct SbmResult
{
    CsrGraph graph;
    std::vector<std::uint32_t> labels;
};
SbmResult stochasticBlockModel(NodeId num_nodes,
                               std::uint32_t num_communities,
                               double avg_degree, double p_in_fraction,
                               Rng &rng);

/** k-regular ring lattice: each node links to k/2 neighbours each side. */
CsrGraph ringLattice(NodeId num_nodes, std::uint32_t k,
                     bool self_loops = true);

/** Star graph: node 0 connected to all others (extreme imbalance case). */
CsrGraph star(NodeId num_nodes, bool self_loops = true);

/**
 * Zipfian-degree hub graph: endpoint v is drawn with probability
 * proportional to 1 / (v + 1)^exponent, so low-numbered vertices become
 * hubs while the tail stays sparse. Unlike RMAT (whose skew is coupled
 * to the quadrant probabilities) the tail exponent is a direct knob,
 * which is what the kernel-selector fixtures need: a family of graphs
 * whose degree skew varies while |V| and nnz stay fixed.
 *
 * @param num_nodes    vertex count
 * @param target_edges approximate nnz after symmetrisation/dedup
 * @param exponent     Zipf tail exponent (larger = heavier hubs);
 *                     must be > 0
 */
CsrGraph zipf(NodeId num_nodes, EdgeId target_edges, double exponent,
              Rng &rng, bool self_loops = true);

} // namespace maxk

#endif // MAXK_GRAPH_GENERATORS_HH
