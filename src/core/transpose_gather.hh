/**
 * @file
 * Shared gather-form implementations of the scatter-shaped kernels.
 *
 * Every scatter loop in the codebase ("for each source row i, for each
 * edge (i, j): out[j] += v * f(x[i])") is parallelised by rewriting it
 * as a gather over the *stable* transpose of the adjacency matrix:
 * destination row j folds its in-edge contributions in exactly the
 * order the serial scatter applied them (CsrGraph::transposed() is a
 * counting sort over the original edge sweep, so per-destination source
 * order is preserved). Each output row then has a single writer doing a
 * plain left-to-right fp32 fold — bitwise-identical to the serial
 * scatter for ANY thread count, which per-thread partial buffers (which
 * re-associate the sums) could not guarantee.
 *
 * This invariant lives here, in one place, so a change to how the
 * transpose is obtained cannot fix one kernel and silently break
 * another. The transpose itself comes from CsrGraph::transposeCached():
 * built lazily on the first scatter-shaped launch, reused by every
 * subsequent one, and invalidated when edge values mutate.
 */

#ifndef MAXK_CORE_TRANSPOSE_GATHER_HH
#define MAXK_CORE_TRANSPOSE_GATHER_HH

#include <cstdint>

#include "core/cbsr.hh"
#include "graph/csr.hh"
#include "tensor/matrix.hh"
#include "tensor/row_set.hh"

namespace maxk
{

/**
 * out.row(j) += v_e * x.row(i) for every edge (i, j) of `a`, folded in
 * serial edge order. `out` must already be sized (numNodes x x.cols())
 * and hold the initial values (normally zeros).
 *
 * With row sets (tensor/row_set.hh) only the destination rows of
 * `dests` are written, and only edges whose source is in `sources`
 * fold: the serial scatter restricted to those sources, as long as
 * `dests` holds every out-neighbour of every listed source. No other
 * row of x is read.
 *
 * @param threads explicit worker count; 0 = process default
 */
void gatherTransposedDense(const CsrGraph &a, const Matrix &x,
                           Matrix &out, std::uint32_t threads = 0,
                           RowSet sources = {}, RowSet dests = {});

/**
 * dxs.dataRow(j)[kk] += v_e * dxl.row(i)[dxs.indexAt(j, kk)] for every
 * edge (i, j) of `a`, folded in serial edge order — the SSpMM /
 * CBSR-backward accumulation. `dxs` carries the pattern and the initial
 * (normally zeroed) data. Row sets as in gatherTransposedDense.
 */
void gatherTransposedCbsr(const CsrGraph &a, const Matrix &dxl,
                          CbsrMatrix &dxs, std::uint32_t threads = 0,
                          RowSet sources = {}, RowSet dests = {});

} // namespace maxk

#endif // MAXK_CORE_TRANSPOSE_GATHER_HH
