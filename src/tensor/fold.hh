/**
 * @file
 * The register-panel fold every Linear GEMM runs on (tensor/ops.hh and
 * core/linear_backward_cbsr.hh).
 *
 * A FoldBlock holds up to kRows C rows and, for each, a list of up to
 * kTerms terms: a scalar and a pointer to a contiguous B row. fold(n)
 * adds every term's scalar * B row to its C row, one register panel of
 * columns at a time, so the panel's accumulators stay in registers for
 * the whole list. Per element it is the textbook loop: one multiply and
 * one add per term, in list order, starting from the value C held.
 *
 * A kernel that skips zero terms does it while filling the list: add()
 * with SkipZero writes every term but advances the row's count only for
 * a nonzero scalar, so the next term overwrites a zero one. That is a
 * compaction, not a data-dependent branch, and the fold never sees the
 * skipped terms.
 */

#ifndef MAXK_TENSOR_FOLD_HH
#define MAXK_TENSOR_FOLD_HH

#include <cstddef>

#include "common/types.hh"

namespace maxk
{

/** C rows and the (scalar, B row) terms each one folds. */
struct FoldBlock
{
    /** C rows per block: their lists and a B panel stay in L1. */
    static constexpr std::size_t kRows = 16;
    /** Terms per list; a longer fold runs as several lists in order. */
    static constexpr std::size_t kTerms = 128;

    std::size_t rows = 0;             //!< C rows in use
    Float *c[kRows];                  //!< the C rows
    std::size_t count[kRows] = {};    //!< live terms per row
    Float value[kRows][kTerms];       //!< term scalars
    const Float *b[kRows][kTerms];    //!< term B rows

    /**
     * Append the term s * brow to row r's list. With SkipZero a ±0 s
     * is written but not counted: adding its product could turn a -0
     * element into +0 or fold 0 * inf = NaN. At most kTerms calls per
     * row between folds.
     */
    template <bool SkipZero>
    void
    add(std::size_t r, Float s, const Float *brow)
    {
        const std::size_t at = count[r];
        value[r][at] = s;
        b[r][at] = brow;
        count[r] = at + (SkipZero ? static_cast<std::size_t>(s != 0.0f) : 1);
    }

    /**
     * c[r][j] += value[r][t] * b[r][t][j] for every row r, j < n and
     * listed term t ascending; then empty every list.
     */
    void fold(std::size_t n);
};

} // namespace maxk

#endif // MAXK_TENSOR_FOLD_HH
