/**
 * @file
 * The rows a row-wise kernel reads and writes.
 *
 * Every row-wise kernel of the layer stack (the Linear GEMMs, the bias
 * and element-wise adds, ReLU, MaxK selection, the aggregations) takes
 * an optional RowSet. The default is every row: the full-batch call.
 * Otherwise it is a list of distinct row ids in ascending order, and the
 * kernel writes only those rows of its output and reads only those rows
 * of its row-aligned inputs (an aggregation still reads the neighbour
 * rows its graph names). Each listed row gets exactly the arithmetic
 * the full-batch call gives it, in the same order, so its result is
 * bitwise the full-batch result; every other output row keeps its
 * previous contents.
 */

#ifndef MAXK_TENSOR_ROW_SET_HH
#define MAXK_TENSOR_ROW_SET_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace maxk
{

/** Every row, or a non-owning view of an ascending row-id list. */
class RowSet
{
  public:
    /** Every row of the operand. */
    RowSet() = default;

    /** The listed rows; the list must outlive the set. Implicit, so a
     *  row list passes wherever a RowSet is taken. */
    RowSet(const std::vector<NodeId> &ids)
        : ids_(ids.data()), count_(ids.size()), all_(false)
    {
    }
    RowSet(const std::vector<NodeId> &&) = delete; // would dangle

    bool all() const { return all_; }

    /** Rows touched in an operand of n rows. */
    std::size_t size(std::size_t n) const { return all_ ? n : count_; }

    /** The i-th touched row. */
    std::size_t operator[](std::size_t i) const
    {
        return all_ ? i : ids_[i];
    }

    /** Whether row r is in the set (a binary search of the list). */
    bool contains(std::size_t r) const
    {
        return all_ || std::binary_search(ids_, ids_ + count_,
                                          static_cast<NodeId>(r));
    }

  private:
    const NodeId *ids_ = nullptr;
    std::size_t count_ = 0;
    bool all_ = true;
};

} // namespace maxk

#endif // MAXK_TENSOR_ROW_SET_HH
