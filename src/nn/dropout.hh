/**
 * @file
 * Inverted dropout. Table 3 trains every dataset with dropout between
 * 0.1 and 0.5; the mask is drawn from the project Rng so runs are
 * reproducible.
 */

#ifndef MAXK_NN_DROPOUT_HH
#define MAXK_NN_DROPOUT_HH

#include <vector>

#include "common/rng.hh"
#include "tensor/matrix.hh"
#include "tensor/row_set.hh"

namespace maxk::nn
{

/** Inverted dropout layer (scales survivors by 1/(1-p) at train time). */
class Dropout
{
  public:
    explicit Dropout(Float p = 0.0f) : p_(p) {}

    Float rate() const { return p_; }

    /**
     * Forward on the rows of `rows` (every row by default): only those
     * rows of y are written and only those rows of x are read. In
     * training mode draws a fresh mask over EVERY element, listed or
     * not, in row-major order, so the stream and each row's mask are
     * those of the all-rows call whatever rows are listed; in eval mode
     * the listed rows pass through untouched.
     */
    void forward(const Matrix &x, Matrix &y, bool training, Rng &rng,
                 RowSet rows = {});

    /** Backward through the last forward's mask, on the rows of `rows`. */
    void backward(const Matrix &dy, Matrix &dx, RowSet rows = {}) const;

  private:
    Float p_;
    std::vector<std::uint8_t> mask_;  //!< 1 = kept
    bool lastTraining_ = false;
};

} // namespace maxk::nn

#endif // MAXK_NN_DROPOUT_HH
