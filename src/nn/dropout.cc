#include "nn/dropout.hh"

#include <cstring>

#include "common/logging.hh"
#include "tensor/ops.hh"

namespace maxk::nn
{

namespace
{

/** v where keep is 1, +0 where it is 0: a bit-and, not a branch. */
inline Float
keepOrZero(std::uint8_t keep, Float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits &= 0u - keep;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

} // namespace

void
Dropout::forward(const Matrix &x, Matrix &y, bool training, Rng &rng,
                 RowSet rows)
{
    y.ensureShape(x.rows(), x.cols());
    lastTraining_ = training && p_ > 0.0f;
    if (!lastTraining_) {
        copyRows(x, y, rows);
        return;
    }
    mask_.resize(x.size());
    rng.keepMask(p_, mask_.data(), mask_.size());
    const Float scale = 1.0f / (1.0f - p_);
    const std::size_t n = x.cols();
    for (std::size_t i = 0; i < rows.size(x.rows()); ++i) {
        const std::size_t r = rows[i];
        const std::uint8_t *m = mask_.data() + r * n;
        const Float *px = x.row(r);
        Float *py = y.row(r);
        for (std::size_t c = 0; c < n; ++c)
            py[c] = keepOrZero(m[c], px[c] * scale);
    }
}

void
Dropout::backward(const Matrix &dy, Matrix &dx, RowSet rows) const
{
    dx.ensureShape(dy.rows(), dy.cols());
    if (!lastTraining_) {
        copyRows(dy, dx, rows);
        return;
    }
    checkInvariant(mask_.size() == dy.size(),
                   "Dropout::backward: no matching forward mask");
    const Float scale = 1.0f / (1.0f - p_);
    const std::size_t n = dy.cols();
    for (std::size_t i = 0; i < rows.size(dy.rows()); ++i) {
        const std::size_t r = rows[i];
        const std::uint8_t *m = mask_.data() + r * n;
        const Float *pdy = dy.row(r);
        Float *pdx = dx.row(r);
        for (std::size_t c = 0; c < n; ++c)
            pdx[c] = keepOrZero(m[c], pdy[c] * scale);
    }
}

} // namespace maxk::nn
