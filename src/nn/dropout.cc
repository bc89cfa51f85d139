#include "nn/dropout.hh"

#include "common/logging.hh"
#include "tensor/ops.hh"

namespace maxk::nn
{

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
    const Float scale = 1.0f / (1.0f - p_);
    const std::size_t n = x.cols();
    const std::size_t listed = rows.size(x.rows());
    std::size_t next = 0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
        std::uint8_t *m = mask_.data() + r * n;
        for (std::size_t c = 0; c < n; ++c)
            m[c] = rng.bernoulli(p_) ? 0 : 1;
        if (next == listed || rows[next] != r)
            continue;
        ++next;
        const Float *px = x.row(r);
        Float *py = y.row(r);
        for (std::size_t c = 0; c < n; ++c)
            py[c] = m[c] ? px[c] * scale : 0.0f;
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
            pdx[c] = m[c] ? pdy[c] * scale : 0.0f;
    }
}

} // namespace maxk::nn
