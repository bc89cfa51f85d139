#include "core/maxk.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "gpusim/context.hh"

namespace maxk
{

namespace
{

/** Rows per chunk for the row-parallel loops: small enough that the
 *  unit-test graphs (128 rows) still fan out across 8 workers. */
constexpr std::size_t kRowGrain = 16;

/**
 * The cut one pivot search finds in a row: which entries survive. One
 * ascending sweep (forEachSurvivor) applies it, so a caller writes the k
 * survivors straight into their destination with no scratch list.
 */
struct PivotCut
{
    Float threshold = 0.0f;      //!< finite entries above it survive
    Float floor = 0.0f;          //!< tie region (floor, threshold] ...
    std::uint32_t ties = 0;      //!< ... of which the first `ties` survive
    std::uint32_t posInf = 0;    //!< the first posInf +inf entries survive
    std::uint32_t negInf = 0;    //!< the first negInf -inf entries survive
    std::uint32_t nan = 0;       //!< the first nan NaN entries survive
    std::uint32_t iterations = 0; //!< bisection iterations used
};

/**
 * Bisect the pivot of the top `want` counted entries, whose min and max
 * are lo and hi. FiniteOnly counts finite entries only (the non-finite
 * ordering below); without it every entry counts, which is the same
 * count on an all-finite row.
 */
template <bool FiniteOnly>
void
bisectCut(const Float *row, std::uint32_t n, std::uint32_t want, Float lo,
          Float hi, PivotCut &cut)
{
    auto count_above = [&](Float pivot) {
        std::uint32_t c = 0;
        for (std::uint32_t i = 0; i < n; ++i)
            c += ((!FiniteOnly || std::isfinite(row[i])) && row[i] > pivot)
                     ? 1
                     : 0;
        return c;
    };

    // Bisection invariant: count(> flo) >= want >= count(> fhi).
    // flo starts just below min (count = all >= want); fhi at max
    // (count = 0).
    Float flo = std::nextafter(lo, -std::numeric_limits<Float>::infinity());
    Float fhi = hi;
    bool exact = false;
    Float threshold = fhi;
    for (std::uint32_t it = 0; it < 48; ++it) {
        const Float mid = 0.5f * (flo + fhi);
        if (!(mid > flo) || !(mid < fhi))
            break; // float precision exhausted: tie region reached
        ++cut.iterations;
        const std::uint32_t c = count_above(mid);
        if (c == want) {
            threshold = mid;
            exact = true;
            break;
        }
        if (c > want)
            flo = mid;
        else
            fhi = mid;
    }
    if (!exact)
        threshold = fhi;

    // All strictly-above survivors first (<= want of them by the
    // invariant), then the remaining slots go to tie values in
    // (flo, threshold] in ascending column order — deterministic tie
    // breaking.
    cut.threshold = threshold;
    cut.floor = flo;
    cut.ties = want - count_above(threshold);
}

/**
 * Find the top-k cut of row[0..n). A row holding NaN/±inf breaks the
 * bisection invariant, so it takes an explicit ordering: +inf always
 * wins, finite values rank by magnitude (bisection over the finite
 * entries), -inf ranks below every finite value, and NaN sorts last —
 * it is selected only when k exceeds the count of all non-NaN entries.
 * Ties resolve in ascending column order throughout.
 */
PivotCut
pivotCut(const Float *row, std::uint32_t n, std::uint32_t k)
{
    checkInvariant(k >= 1 && k <= n, "pivotSelect: need 1 <= k <= n");
    constexpr Float kInf = std::numeric_limits<Float>::infinity();
    PivotCut cut;
    if (k == n) {
        cut.threshold = -kInf;
        cut.posInf = cut.negInf = cut.nan = n;
        return cut;
    }

    // One classification sweep replaces the plain min/max scan: lo/hi
    // cover only finite entries, and the non-finite counts route rows
    // containing NaN/±inf to the explicit ordering.
    std::uint32_t n_pos_inf = 0, n_neg_inf = 0, n_nan = 0;
    bool any_finite = false;
    Float lo = 0.0f, hi = 0.0f;
    for (std::uint32_t i = 0; i < n; ++i) {
        const Float v = row[i];
        if (std::isfinite(v)) {
            if (!any_finite) {
                lo = hi = v;
                any_finite = true;
            } else {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
        } else if (std::isnan(v)) {
            ++n_nan;
        } else if (v > 0.0f) {
            ++n_pos_inf;
        } else {
            ++n_neg_inf;
        }
    }
    const std::uint32_t n_fin = n - n_pos_inf - n_neg_inf - n_nan;
    if (n_fin == n) {
        bisectCut<false>(row, n, k, lo, hi, cut);
        return cut;
    }

    std::uint32_t remaining = k;
    cut.posInf = std::min(remaining, n_pos_inf);
    remaining -= cut.posInf;
    if (remaining >= n_fin) {
        cut.threshold = -kInf; // every finite entry
        remaining -= n_fin;
    } else if (remaining > 0) {
        bisectCut<true>(row, n, remaining, lo, hi, cut);
        remaining = 0;
    } else {
        cut.threshold = kInf; // no finite entry
    }
    cut.negInf = std::min(remaining, n_neg_inf);
    remaining -= cut.negInf;
    cut.nan = std::min(remaining, n_nan);
    return cut;
}

/** Call take(i) for every surviving column i of the cut, ascending. */
template <class Take>
void
forEachSurvivor(const Float *row, std::uint32_t n, PivotCut cut,
                Take &&take)
{
    for (std::uint32_t i = 0; i < n; ++i) {
        const Float v = row[i];
        std::uint32_t *budget;
        if (std::isfinite(v)) {
            if (v > cut.threshold) {
                take(i);
                continue;
            }
            if (!(v > cut.floor))
                continue;
            budget = &cut.ties;
        } else if (std::isnan(v)) {
            budget = &cut.nan;
        } else {
            budget = v > 0.0f ? &cut.posInf : &cut.negInf;
        }
        if (*budget > 0) {
            --*budget;
            take(i);
        }
    }
}

} // namespace

std::uint32_t
pivotSelect(const Float *row, std::uint32_t n, std::uint32_t k,
            std::vector<std::uint32_t> &selected)
{
    selected.clear();
    const PivotCut cut = pivotCut(row, n, k);
    forEachSurvivor(row, n, cut,
                    [&](std::uint32_t i) { selected.push_back(i); });
    checkInvariant(selected.size() == k,
                   "pivotSelect: did not select exactly k elements");
    return cut.iterations;
}

std::uint32_t
maxkSelectRow(const Float *row, std::uint32_t dim, std::uint32_t k,
              CbsrMatrix &out, NodeId r)
{
    const PivotCut cut = pivotCut(row, dim, k);
    Float *data = out.dataRow(r);
    std::uint32_t kk = 0;
    forEachSurvivor(row, dim, cut, [&](std::uint32_t i) {
        data[kk] = row[i];
        out.setIndex(r, kk, i);
        ++kk;
    });
    return cut.iterations;
}

MaxKResult
maxkCompress(const Matrix &x, std::uint32_t k, const SimOptions &opt)
{
    MaxKResult result;
    maxkCompress(x, k, opt, result);
    return result;
}

void
maxkCompress(const Matrix &x, std::uint32_t k, const SimOptions &opt,
             MaxKResult &result)
{
    checkInvariant(k >= 1 && k <= x.cols(),
                   "maxkCompress: need 1 <= k <= dimOrigin");
    const NodeId n = static_cast<NodeId>(x.rows());
    const std::uint32_t dim = static_cast<std::uint32_t>(x.cols());

    result.cbsr.ensureShape(n, k, dim);
    result.maxPivotIterations = 0;
    result.avgPivotIterations = 0.0;

    gpusim::KernelContext ctx(opt.device, "maxk_select",
                              opt.simulateCaches);
    ctx.beginPhase("select+compress");

    const auto chunks =
        splitRange(0, n, kRowGrain, resolveThreads(opt.threads));
    std::vector<std::uint64_t> chunk_iters(chunks.size(), 0);
    std::vector<std::uint32_t> chunk_max(chunks.size(), 0);

    gpusim::runSharded(ctx, chunks, [&](auto &dev, std::uint32_t tid,
                                        IndexRange rows) {
        std::uint64_t total_iters = 0;
        std::uint32_t max_iters = 0;
        for (std::size_t r = rows.begin; r < rows.end; ++r) {
            const std::uint64_t warp = r; // one warp per row, id == row
            const Float *row = x.row(r);
            // Buffer the row in shared memory (coalesced read), then run
            // the pivot search entirely on-chip.
            dev.globalRead(warp, row, dim * sizeof(Float));
            dev.sharedOps(dim, dim * sizeof(Float));

            const std::uint32_t iters = maxkSelectRow(
                row, dim, k, result.cbsr, static_cast<NodeId>(r));
            total_iters += iters;
            max_iters = std::max(max_iters, iters);
            // Each bisection pass re-scans the buffered row on-chip.
            // These are warp-wide vectorised shared loads (all 32 lanes
            // count in parallel), which retire ~20x faster than the
            // scalar scatter/atomic ops the sharedOps counter is
            // calibrated for.
            dev.sharedOps(std::uint64_t(iters + 1) * dim / 20, 0);
            dev.flops(std::uint64_t(iters + 1) * dim);

            const Float *data =
                result.cbsr.dataRow(static_cast<NodeId>(r));
            dev.globalWrite(warp, data, result.cbsr.dataRowBytes());
            dev.globalWrite(warp,
                            result.cbsr.indexRowAddr(
                                static_cast<NodeId>(r)),
                            result.cbsr.indexRowBytes());
        }
        chunk_iters[tid] = total_iters;
        chunk_max[tid] = max_iters;
    });

    std::uint64_t total_iters = 0;
    for (std::size_t t = 0; t < chunks.size(); ++t) {
        total_iters += chunk_iters[t];
        result.maxPivotIterations =
            std::max(result.maxPivotIterations, chunk_max[t]);
    }
    result.avgPivotIterations =
        n ? static_cast<double>(total_iters) / n : 0.0;
    result.stats = ctx.finish(opt.efficiency);
}

void
maxkDense(const Matrix &x, std::uint32_t k, Matrix &out)
{
    out.ensureShape(x.rows(), x.cols());
    out.setZero();
    parallelFor(0, x.rows(), kRowGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    const auto dim = static_cast<std::uint32_t>(x.cols());
                    for (std::size_t r = begin; r < end; ++r) {
                        const Float *row = x.row(r);
                        forEachSurvivor(row, dim, pivotCut(row, dim, k),
                                        [&](std::uint32_t idx) {
                                            out.at(r, idx) = row[idx];
                                        });
                    }
                });
}

void
maxkBackwardDense(const Matrix &forward_input, std::uint32_t k,
                  const Matrix &grad_out, Matrix &grad_in)
{
    checkInvariant(forward_input.rows() == grad_out.rows() &&
                       forward_input.cols() == grad_out.cols(),
                   "maxkBackwardDense: shape mismatch");
    grad_in.ensureShape(grad_out.rows(), grad_out.cols());
    grad_in.setZero();
    parallelFor(
        0, forward_input.rows(), kRowGrain,
        [&](std::uint32_t, std::size_t begin, std::size_t end) {
            const auto dim =
                static_cast<std::uint32_t>(forward_input.cols());
            for (std::size_t r = begin; r < end; ++r) {
                const Float *row = forward_input.row(r);
                forEachSurvivor(row, dim, pivotCut(row, dim, k),
                                [&](std::uint32_t idx) {
                                    grad_in.at(r, idx) = grad_out.at(r, idx);
                                });
            }
        });
}

} // namespace maxk
