#include "sample/extractor.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace maxk::sample
{

namespace
{
/** Rows per parallel chunk of the feature gather. */
constexpr std::size_t kGatherGrain = 128;
} // namespace

MinibatchExtractor::MinibatchExtractor(NodeId capacity, Aggregator agg,
                                       const Matrix &features,
                                       const std::vector<std::uint32_t> &labels,
                                       const Matrix *multi_targets)
    : capacity_(capacity), agg_(agg), features_(features), labels_(labels),
      multiTargets_(multi_targets)
{
    if (capacity_ == 0)
        fatal("MinibatchExtractor: capacity must be >= 1");
    checkInvariant(features_.rows() == labels_.size(),
                   "MinibatchExtractor: feature/label row mismatch");
    if (multiTargets_ != nullptr)
        checkInvariant(multiTargets_->rows() == labels_.size(),
                       "MinibatchExtractor: target row mismatch");
}

void
MinibatchExtractor::extract(const SampleBatch &sb, Minibatch &out)
{
    const std::size_t nl = sb.numNodes();
    checkInvariant(nl >= 1 && nl <= capacity_,
                   "MinibatchExtractor: batch node count out of range");
    checkInvariant(sb.rowPtr.size() == nl + 1,
                   "MinibatchExtractor: malformed batch rowPtr");

    out.epoch = sb.epoch;
    out.batchIndex = sb.batchIndex;
    out.numSeeds = sb.seeds.size();
    out.numNodes = nl;
    out.globalIds = sb.nodes;

    // Padded local CSR: real rows first, then isolated padding rows up
    // to the fixed capacity (rowPtr stays flat at nnz).
    const EdgeId nnz = sb.rowPtr[nl];
    rowPtrStage_.resize(capacity_ + 1);
    std::copy(sb.rowPtr.begin(), sb.rowPtr.end(), rowPtrStage_.begin());
    std::fill(rowPtrStage_.begin() + nl + 1, rowPtrStage_.end(), nnz);
    out.graph.assignCsr(capacity_, rowPtrStage_, sb.colIdx);
    out.graph.setAggregatorWeights(agg_);

    // Per-layer row sets from the hop record; every list is reserved
    // at capacity once, so later batches never grow it.
    checkInvariant(sb.hop.size() == nl,
                   "MinibatchExtractor: batch without a hop record");
    const std::uint32_t layers = sb.hops;
    if (out.rows.size() != layers) {
        out.rows.resize(layers);
        for (nn::LayerRows &r : out.rows) {
            r.compute.reserve(capacity_);
            r.target.reserve(capacity_);
        }
    }
    for (std::uint32_t l = 0; l < layers; ++l) {
        nn::LayerRows &r = out.rows[l];
        r.compute.clear();
        r.target.clear();
        for (std::size_t i = 0; i < nl; ++i) {
            if (sb.hop[i] + l <= layers)
                r.compute.push_back(static_cast<NodeId>(i));
            if (sb.hop[i] + l + 1 <= layers)
                r.target.push_back(static_cast<NodeId>(i));
        }
    }

    // Gather feature rows (disjoint destination rows: thread-layout
    // independent); zero padding rows so their dense contributions are
    // constant across batches.
    const std::size_t dim = features_.cols();
    out.features.ensureShape(capacity_, dim);
    parallelFor(0, capacity_, kGatherGrain,
                [&](std::uint32_t, std::size_t begin, std::size_t end) {
                    for (std::size_t r = begin; r < end; ++r) {
                        Float *dst = out.features.row(r);
                        if (r < nl) {
                            const Float *src = features_.row(sb.nodes[r]);
                            std::copy(src, src + dim, dst);
                        } else {
                            std::fill(dst, dst + dim, Float{0});
                        }
                    }
                });

    out.labels.assign(capacity_, 0);
    for (std::size_t r = 0; r < nl; ++r)
        out.labels[r] = labels_[sb.nodes[r]];

    // Seeds are a sorted subset of the sorted node list: one linear merge
    // marks their local rows.
    out.trainMask.assign(capacity_, 0);
    std::size_t row = 0;
    for (const NodeId s : sb.seeds) {
        while (row < nl && sb.nodes[row] < s)
            ++row;
        checkInvariant(row < nl && sb.nodes[row] == s,
                       "MinibatchExtractor: seed missing from node list");
        out.trainMask[row] = 1;
    }

    if (multiTargets_ != nullptr) {
        const std::size_t classes = multiTargets_->cols();
        out.targets.ensureShape(capacity_, classes);
        parallelFor(
            0, capacity_, kGatherGrain,
            [&](std::uint32_t, std::size_t begin, std::size_t end) {
                for (std::size_t r = begin; r < end; ++r) {
                    Float *dst = out.targets.row(r);
                    if (r < nl) {
                        const Float *src =
                            multiTargets_->row(sb.nodes[r]);
                        std::copy(src, src + classes, dst);
                    } else {
                        std::fill(dst, dst + classes, Float{0});
                    }
                }
            });
    }
}

} // namespace maxk::sample
