#include "nn/metrics.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace maxk::nn
{

double
accuracy(const Matrix &logits, const std::vector<std::uint32_t> &labels,
         const std::vector<std::uint8_t> &mask)
{
    checkInvariant(labels.size() == logits.rows() &&
                       mask.size() == logits.rows(),
                   "accuracy: size mismatch");
    std::size_t correct = 0, total = 0;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        if (!mask[r])
            continue;
        const Float *row = logits.row(r);
        std::size_t best = 0;
        for (std::size_t c = 1; c < logits.cols(); ++c)
            if (row[c] > row[best])
                best = c;
        correct += best == labels[r] ? 1 : 0;
        ++total;
    }
    return total ? static_cast<double>(correct) / total : 0.0;
}

double
microF1(const Matrix &logits, const Matrix &targets,
        const std::vector<std::uint8_t> &mask)
{
    checkInvariant(targets.rows() == logits.rows() &&
                       targets.cols() == logits.cols(),
                   "microF1: shape mismatch");
    std::uint64_t tp = 0, fp = 0, fn = 0;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        if (!mask[r])
            continue;
        const Float *z = logits.row(r);
        const Float *t = targets.row(r);
        for (std::size_t c = 0; c < logits.cols(); ++c) {
            const bool pred = z[c] > 0.0f; // sigmoid(z) > 0.5
            const bool truth = t[c] > 0.5f;
            if (pred && truth)
                ++tp;
            else if (pred)
                ++fp;
            else if (truth)
                ++fn;
        }
    }
    const double denom = 2.0 * tp + fp + fn;
    return denom > 0.0 ? 2.0 * tp / denom : 0.0;
}

double
rocAuc(const Matrix &logits, const Matrix &targets,
       const std::vector<std::uint8_t> &mask)
{
    checkInvariant(targets.rows() == logits.rows() &&
                       targets.cols() == logits.cols(),
                   "rocAuc: shape mismatch");
    struct Entry
    {
        Float score;
        bool positive;
    };
    std::vector<Entry> entries;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        if (!mask[r])
            continue;
        for (std::size_t c = 0; c < logits.cols(); ++c)
            entries.push_back(
                {logits.at(r, c), targets.at(r, c) > 0.5f});
    }
    if (entries.empty())
        return 0.0;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.score < b.score;
              });

    // Rank-sum (Mann-Whitney) with average ranks for ties.
    double pos_rank_sum = 0.0;
    std::uint64_t num_pos = 0, num_neg = 0;
    std::size_t i = 0;
    while (i < entries.size()) {
        std::size_t j = i;
        while (j < entries.size() && entries[j].score == entries[i].score)
            ++j;
        const double avg_rank = 0.5 * (static_cast<double>(i + 1) +
                                       static_cast<double>(j));
        for (std::size_t t = i; t < j; ++t) {
            if (entries[t].positive) {
                pos_rank_sum += avg_rank;
                ++num_pos;
            } else {
                ++num_neg;
            }
        }
        i = j;
    }
    if (num_pos == 0 || num_neg == 0)
        return 0.0;
    const double u = pos_rank_sum -
                     static_cast<double>(num_pos) * (num_pos + 1) / 2.0;
    return u / (static_cast<double>(num_pos) * num_neg);
}

std::pair<double, double>
evalMetrics(const Matrix &logits, const TrainingTask &task,
            const TrainingData &data, const Matrix &multi_targets)
{
    const auto metric = [&](const std::vector<std::uint8_t> &mask) {
        switch (task.metric) {
          case MetricKind::Accuracy:
            return accuracy(logits, data.labels, mask);
          case MetricKind::MicroF1:
            return microF1(logits, multi_targets, mask);
          case MetricKind::RocAuc:
            return rocAuc(logits, multi_targets, mask);
        }
        return 0.0;
    };
    return {metric(data.valMask), metric(data.testMask)};
}

} // namespace maxk::nn
