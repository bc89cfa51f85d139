/**
 * @file
 * Evaluation metrics matching Table 5's columns: accuracy (Reddit,
 * products, Flickr), micro-F1 (Yelp), and ROC-AUC (ogbn-proteins).
 */

#ifndef MAXK_NN_METRICS_HH
#define MAXK_NN_METRICS_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/registry.hh"
#include "tensor/matrix.hh"

namespace maxk::nn
{

/** Fraction of masked nodes whose argmax logit equals the label. */
double accuracy(const Matrix &logits,
                const std::vector<std::uint32_t> &labels,
                const std::vector<std::uint8_t> &mask);

/**
 * Micro-averaged F1 over masked nodes with per-class threshold 0 on the
 * logits (i.e. sigmoid > 0.5).
 */
double microF1(const Matrix &logits, const Matrix &targets,
               const std::vector<std::uint8_t> &mask);

/**
 * Micro ROC-AUC over all (masked node, class) pairs via the rank
 * statistic; ties share average rank.
 */
double rocAuc(const Matrix &logits, const Matrix &targets,
              const std::vector<std::uint8_t> &mask);

/**
 * (val, test) values of the task's headline metric over full-graph
 * `logits`: the evaluation every training engine reports.
 * `multi_targets` holds multiLabelTargets(data.labels) when
 * task.multiLabel.
 */
std::pair<double, double> evalMetrics(const Matrix &logits,
                                      const TrainingTask &task,
                                      const TrainingData &data,
                                      const Matrix &multi_targets);

} // namespace maxk::nn

#endif // MAXK_NN_METRICS_HH
