/**
 * @file
 * The four workloads, one per execution engine, and the pieces they
 * share: twin tasks, repeated set-up, and the phase-split training
 * step the traced runs drive through GnnLayer's public phase calls.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/registry.hh"
#include "harness.hh"
#include "nn/model.hh"
#include "nn/optimizer.hh"
#include "nn/trainer.hh"

namespace hostbench
{

void runFullRedditMaxk(const RunOptions &opt, Report &rep);
void runSampledFlickrRelu(const RunOptions &opt, Report &rep);
void runServeFlickrMaxk(const RunOptions &opt, Report &rep);
void runSharded2RedditRelu(const RunOptions &opt, Report &rep);

/** Reddit training task with its community twin enlarged to 4,096
 *  nodes at average degree 100 (tiny: 256 nodes, degree 12). */
maxk::TrainingTask redditTask(bool tiny);

/** Flickr training task twin at 8,192 nodes and Flickr's own average
 *  degree (tiny: 512 nodes). */
maxk::TrainingTask flickrTask(bool tiny);

/** Number of from-scratch set-ups whose median is setup_s. */
std::uint32_t setupRepeats(const RunOptions &opt);

/** `per_second` units for every second of --seconds, at least `floor`:
 *  the timed range is fixed by the arguments, never by a clock. */
std::uint32_t unitsFor(const RunOptions &opt, double per_second,
                       std::uint32_t floor);

/** Where engines keep their checkpoints during a run (created empty). */
std::string checkpointDir(const RunOptions &opt, const std::string &tag);

/**
 * Build a workload state `repeats` times from scratch (each build
 * frees the previous one first) and return the last; the median wall
 * seconds go to `median_seconds`. With a tracer, each build is one
 * "setup" unit span.
 */
template <class State, class Build>
std::unique_ptr<State>
setupRepeated(std::uint32_t repeats, Tracer *tracer, Build build,
              double &median_seconds)
{
    const std::uint32_t span =
        tracer ? tracer->intern("setup") : 0;
    std::vector<double> secs;
    std::unique_ptr<State> state;
    for (std::uint32_t i = 0; i < repeats; ++i) {
        state.reset();
        const Clock::time_point t0 = Clock::now();
        {
            Scope s(tracer, 0, span, i);
            state = build(i);
        }
        secs.push_back(secondsSince(t0));
    }
    printSamples("setup s", secs);
    median_seconds = median(secs);
    return state;
}

/** Epochs every training workload trains before its timed range. */
inline constexpr std::uint32_t kWarmupEpochs = 2;

/** checkpointEvery that leaves only the last epoch of a run() saving. */
inline constexpr std::uint32_t kNoIntermediateCheckpoints = 1u << 30;

/** Replace directory `to` by a copy of `from`. */
void copyDir(const std::string &from, const std::string &to);

/**
 * Drive a checkpoint-resuming engine through its public run():
 * `run(end)` trains until epoch `end`, resuming from the engine's own
 * checkpoint in `ckpt_dir` (bitwise as one uninterrupted run would).
 * Trains the warm-up epochs, sets their checkpoint aside, calls
 * `after_warmup` (the traced runs replay the timed epochs there, from
 * the same weights), then `calls` times restores that checkpoint and
 * times one call that trains the next epoch. Every call so repeats the
 * same epoch from the same state: the samples differ only by what the
 * host did, never by how far training went (epoch time drifts up as
 * gradients turn subnormal). Returns each call's ms. Adds the epochs to
 * rep.attempted; a thrown error fails every epoch not finished.
 */
template <class Run, class AfterWarmup>
std::vector<double>
runRepeated(std::uint32_t calls, const std::string &ckpt_dir, Report &rep,
            Run &&run, AfterWarmup &&after_warmup)
{
    const std::uint32_t total = kWarmupEpochs + calls;
    const std::string saved = ckpt_dir + ".warm";
    rep.attempted += total;
    std::vector<double> ms;
    std::uint32_t done = 0;
    try {
        run(kWarmupEpochs);
        done = kWarmupEpochs;
        copyDir(ckpt_dir, saved);
        after_warmup();
        for (std::uint32_t c = 0; c < calls; ++c) {
            copyDir(saved, ckpt_dir);
            const Clock::time_point t0 = Clock::now();
            run(kWarmupEpochs + 1);
            ms.push_back(secondsSince(t0) * 1e3);
            ++done;
        }
    } catch (const std::exception &e) {
        rep.failed += total - done;
        rep.check(false, std::string("engine threw: ") + e.what());
    }
    printSamples("epoch ms per call", ms);
    return ms;
}

/** Time one call as a span named `name` of unit `unit` (lane 0). */
template <class Fn>
auto
timedCall(Tracer *tracer, const char *name, std::uint32_t unit, Fn &&fn)
{
    Scope s(tracer, 0, tracer ? tracer->intern(name) : 0, unit);
    return fn();
}

/** Interned span names of the phase-split training step. */
struct NnSpans
{
    NnSpans(Tracer &t, std::uint32_t layers);

    std::vector<std::uint32_t> fwdCompute, fwdCombine, bwdAgg, bwdPost;
    std::uint32_t loss, adam, eval;
};

/** Summary groups of the nn layer: the four phases summed over layers,
 *  each per-layer phase, and loss / adam / eval. */
std::vector<std::pair<std::string, std::vector<std::string>>>
nnGroups(std::uint32_t layers);

/**
 * Single-device training step, phase by phase, with one span per
 * GnnLayer phase call. Executes the same calls in the same order as
 * GnnModel::forward / backward.
 */
class TracedStep
{
  public:
    TracedStep(maxk::nn::GnnModel &model, Tracer &tracer);

    const maxk::Matrix &forward(const maxk::CsrGraph &a,
                                const maxk::Matrix &x, bool training,
                                std::uint32_t unit);
    void backward(const maxk::CsrGraph &a, const maxk::Matrix &grad,
                  std::uint32_t unit);

    /** forward + masked cross-entropy + backward + Adam; returns the
     *  batch-mean loss. */
    double train(const maxk::CsrGraph &a, const maxk::Matrix &x,
                 const std::vector<std::uint32_t> &labels,
                 const std::vector<std::uint8_t> &mask, maxk::nn::Adam &adam,
                 std::uint32_t unit);

    const NnSpans &spans() const { return spans_; }

  private:
    maxk::nn::GnnModel &model_;
    Tracer &tracer_;
    NnSpans spans_;
    std::vector<maxk::Matrix> acts_;
    maxk::Matrix gradCur_, gradPrev_, grad_, probs_;
};

/** Median wall ms of `reps` calls of fn, each recorded as a span of
 *  unit = rep index. */
template <class Fn>
double
probeMs(Tracer &tracer, const char *name, std::uint32_t reps, Fn &&fn)
{
    const std::uint32_t id = tracer.intern(name);
    std::vector<double> ms;
    for (std::uint32_t r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        {
            Scope s(&tracer, 0, id, r);
            fn();
        }
        ms.push_back(secondsSince(t0) * 1e3);
    }
    return median(ms);
}

/** The training output check: every loss finite (each non-finite
 *  one is a failed epoch) and, if asked, the last below the first. */
void checkLosses(Report &rep, const std::vector<double> &losses,
                 bool require_decrease);

/** gpusim.* Fig. 1 buckets and gpusim.epoch_ms, in simulated ms. */
void setGpusimBuckets(Report &rep, const maxk::nn::EpochTiming &t);

/** The summary's groups plus trace.unit_ms, trace.coverage and
 *  trace.traced_over_untraced (traced ÷ untraced unit time). */
void setTraceMetrics(Report &rep, const TraceSummary &sum,
                     double traced_unit_ms, double untraced_unit_ms);

/** Write the trace to <out-dir>/trace-<workload>-<seed>.json. */
void writeTrace(const Tracer &t, const RunOptions &opt, Report &rep);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
