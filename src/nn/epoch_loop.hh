/**
 * @file
 * The epoch loop all three training engines run on (nn::Trainer,
 * sample::SampledTrainer, dist::ShardedTrainer).
 *
 * Every engine trains the paper's end-to-end epoch (Fig. 9) in the same
 * frame, and EpochLoop owns that frame: the evaluation cadence,
 * best-val and test-at-best-val bookkeeping, checkpoint resume and
 * rotated saves, the per-epoch fault site, telemetry arming and the
 * per-epoch counter-delta logs, the steady-state allocation window and
 * hostSeconds. An engine implements EpochSteps and keeps only its own
 * steps: train one epoch, evaluate, and read or write its extra
 * checkpoint sections.
 *
 * Resume policy, the same for every engine: the newest checksum-valid
 * image is checked in full (trajectories, model state shapes, the
 * engine's sections) before anything is restored. An image that fails
 * any check is rejected with a warning and the run starts fresh, with
 * none of the image applied.
 *
 * A multi-rank engine runs EpochLoop::run on every rank thread, each
 * with the rank's own model, optimizer and steps. Rank 0 alone writes
 * the result and the store; the ranks agree on everything else through
 * the collectives EpochSteps::barrier and EpochSteps::allAgree
 * provide.
 */

#ifndef MAXK_NN_EPOCH_LOOP_HH
#define MAXK_NN_EPOCH_LOOP_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/stopwatch.hh"
#include "common/trace.hh"
#include "graph/formats/checkpoint.hh"

namespace maxk::nn
{

class Adam;
class GnnModel;

/** Training hyper-parameters shared by the engines (Table 3 analogue). */
struct TrainConfig
{
    std::uint32_t epochs = 100;
    Float lr = 0.01f;
    std::uint32_t evalEvery = 1;  //!< metric sampling cadence (0 is
                                  //!< clamped to 1: eval every epoch)
    std::uint64_t seed = 7;       //!< unread (ModelConfig::seed seeds
                                  //!< the weights and dropout)
    bool verbose = false;         //!< log one line per eval point

    /**
     * Checkpoint/restore. When checkpointDir is non-empty the loop
     * writes a rotated end-of-epoch checkpoint every checkpointEvery
     * epochs (keeping checkpointKeep images) and, on the next run(),
     * resumes from the newest verifiable image — with
     * bitwise-identical final state to the uninterrupted run.
     */
    std::string checkpointDir;
    std::uint32_t checkpointEvery = 1;
    std::uint32_t checkpointKeep = 2;

    /** Optional fault injector (the engine's epoch site and
     *  "checkpoint.write"). Not owned. */
    FaultInjector *faults = nullptr;

    /**
     * Arm the telemetry subsystem for the duration of the run and log
     * a TelemetryReport counter-delta summary per epoch. Observation
     * only: the trained state is bitwise-identical with the knob on or
     * off (pinned by tests/test_telemetry.cc).
     */
    bool telemetry = false;
};

/** Outcome of a training run. */
struct TrainResult
{
    std::vector<double> trainLoss;    //!< one per epoch
    std::vector<double> valMetric;    //!< one per eval point
    std::vector<double> testMetric;   //!< one per eval point
    std::vector<std::uint32_t> evalEpochs;

    double bestValMetric = 0.0;
    double testAtBestVal = 0.0;   //!< Table 5's reported number
    double finalTestMetric = 0.0;
    double hostSeconds = 0.0;     //!< wall clock of the whole run

    /** Matrix/CbsrMatrix heap allocations, all ranks, from the third
     *  epoch of the run on (0 once every workspace is warm). */
    std::uint64_t steadyStateAllocCount = 0;
};

/**
 * One engine's steps inside EpochLoop. trainEpoch and evaluate are
 * required; the other hooks default to what a single-rank engine with
 * no checkpoint sections of its own needs.
 */
struct EpochSteps
{
    using Check = Expected<std::monostate, IoError>;

    /** Train one epoch; returns its mean training loss. */
    std::function<double(std::uint32_t epoch)> trainEpoch;

    /** (val, test) metrics of the current parameters. Only rank 0's
     *  pair is recorded. */
    std::function<std::pair<double, double>(std::uint32_t epoch)> evaluate;

    /** Check the engine's own sections of a resume image; changes
     *  nothing. */
    std::function<Check(const formats::Checkpoint &)> checkSections =
        [](const formats::Checkpoint &) -> Check { return std::monostate{}; };

    /** Restore the engine's sections, once every check on every rank
     *  passed. */
    std::function<void(const formats::Checkpoint &)> readSections =
        [](const formats::Checkpoint &) {};

    /** Add the engine's sections to the image being saved. Every rank
     *  calls it (a gather is collective); the image is null except on
     *  rank 0. */
    std::function<void(formats::Checkpoint *)> writeSections =
        [](formats::Checkpoint *) {};

    /** Multi-rank engines: wait for every rank. */
    std::function<void()> barrier = [] {};

    /** Multi-rank engines: true on every rank iff `ok` on every rank. */
    std::function<bool(bool ok)> allAgree = [](bool ok) { return ok; };
};

/** What an engine is called in the loop's logs, store, fault plan and
 *  trace. */
struct EngineNames
{
    const char *engine;              //!< log prefix, e.g. "Trainer"
    const char *store;               //!< checkpoint store basename
    const char *faultSite;           //!< per-epoch fault hook site
    const telemetry::Phase &span;    //!< per-epoch trace span
};

/** The shared epoch loop; see the file comment. */
class EpochLoop
{
  public:
    /**
     * Starts the run clock, arms telemetry, opens the engine's store
     * and loads its newest verifiable image. Construct on the thread
     * that owns the run, before any rank thread starts; `cfg` must
     * outlive the loop.
     */
    EpochLoop(const TrainConfig &cfg, const EngineNames &names);

    /**
     * Resume, then train cfg.epochs epochs on the calling thread. Rank
     * 0 fills `result`; other ranks only take part in the collectives.
     * `span_detail` tags each epoch span.
     */
    void run(const EpochSteps &steps, GnnModel &model, Adam &adam,
             TrainResult &result, std::uint32_t rank = 0,
             std::string_view span_detail = {});

  private:
    /** Restore from the loaded image if every check on every rank
     *  passes; returns the epoch to start at. */
    std::uint32_t resume(const EpochSteps &steps, GnnModel &model,
                         Adam &adam, TrainResult &result, bool leader);

    const TrainConfig &cfg_;
    EngineNames names_;
    std::uint32_t evalEvery_;
    std::uint32_t checkpointEvery_;
    Stopwatch watch_;
    std::optional<telemetry::ArmGuard> arm_;
    std::optional<formats::CheckpointStore> store_;
    std::optional<formats::Checkpoint> image_;  //!< until restored
    std::uint64_t imageEpoch_ = 0;
    formats::Checkpoint saveImage_;  //!< section buffers reused
};

} // namespace maxk::nn

#endif // MAXK_NN_EPOCH_LOOP_HH
