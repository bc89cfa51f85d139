#include "nn/epoch_loop.hh"

#include <algorithm>

#include "common/logging.hh"
#include "nn/checkpoint.hh"
#include "tensor/alloc_probe.hh"

namespace maxk::nn
{

EpochLoop::EpochLoop(const TrainConfig &cfg, const EngineNames &names)
    : cfg_(cfg), names_(names),
      // evalEvery == 0 would divide by zero in the cadence check; treat
      // it as "evaluate every epoch" rather than aborting a long run on
      // a config slip.
      evalEvery_(std::max<std::uint32_t>(cfg.evalEvery, 1)),
      checkpointEvery_(std::max<std::uint32_t>(cfg.checkpointEvery, 1))
{
    if (cfg.evalEvery == 0)
        logMessage(LogLevel::Warn,
                   std::string(names_.engine) +
                       ": evalEvery=0 clamped to 1 (every epoch)");
    // Observation only: arming telemetry must not perturb training
    // (numerics never read telemetry state; bitwise equality pinned in
    // tests/test_telemetry.cc). Rank threads read the flag set here.
    if (cfg.telemetry)
        arm_.emplace(true);
    if (cfg.checkpointDir.empty())
        return;
    store_.emplace(cfg.checkpointDir, names_.store, cfg.checkpointKeep);
    if (store_->epochsOnDisk().empty())
        return;
    auto loaded = store_->loadLatest();
    if (!loaded) {
        logMessage(LogLevel::Warn,
                   std::string(names_.engine) +
                       ": no usable checkpoint, starting fresh: " +
                       loaded.error().describe());
        return;
    }
    image_ = std::move(loaded.value().checkpoint);
    imageEpoch_ = loaded.value().epoch;
}

std::uint32_t
EpochLoop::resume(const EpochSteps &steps, GnnModel &model, Adam &adam,
                  TrainResult &result, bool leader)
{
    if (!image_)
        return 0;
    // Check everything before restoring anything: a rejected image
    // must leave no weights, moments or RNG position behind.
    TrainResult trajectories;
    EpochSteps::Check ok = readTrajectories(*image_, trajectories);
    if (ok)
        ok = checkModelState(*image_, model);
    if (ok)
        ok = steps.checkSections(*image_);
    if (!ok)
        logMessage(LogLevel::Warn,
                   std::string(names_.engine) +
                       ": checkpoint rejected, starting fresh: " +
                       ok.error().describe());
    const bool restore = steps.allAgree(ok.hasValue());
    if (restore) {
        readModelState(*image_, model, adam); // checked above
        steps.readSections(*image_);
        if (leader)
            readTrajectories(*image_, result);
    }
    // Every rank is done with the image: free it rather than carry it
    // through the run.
    steps.barrier();
    if (leader)
        image_.reset();
    if (!restore)
        return 0;
    if (leader)
        logMessage(LogLevel::Info, std::string(names_.engine) +
                                       ": resuming after epoch " +
                                       std::to_string(imageEpoch_));
    return static_cast<std::uint32_t>(imageEpoch_) + 1;
}

void
EpochLoop::run(const EpochSteps &steps, GnnModel &model, Adam &adam,
               TrainResult &result, std::uint32_t rank,
               std::string_view span_detail)
{
    const bool leader = rank == 0;
    const std::uint32_t start = resume(steps, model, adam, result, leader);
    const std::uint32_t steady_epoch = start + 2;
    std::uint64_t alloc_base = 0;
    telemetry::TelemetryReport epoch_report;
    if (leader && cfg_.telemetry)
        epoch_report = telemetry::TelemetryReport::capture();

    for (std::uint32_t epoch = start; epoch < cfg_.epochs; ++epoch) {
        telemetry::TraceScope span(names_.span, span_detail);
        // Epoch-aligning barrier: when rank 0 samples the allocation
        // counter at the steady epoch, every rank has finished its
        // warm-up epochs.
        steps.barrier();
        if (cfg_.faults)
            cfg_.faults->maybeThrow(names_.faultSite, rank);
        if (leader && epoch == steady_epoch)
            alloc_base = AllocProbe::totalAllocCount();

        const double loss = steps.trainEpoch(epoch);
        if (leader)
            result.trainLoss.push_back(loss);

        if (epoch % evalEvery_ == 0 || epoch + 1 == cfg_.epochs) {
            const auto [val, test] = steps.evaluate(epoch);
            if (leader) {
                result.evalEpochs.push_back(epoch);
                result.valMetric.push_back(val);
                result.testMetric.push_back(test);
                if (val >= result.bestValMetric) {
                    result.bestValMetric = val;
                    result.testAtBestVal = test;
                }
                result.finalTestMetric = test;
                if (cfg_.verbose)
                    logMessage(LogLevel::Info,
                               "epoch " + std::to_string(epoch) +
                                   " loss " + std::to_string(loss) +
                                   " val " + std::to_string(val) +
                                   " test " + std::to_string(test));
            }
        }

        if (store_ && ((epoch + 1) % checkpointEvery_ == 0 ||
                       epoch + 1 == cfg_.epochs)) {
            // Rank 0 writes the image; every rank adds its sections.
            formats::Checkpoint *ck = leader ? &saveImage_ : nullptr;
            if (ck) {
                writeModelState(*ck, model, adam);
                writeTrajectories(*ck, result);
            }
            steps.writeSections(ck);
            if (ck) {
                ck->setU64("epoch", epoch);
                auto saved = store_->save(*ck, epoch, cfg_.faults);
                if (!saved)
                    logMessage(LogLevel::Warn,
                               std::string(names_.engine) +
                                   ": checkpoint save failed: " +
                                   saved.error().describe());
            }
        }

        if (leader && cfg_.telemetry) {
            // Counters that advanced this epoch, at Debug so steady
            // runs stay quiet by default.
            telemetry::TelemetryReport now =
                telemetry::TelemetryReport::capture();
            const std::string delta = now.deltaText(epoch_report);
            if (!delta.empty())
                logMessage(LogLevel::Debug,
                           "telemetry epoch " + std::to_string(epoch) +
                               " deltas:\n" + delta);
            epoch_report = std::move(now);
        }
    }
    steps.barrier();
    if (!leader)
        return;
    if (cfg_.epochs > steady_epoch)
        result.steadyStateAllocCount =
            AllocProbe::totalAllocCount() - alloc_base;
    result.hostSeconds = watch_.seconds();
}

} // namespace maxk::nn
