/**
 * @file
 * Checkpoint write/restore bench (ISSUE 9): snapshots a live
 * model+optimizer state through the trainer section mapping
 * (nn::writeModelState) into a rotated CheckpointStore, then restores
 * it into a warm twin model, and pins the subsystem's perf contract:
 *
 *  - steady-state saves perform ZERO tracked (Matrix/CBSR) heap
 *    allocations and ZERO transient workspace growth — section buffers
 *    and the encode scratch are reused after the first save;
 *  - restore cost is pinned, not zero: resume is a one-time path that
 *    allocates the Adam moment temporaries by design, and the gate
 *    keeps that count from creeping;
 *  - the restored state is bitwise the saved one, and rotation keeps
 *    exactly keep-last-N images on disk.
 *
 * All reported numbers are structural (image bytes, section counts,
 * allocation counters) or derived from them through a fixed modeled
 * write bandwidth — never wall time — so the maxk-perf-v1 records are
 * identical on every machine and thread count, and tools/maxk-perf-check
 * gates them against bench/baselines/checkpoint.json.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.hh"
#include "common/table.hh"
#include "graph/formats/checkpoint.hh"
#include "nn/checkpoint.hh"
#include "nn/model.hh"
#include "nn/optimizer.hh"
#include "nn/trainer.hh"

using namespace maxk;

namespace
{

constexpr const char *kBench = "bench_checkpoint";

/** Modeled sequential checkpoint-device bandwidth (bytes/simsec). A
 *  fixed constant: simSeconds stays a pure function of image bytes. */
constexpr double kModelWriteBytesPerSec = 12.8e9;

/** One deterministic optimizer step on synthetic gradients: moves the
 *  parameters and the Adam moments so successive snapshots persist
 *  genuinely different, realistic state. */
void
syntheticStep(nn::ParamRefs &params, nn::Adam &adam, Rng &rng)
{
    for (nn::Param *p : params) {
        p->resetGrad();
        Float *g = p->grad.data();
        const std::size_t n = p->grad.rows() * p->grad.cols();
        for (std::size_t i = 0; i < n; ++i)
            g[i] = static_cast<Float>(rng.normal()) * 0.1f;
    }
    adam.step();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBench(argc, argv);
    bench::banner("Checkpoint/restore: rotated sectioned images, "
                  "allocation-free steady state");

    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = 400;
    task.accuracyAvgDegree = 8.0;

    nn::ModelConfig mcfg;
    mcfg.kind = nn::GnnKind::Sage;
    mcfg.nonlin = nn::Nonlinearity::MaxK;
    mcfg.maxkK = 16;
    mcfg.numLayers = 2;
    mcfg.inDim = task.featureDim;
    mcfg.hiddenDim = 64;
    mcfg.outDim = task.numClasses;
    mcfg.dropout = 0.1f;

    nn::GnnModel model(mcfg);
    nn::ParamRefs params = model.params();
    nn::Adam adam(params);
    Rng grad_rng(515);
    nn::TrainResult traj;
    traj.trainLoss = {1.9, 1.7, 1.5};
    traj.valMetric = {0.3, 0.4};
    traj.testMetric = {0.29, 0.41};
    traj.evalEpochs = {0, 2};

    // One directory per process: ctest -j runs this binary as the smoke
    // entry and under perf_gate_checkpoint at the same time.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("maxk-bench-ckpt-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    const formats::CheckpointStore store(dir.string(), "bench", 4);

    formats::Checkpoint ck;
    auto snapshot = [&](std::uint64_t epoch) {
        nn::writeModelState(ck, model, adam);
        nn::writeTrajectories(ck, traj);
        ck.setU64("epoch", epoch);
    };
    auto save = [&](std::uint64_t epoch) {
        auto saved = store.save(ck, epoch);
        if (!saved.hasValue())
            fatal("bench_checkpoint: save failed: " +
                  saved.error().describe());
    };

    // Warm-up save: allocates the section buffers and encode scratch.
    syntheticStep(params, adam, grad_rng);
    snapshot(0);
    save(0);
    const std::uint64_t image_bytes = ck.encodedBytes();

    // Steady state: every later save must reuse that storage.
    const std::uint64_t saves = bench::fastMode() ? 4 : 16;
    const std::uint64_t live_before = AllocProbe::liveBytes();
    const std::uint64_t allocs_before = AllocProbe::totalAllocCount();
    AllocProbe::resetPeak();
    for (std::uint64_t e = 1; e <= saves; ++e) {
        syntheticStep(params, adam, grad_rng);
        snapshot(e);
        save(e);
    }
    const std::uint64_t save_allocs =
        AllocProbe::totalAllocCount() - allocs_before;
    const std::uint64_t save_peak_bytes =
        AllocProbe::peakBytes() > live_before
            ? AllocProbe::peakBytes() - live_before
            : 0;
    if (save_allocs != 0)
        fatal("bench_checkpoint: steady-state saves performed " +
              std::to_string(save_allocs) +
              " tracked allocations (contract: 0 after the first save)");

    // Rotation: keep-last-4 means exactly 4 images survive 17 saves.
    const std::vector<std::uint64_t> on_disk = store.epochsOnDisk();
    if (on_disk.size() != 4 || on_disk.back() != saves)
        fatal("bench_checkpoint: rotation kept " +
              std::to_string(on_disk.size()) +
              " images (expected the newest 4)");

    // Restore into a warm twin. Resume is a one-time path and allocates
    // moment temporaries by design (Adam owns its state); the gate pins
    // the measured per-restore count instead of demanding zero.
    nn::GnnModel twin(mcfg);
    nn::Adam twin_adam(twin.params());
    auto restore_once = [&]() -> std::uint64_t {
        auto loaded = store.loadLatest();
        if (!loaded.hasValue())
            fatal("bench_checkpoint: loadLatest failed: " +
                  loaded.error().describe());
        auto restored =
            nn::readModelState(loaded.value().checkpoint, twin, twin_adam);
        if (!restored.hasValue())
            fatal("bench_checkpoint: readModelState failed: " +
                  restored.error().describe());
        return loaded.value().epoch;
    };
    restore_once(); // warm-up restore
    const std::uint64_t restores = bench::fastMode() ? 4 : 16;
    const std::uint64_t restore_allocs_before =
        AllocProbe::totalAllocCount();
    std::uint64_t latest_epoch = 0;
    for (std::uint64_t i = 0; i < restores; ++i)
        latest_epoch = restore_once();
    const std::uint64_t restore_allocs =
        AllocProbe::totalAllocCount() - restore_allocs_before;
    if (latest_epoch != saves)
        fatal("bench_checkpoint: restored epoch " +
              std::to_string(latest_epoch) + ", expected " +
              std::to_string(saves));

    // Bitwise fidelity: the twin now IS the saved state.
    nn::ParamRefs twin_params = twin.params();
    for (std::size_t i = 0; i < params.size(); ++i)
        if (!params[i]->value.equals(twin_params[i]->value))
            fatal("bench_checkpoint: restored parameter " +
                  params[i]->name + " diverged bitwise");
    if (twin_adam.stepCount() != adam.stepCount())
        fatal("bench_checkpoint: restored Adam step count diverged");
    for (std::size_t i = 0; i < adam.firstMoments().size(); ++i)
        if (!adam.firstMoments()[i].equals(twin_adam.firstMoments()[i]) ||
            !adam.secondMoments()[i].equals(
                twin_adam.secondMoments()[i]))
            fatal("bench_checkpoint: restored Adam moments diverged");

    TextTable table({"metric", "value"});
    table.addRow({"image bytes", std::to_string(image_bytes)});
    table.addRow({"sections", std::to_string(ck.sectionCount())});
    table.addRow({"steady saves", std::to_string(saves)});
    table.addRow({"save tracked allocs", std::to_string(save_allocs)});
    table.addRow({"save peak workspace",
                  std::to_string(save_peak_bytes)});
    table.addRow({"steady restores", std::to_string(restores)});
    table.addRow({"restore tracked allocs",
                  std::to_string(restore_allocs)});
    table.addRow({"images on disk (keep 4)",
                  std::to_string(on_disk.size())});
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Takeaways: a full model+Adam+trajectory image is %llu bytes "
        "across %zu checksummed\nsections; steady-state saves are "
        "allocation-free (section buffers and encode\nscratch reused — "
        "enforced above), rotation bounds disk to keep-last-N, restore\n"
        "pays a fixed one-time moment-temporary cost, and the restored "
        "state is bitwise\nthe saved one (enforced above).\n",
        static_cast<unsigned long long>(image_bytes),
        ck.sectionCount());

    if (bench::perfEnabled()) {
        bench::PerfRecord wr;
        wr.bench = kBench;
        wr.kernel = "ckpt-save/steady";
        wr.graph = task.info.name + "-acc";
        wr.dim = static_cast<std::uint32_t>(mcfg.hiddenDim);
        wr.k = mcfg.maxkK;
        wr.simSeconds = static_cast<double>(image_bytes) * saves /
                        kModelWriteBytesPerSec;
        wr.dramBytes = image_bytes;
        wr.l2ReqBytes = image_bytes * saves;
        wr.peakWorkspaceBytes = save_peak_bytes;
        wr.allocCount = save_allocs;
        bench::perfRecords().push_back(wr);

        bench::PerfRecord rd;
        rd.bench = kBench;
        rd.kernel = "ckpt-restore/steady";
        rd.graph = wr.graph;
        rd.dim = wr.dim;
        rd.k = wr.k;
        rd.simSeconds = static_cast<double>(image_bytes) * restores /
                        kModelWriteBytesPerSec;
        rd.dramBytes = image_bytes;
        rd.l2ReqBytes = image_bytes * restores;
        rd.peakWorkspaceBytes = 0;
        rd.allocCount = restore_allocs;
        bench::perfRecords().push_back(rd);
    }
    bench::writePerfReport();
    std::filesystem::remove_all(dir);
    return 0;
}
