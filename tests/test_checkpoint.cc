/**
 * @file
 * Acceptance suite for the checkpoint/restore half of ISSUE 9:
 *
 *  - Checkpoint container: typed round trip of every section kind,
 *    detection of structural bit flips and of truncation at EVERY
 *    prefix length, typed IoError values throughout (no process exit);
 *  - CheckpointStore: atomic saves (no .tmp residue), keep-last-N
 *    rotation, and loadLatest() falling back past corrupted images
 *    with the skip list reporting what was rejected and why;
 *  - bitwise recovery, one fixture over the three engines of the
 *    shared epoch loop (nn::Trainer, sample::SampledTrainer,
 *    dist::ShardedTrainer): a run killed at epoch k by an injected
 *    fault and resumed from its checkpoints finishes with every result
 *    field, the final logits and the pipeline counters bitwise equal
 *    to the uninterrupted run — dropout enabled, so the RNG stream
 *    positions must genuinely persist and restore; and a checksum-valid
 *    image that fails any check is rejected whole, so the run equals a
 *    fresh one.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/rng.hh"
#include "dist/sharded_trainer.hh"
#include "graph/formats/checkpoint.hh"
#include "graph/partition.hh"
#include "graph/registry.hh"
#include "nn/checkpoint.hh"
#include "nn/model.hh"
#include "nn/optimizer.hh"
#include "nn/trainer.hh"
#include "sample/sampled_trainer.hh"
#include "tensor/matrix.hh"

namespace maxk
{
namespace
{

/** Fresh scratch directory, removed on scope exit. */
struct ScopedDir
{
    explicit ScopedDir(const std::string &tag)
    {
        std::error_code ec;
        path = (std::filesystem::temp_directory_path(ec) /
                ("maxk-test-ckpt-" + tag))
                   .string();
        std::filesystem::remove_all(path, ec);
        std::filesystem::create_directories(path, ec);
    }
    ~ScopedDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    std::string path;
};

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

formats::Checkpoint
sampleCheckpoint()
{
    formats::Checkpoint ck;
    ck.setU64("epoch", 41);
    ck.setU64s("rng.drop", {1, 2, 3, 4});
    ck.setDoubles("traj.trainLoss", {0.9, 0.5, 0.25});
    ck.setU32s("traj.evalEpochs", {0, 2});
    Matrix m(3, 4);
    Rng rng(5);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = rng.normal();
    ck.setMatrix("param.0", m);
    const char raw[] = "opaque";
    ck.set("blob", raw, sizeof raw);
    return ck;
}

/* ----------------------------------------------------- the container */

TEST(Checkpoint, TypedSectionsRoundTripThroughDisk)
{
    ScopedDir dir("roundtrip");
    const formats::Checkpoint ck = sampleCheckpoint();
    const std::string path =
        dir.path + "/image" + formats::kCheckpointExtension;
    auto saved = ck.save(path);
    ASSERT_TRUE(saved.hasValue()) << saved.error().describe();
    EXPECT_EQ(saved.value(), ck.encodedBytes());
    // Atomic write: the temp file must be gone.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    auto loaded = formats::Checkpoint::load(path);
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    const formats::Checkpoint &got = loaded.value();
    EXPECT_EQ(got.sectionCount(), ck.sectionCount());
    EXPECT_EQ(got.getU64("epoch").value(), 41u);
    EXPECT_EQ(got.getU64s("rng.drop").value(),
              (std::vector<std::uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(got.getDoubles("traj.trainLoss").value(),
              (std::vector<double>{0.9, 0.5, 0.25}));
    EXPECT_EQ(got.getU32s("traj.evalEpochs").value(),
              (std::vector<std::uint32_t>{0, 2}));
    Matrix m;
    ASSERT_TRUE(got.getMatrix("param.0", m).hasValue());
    Matrix ref;
    ASSERT_TRUE(ck.getMatrix("param.0", ref).hasValue());
    EXPECT_TRUE(m.equals(ref));
    auto blob = got.section("blob");
    ASSERT_TRUE(blob.hasValue());
    EXPECT_EQ(blob.value()->size(), sizeof "opaque");
}

TEST(Checkpoint, MissingAndMistypedSectionsAreTypedErrors)
{
    const formats::Checkpoint ck = sampleCheckpoint();
    EXPECT_FALSE(ck.getU64("absent").hasValue());
    EXPECT_FALSE(ck.section("absent").hasValue());
    // A 4-word section read as a single u64 must fail, not misparse.
    EXPECT_FALSE(ck.getU64("rng.drop").hasValue());
    EXPECT_TRUE(ck.checkU64s("rng.drop", 4).hasValue());
    EXPECT_FALSE(ck.checkU64s("rng.drop", 3).hasValue());
    EXPECT_FALSE(ck.checkU64s("absent", 4).hasValue());
    Matrix m;
    EXPECT_FALSE(ck.getMatrix("epoch", m).hasValue());
    EXPECT_FALSE(ck.matrixShape("epoch").hasValue());
    EXPECT_EQ(ck.matrixShape("param.0").value(),
              (std::pair<std::uint64_t, std::uint64_t>{3, 4}));
}

TEST(Checkpoint, TruncationAtEveryPrefixLengthIsDetected)
{
    const formats::Checkpoint ck = sampleCheckpoint();
    std::vector<std::uint8_t> bytes;
    ck.encode(bytes);
    ASSERT_GT(bytes.size(), 0u);
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() + keep);
        auto got = formats::Checkpoint::decode(cut, "cut");
        ASSERT_FALSE(got.hasValue()) << "prefix of " << keep
                                     << " bytes decoded successfully";
    }
}

TEST(Checkpoint, BitFlipsInStructureAndPayloadAreDetected)
{
    // Single one-letter section name: every byte of the container
    // except that name byte is structural or checksummed, so a flip
    // anywhere else MUST fail the decode.
    formats::Checkpoint ck;
    ck.setDoubles("p", {1.0, -2.0, 3.5});
    std::vector<std::uint8_t> bytes;
    ck.encode(bytes);
    const std::size_t name_byte = 8 + 4 + 4 + 4; // magic,version,count,len
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (i == name_byte)
            continue;
        std::vector<std::uint8_t> flipped = bytes;
        flipped[i] ^= 0x01;
        auto got = formats::Checkpoint::decode(flipped, "flip");
        ASSERT_FALSE(got.hasValue())
            << "flip at byte " << i << " decoded successfully";
    }
    // The one name byte yields a well-formed container with a different
    // section name — callers then see a typed missing-section error.
    std::vector<std::uint8_t> renamed = bytes;
    renamed[name_byte] ^= 0x01;
    auto got = formats::Checkpoint::decode(renamed, "rename");
    ASSERT_TRUE(got.hasValue());
    EXPECT_FALSE(got.value().getDoubles("p").hasValue());
}

/* --------------------------------------------------------- the store */

TEST(CheckpointStore, RotationKeepsTheNewestN)
{
    ScopedDir dir("rotate");
    formats::CheckpointStore store(dir.path, "trainer", 3);
    formats::Checkpoint ck;
    for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) {
        ck.setU64("epoch", epoch);
        ASSERT_TRUE(store.save(ck, epoch).hasValue());
    }
    EXPECT_EQ(store.epochsOnDisk(),
              (std::vector<std::uint64_t>{4, 5, 6}));
    auto latest = store.loadLatest();
    ASSERT_TRUE(latest.hasValue());
    EXPECT_EQ(latest.value().epoch, 6u);
    EXPECT_EQ(latest.value().checkpoint.getU64("epoch").value(), 6u);
}

TEST(CheckpointStore, LoadLatestFallsBackPastCorruptImages)
{
    ScopedDir dir("fallback");
    formats::CheckpointStore store(dir.path, "trainer", 8);
    formats::Checkpoint ck;
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
        ck.setU64("epoch", epoch);
        ASSERT_TRUE(store.save(ck, epoch).hasValue());
    }
    // Newest: flip a payload byte. Second newest: truncate.
    {
        std::vector<std::uint8_t> bytes = readFile(store.pathFor(3));
        bytes[bytes.size() - 3] ^= 0x40;
        writeFile(store.pathFor(3), bytes);
        std::vector<std::uint8_t> cut = readFile(store.pathFor(2));
        cut.resize(cut.size() - 9);
        writeFile(store.pathFor(2), cut);
    }
    std::vector<IoError> skipped;
    auto latest = store.loadLatest(&skipped);
    ASSERT_TRUE(latest.hasValue());
    EXPECT_EQ(latest.value().epoch, 1u);
    ASSERT_EQ(skipped.size(), 2u);
    EXPECT_EQ(skipped[0].code, IoErrorCode::ChecksumMismatch);
    EXPECT_EQ(skipped[1].code, IoErrorCode::Truncated);

    // Corrupt the last good one too: the newest image's error surfaces.
    std::vector<std::uint8_t> bytes = readFile(store.pathFor(1));
    bytes[bytes.size() - 3] ^= 0x40;
    writeFile(store.pathFor(1), bytes);
    auto none = store.loadLatest();
    ASSERT_FALSE(none.hasValue());
    EXPECT_EQ(none.error().code, IoErrorCode::ChecksumMismatch);
}

TEST(CheckpointStore, EmptyDirIsATypedError)
{
    ScopedDir dir("empty");
    formats::CheckpointStore store(dir.path, "trainer", 2);
    auto got = store.loadLatest();
    ASSERT_FALSE(got.hasValue());
    EXPECT_EQ(got.error().code, IoErrorCode::OpenFailed);
}

/* ------------------------------------------------- bitwise recovery */

TrainingTask
smallTask(NodeId nodes)
{
    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = nodes;
    task.accuracyAvgDegree = 8.0;
    return task;
}

nn::ModelConfig
smallModel(const TrainingTask &task)
{
    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Sage;
    cfg.nonlin = nn::Nonlinearity::MaxK;
    cfg.maxkK = 8;
    cfg.numLayers = 2;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = 32;
    cfg.outDim = task.numClasses;
    cfg.dropout = 0.2f; // exercises the persisted RNG stream position
    return cfg;
}

/** One-spec plan: throw at `site` visit `occurrence` of `rank`. */
FaultPlan
killPlan(const char *site, std::uint64_t occurrence,
         std::uint32_t rank = kAnyRank)
{
    FaultSpec s;
    s.kind = FaultKind::RankThrow;
    s.site = site;
    s.occurrence = occurrence;
    s.rank = rank;
    return FaultPlan().add(std::move(s));
}

TEST(Recovery, TrainerResumeFallsBackPastCorruptSaves)
{
    ScopedDir dir("trainer-corrupt");
    const TrainingTask task = smallTask(300);
    Rng rng(62);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = smallModel(task);

    nn::TrainConfig tc;
    tc.epochs = 6;
    tc.evalEvery = 2;

    nn::GnnModel ref_model(cfg);
    nn::Trainer ref_trainer(ref_model, data, task);
    const nn::TrainResult ref = ref_trainer.run(tc);

    // Run to epoch 4 with saves 2 and 3 corrupted at write, then
    // "crash". Keep-last covers every image so the fallback chain is
    // fully on disk.
    FaultPlan plan;
    FaultSpec flip;
    flip.kind = FaultKind::CheckpointBitFlip;
    flip.site = "checkpoint.write";
    flip.occurrence = 2;
    flip.payload = 12345;
    plan.add(std::move(flip));
    FaultSpec trunc;
    trunc.kind = FaultKind::CheckpointTruncate;
    trunc.site = "checkpoint.write";
    trunc.occurrence = 3;
    trunc.payload = 17;
    plan.add(std::move(trunc));
    FaultInjector inj(plan);
    tc.checkpointDir = dir.path;
    tc.checkpointKeep = 8;
    tc.faults = &inj;
    tc.epochs = 4;
    {
        nn::GnnModel model(cfg);
        nn::Trainer trainer(model, data, task);
        trainer.run(tc);
    }

    // Both damaged images must be rejected; epoch 1 is the survivor.
    formats::CheckpointStore store(dir.path, "trainer", 8);
    std::vector<IoError> skipped;
    auto latest = store.loadLatest(&skipped);
    ASSERT_TRUE(latest.hasValue());
    EXPECT_EQ(latest.value().epoch, 1u);
    EXPECT_EQ(skipped.size(), 2u);

    tc.faults = nullptr;
    tc.epochs = 6;
    nn::GnnModel model(cfg);
    nn::Trainer trainer(model, data, task);
    const nn::TrainResult got = trainer.run(tc);
    EXPECT_EQ(got.trainLoss, ref.trainLoss);
    EXPECT_EQ(got.valMetric, ref.valMetric);
    EXPECT_EQ(got.testMetric, ref.testMetric);
    EXPECT_EQ(got.finalTestMetric, ref.finalTestMetric);
}

/* ----------------------------------- one fixture for all three engines */

enum class Engine { Trainer, Sampled, Sharded };

/** An engine under test: its store tag and its kill schedule. */
struct EngineCase
{
    Engine engine;
    const char *name;        //!< test-name suffix
    const char *store;       //!< checkpoint store tag
    const char *site;        //!< per-epoch fault site
    std::uint64_t killAt;    //!< visit of `site` that throws
    std::uint32_t killRank;  //!< rank whose visit counts
};

void
PrintTo(const EngineCase &c, std::ostream *os)
{
    *os << c.name;
}

/** What a run left behind, in one shape for every engine. */
struct Outcome
{
    nn::TrainResult train;
    /** Sampled/sharded: the result's final logits. Trainer: the final
     *  model's eval-mode logits (so the final weights are compared). */
    Matrix finalLogits;
    std::vector<std::uint64_t> counters;  //!< sampled pipeline counters
};

/** Every result field but the wall clock, bitwise. */
void
expectSameRun(const Outcome &got, const Outcome &ref)
{
    EXPECT_EQ(got.train.trainLoss, ref.train.trainLoss);
    EXPECT_EQ(got.train.valMetric, ref.train.valMetric);
    EXPECT_EQ(got.train.testMetric, ref.train.testMetric);
    EXPECT_EQ(got.train.evalEpochs, ref.train.evalEpochs);
    EXPECT_EQ(got.train.bestValMetric, ref.train.bestValMetric);
    EXPECT_EQ(got.train.testAtBestVal, ref.train.testAtBestVal);
    EXPECT_EQ(got.train.finalTestMetric, ref.train.finalTestMetric);
    EXPECT_EQ(got.train.steadyStateAllocCount,
              ref.train.steadyStateAllocCount);
    EXPECT_TRUE(got.finalLogits.equals(ref.finalLogits));
    EXPECT_EQ(got.counters, ref.counters);
}

class EngineRecovery : public ::testing::TestWithParam<EngineCase>
{
  protected:
    EngineRecovery() : task_(smallTask(400)), cfg_(smallModel(task_))
    {
        Rng rng(64);
        data_ = materializeTrainingData(task_, rng);
        Rng prng(65);
        parts_ = bfsPartition(data_.graph, 3, prng);
        tc_.epochs = 6;
        tc_.evalEvery = 2;
    }

    Outcome
    run(const nn::TrainConfig &tc)
    {
        Outcome out;
        switch (GetParam().engine) {
          case Engine::Trainer: {
            nn::GnnModel model(cfg_);
            nn::Trainer trainer(model, data_, task_);
            out.train = trainer.run(tc);
            out.finalLogits =
                model.forward(data_.graph, data_.features, false);
            break;
          }
          case Engine::Sampled: {
            nn::GnnModel model(cfg_);
            sample::SamplerConfig scfg;
            scfg.fanouts = {4, 4};
            scfg.batchSize = 32;
            scfg.seed = 99;
            sample::SampledTrainer trainer(model, data_, task_, scfg);
            sample::SampledTrainConfig sc;
            static_cast<nn::TrainConfig &>(sc) = tc;
            const sample::SampledTrainResult r = trainer.run(sc);
            out.train = r;
            out.finalLogits = r.finalLogits;
            out.counters = {r.batchesTrained, r.sampledNodes,
                            r.sampledEdges};
            break;
          }
          case Engine::Sharded: {
            dist::ShardedTrainer trainer(cfg_, data_, task_, parts_);
            const dist::ShardedTrainResult r = trainer.run(tc);
            out.train = r.train;
            out.finalLogits = r.finalLogits;
            break;
          }
        }
        return out;
    }

    /**
     * Save, through the engine's store, a checksum-valid epoch-2 image
     * that holds a model state unlike a fresh model's (stepped weights
     * and Adam moments, advanced dropout stream), so restoring any
     * part of it would change the run. `trajectories` adds empty
     * "traj.*" sections. The engine's own sections are there minus one
     * (sampled: "counters" with two words instead of three; sharded:
     * "rng.rank<r>" for every rank but the last).
     */
    void
    saveImage(const std::string &dir, bool trajectories)
    {
        nn::GnnModel model(cfg_);
        nn::Adam adam(model.params());
        for (nn::Param *p : model.params()) {
            p->resetGrad();
            for (std::size_t i = 0; i < p->grad.size(); ++i)
                p->grad.data()[i] = 1.0f;
        }
        adam.step();
        model.dropoutRng().next();

        formats::Checkpoint ck;
        nn::writeModelState(ck, model, adam);
        if (trajectories)
            nn::writeTrajectories(ck, nn::TrainResult{});
        if (GetParam().engine == Engine::Sampled)
            ck.setU64s("counters", {1, 2});
        if (GetParam().engine == Engine::Sharded) {
            std::uint64_t words[4];
            model.dropoutRng().stateWords(words);
            for (std::uint32_t r = 0; r + 1 < parts_.numParts; ++r)
                ck.set("rng.rank" + std::to_string(r), words,
                       sizeof(words));
        }
        ck.setU64("epoch", 2);
        ASSERT_TRUE(formats::CheckpointStore(dir, GetParam().store, 2)
                        .save(ck, 2)
                        .hasValue());
    }

    TrainingTask task_;
    nn::ModelConfig cfg_;
    TrainingData data_;
    Partition parts_;
    nn::TrainConfig tc_;
};

// A run killed at an epoch boundary by an injected fault and resumed
// from its checkpoints finishes bitwise equal to the uninterrupted run
// — dropout enabled, so the RNG stream positions must genuinely
// persist and restore.
TEST_P(EngineRecovery, KillAtEpochResumeIsBitwise)
{
    ScopedDir dir(std::string("kill-") + GetParam().name);
    const Outcome ref = run(tc_);

    FaultInjector inj(killPlan(GetParam().site, GetParam().killAt,
                               GetParam().killRank));
    nn::TrainConfig tc = tc_;
    tc.checkpointDir = dir.path;
    tc.checkpointKeep = 2;
    tc.faults = &inj;
    EXPECT_THROW(run(tc), InjectedFault);

    tc.faults = nullptr;
    expectSameRun(run(tc), ref);
}

// A checksum-valid image without trajectories is rejected before any
// of it is restored: the run equals a fresh one.
TEST_P(EngineRecovery, ImageWithoutTrajectoriesStartsFresh)
{
    ScopedDir dir(std::string("no-traj-") + GetParam().name);
    const Outcome fresh = run(tc_);
    saveImage(dir.path, false);
    nn::TrainConfig tc = tc_;
    tc.checkpointDir = dir.path;
    expectSameRun(run(tc), fresh);
}

const EngineCase kTrainerCase{Engine::Trainer, "Trainer", "trainer",
                              "trainer.epoch", 3, kAnyRank};
const EngineCase kSampledCase{Engine::Sampled, "Sampled", "sampled",
                              "sampled_trainer.epoch", 3, kAnyRank};
// Rank 1 dies at its third epoch boundary.
const EngineCase kShardedCase{Engine::Sharded, "Sharded", "sharded",
                              "sharded.epoch", 2, 1};

std::string
caseName(const ::testing::TestParamInfo<EngineCase> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineRecovery,
                         ::testing::Values(kTrainerCase, kSampledCase,
                                           kShardedCase),
                         caseName);

/** The engines that write checkpoint sections of their own. */
class EngineSectionRecovery : public EngineRecovery
{
};

// An image complete but for one engine section is rejected as a whole;
// for the sharded engine only the last rank's check fails, so the
// ranks must agree to reject.
TEST_P(EngineSectionRecovery, ImageMissingAnEngineSectionStartsFresh)
{
    ScopedDir dir(std::string("no-sections-") + GetParam().name);
    const Outcome fresh = run(tc_);
    saveImage(dir.path, true);
    nn::TrainConfig tc = tc_;
    tc.checkpointDir = dir.path;
    expectSameRun(run(tc), fresh);
}

INSTANTIATE_TEST_SUITE_P(SectionEngines, EngineSectionRecovery,
                         ::testing::Values(kSampledCase, kShardedCase),
                         caseName);

} // namespace
} // namespace maxk
