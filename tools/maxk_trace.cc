/**
 * @file
 * maxk-trace: run an instrumented end-to-end scenario and emit the
 * observability artifacts of ISSUE 10:
 *
 *   <dir>/trace.json    Chrome trace_event JSON (chrome://tracing /
 *                       Perfetto) with the wall-clock and deterministic
 *                       sim-seconds tracks
 *   <dir>/metrics.txt   MetricsRegistry text dump
 *
 * The scenario is a 4-rank sharded training run (with end-of-epoch
 * checkpointing), a pipelined mini-batch run, and a short online
 * serving replay, all on small synthetic twins — enough to light up
 * every instrumented subsystem: per-layer forward/backward, sampler
 * pipeline, per-rank comm spans, checkpoint save/restore, and the
 * serve batcher (whose spans carry the deterministic sim-seconds
 * durations for the second trace lane).
 *
 * Before writing anything the tool cross-checks, in-process, that the
 * per-phase span totals from the trace buffers reconcile exactly with
 * the span.count/span.wall_ns/span.sim_ns counters in the metrics
 * snapshot (the ISSUE 10 acceptance criterion), then re-reads
 * trace.json from disk, validates that it parses as JSON, and checks
 * the required span names are present.
 *
 * Exit status: 0 all checks passed, 1 a check failed, 2 usage.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"
#include "dist/sharded_trainer.hh"
#include "graph/partition.hh"
#include "graph/registry.hh"
#include "nn/model.hh"
#include "nn/trainer.hh"
#include "sample/sampled_trainer.hh"
#include "serve/session.hh"

using namespace maxk;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "\n"
        "Run a 4-rank sharded + pipelined mini-batch + serving\n"
        "scenario with telemetry armed, write trace.json + metrics.txt,\n"
        "and verify the trace reconciles with the metrics snapshot.\n"
        "\n"
        "options:\n"
        "  --dir D   output directory (default: maxk-trace-out)\n"
        "  --seed N  scenario seed (default 2024)\n",
        argv0);
    return 2;
}

bool
check(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok:" : "FAILED:", what);
    return ok;
}

/** Flickr accuracy twin scaled down to CLI size (same shape as
 *  maxk-faults). */
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
    cfg.dropout = 0.2f;
    return cfg;
}

/* --------------------------------------------- minimal JSON validator */

/**
 * Recursive-descent validator for the written trace file. Accepts
 * exactly the JSON grammar (json.org); no DOM is built. Good enough to
 * prove "a JSON consumer can load this file" without external deps.
 */
class JsonValidator
{
  public:
    explicit JsonValidator(std::string_view text)
        : p_(text.data()), end_(text.data() + text.size())
    {
    }

    bool valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return p_ == end_;
    }

  private:
    void skipWs()
    {
        while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                             *p_ == '\r'))
            ++p_;
    }

    bool literal(const char *s)
    {
        const std::size_t n = std::strlen(s);
        if (static_cast<std::size_t>(end_ - p_) < n ||
            std::memcmp(p_, s, n) != 0)
            return false;
        p_ += n;
        return true;
    }

    bool string()
    {
        if (p_ >= end_ || *p_ != '"')
            return false;
        ++p_;
        while (p_ < end_ && *p_ != '"') {
            if (*p_ == '\\') {
                ++p_;
                if (p_ >= end_)
                    return false;
                if (*p_ == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++p_;
                        if (p_ >= end_ || !std::isxdigit(
                                              static_cast<unsigned char>(
                                                  *p_)))
                            return false;
                    }
                }
            }
            ++p_;
        }
        if (p_ >= end_)
            return false;
        ++p_; // closing quote
        return true;
    }

    bool number()
    {
        const char *start = p_;
        if (p_ < end_ && *p_ == '-')
            ++p_;
        while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_)))
            ++p_;
        if (p_ < end_ && *p_ == '.') {
            ++p_;
            while (p_ < end_ &&
                   std::isdigit(static_cast<unsigned char>(*p_)))
                ++p_;
        }
        if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
            ++p_;
            if (p_ < end_ && (*p_ == '+' || *p_ == '-'))
                ++p_;
            while (p_ < end_ &&
                   std::isdigit(static_cast<unsigned char>(*p_)))
                ++p_;
        }
        return p_ > start;
    }

    bool value()
    {
        skipWs();
        if (p_ >= end_)
            return false;
        switch (*p_) {
        case '{': {
            ++p_;
            skipWs();
            if (p_ < end_ && *p_ == '}') {
                ++p_;
                return true;
            }
            for (;;) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (p_ >= end_ || *p_ != ':')
                    return false;
                ++p_;
                if (!value())
                    return false;
                skipWs();
                if (p_ < end_ && *p_ == ',') {
                    ++p_;
                    continue;
                }
                break;
            }
            if (p_ >= end_ || *p_ != '}')
                return false;
            ++p_;
            return true;
        }
        case '[': {
            ++p_;
            skipWs();
            if (p_ < end_ && *p_ == ']') {
                ++p_;
                return true;
            }
            for (;;) {
                if (!value())
                    return false;
                skipWs();
                if (p_ < end_ && *p_ == ',') {
                    ++p_;
                    continue;
                }
                break;
            }
            if (p_ >= end_ || *p_ != ']')
                return false;
            ++p_;
            return true;
        }
        case '"':
            return string();
        case 't':
            return literal("true");
        case 'f':
            return literal("false");
        case 'n':
            return literal("null");
        default:
            return number();
        }
    }

    const char *p_;
    const char *end_;
};

/* --------------------------------------------------------- scenario */

void
runShardedScenario(std::uint64_t seed, const std::string &ckpt_dir)
{
    const TrainingTask task = smallTask(400);
    Rng rng(seed);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = smallModel(task);
    Rng prng(seed ^ 0x9E37ull);
    const Partition parts = bfsPartition(data.graph, 4, prng);

    nn::TrainConfig tc;
    tc.epochs = 4;
    tc.evalEvery = 2;
    tc.checkpointDir = ckpt_dir;
    tc.checkpointEvery = 2;
    tc.telemetry = true;

    dist::ShardedTrainer trainer(cfg, data, task, parts);
    trainer.run(tc);
}

void
runSampledScenario(std::uint64_t seed)
{
    const TrainingTask task = smallTask(400);
    Rng rng(seed ^ 0xABCDull);
    TrainingData data = materializeTrainingData(task, rng);
    nn::GnnModel model(smallModel(task));

    sample::SamplerConfig scfg;
    scfg.fanouts = {6, 6};
    scfg.batchSize = 64;
    scfg.seed = seed;
    sample::SampledTrainer trainer(model, data, task, scfg);

    sample::SampledTrainConfig tc;
    tc.epochs = 2;
    tc.evalEvery = 2;
    tc.pipeline = true;
    tc.queueDepth = 2;
    tc.telemetry = true;
    trainer.run(tc);
}

/** A short serve replay: serve.batch spans carry setSimSeconds(), so
 *  this is what populates the deterministic sim-seconds trace lane
 *  (and the serve.latency_ns histogram in metrics.txt). */
void
runServeScenario(std::uint64_t seed)
{
    const TrainingTask task = smallTask(400);
    Rng rng(seed ^ 0x5E12ull);
    TrainingData data = materializeTrainingData(task, rng);
    nn::GnnModel model(smallModel(task));
    {
        sample::SamplerConfig scfg;
        scfg.fanouts = {6, 6};
        scfg.batchSize = 64;
        scfg.seed = seed;
        sample::SampledTrainer trainer(model, data, task, scfg);
        sample::SampledTrainConfig tc;
        tc.epochs = 1;
        tc.evalEvery = 1;
        trainer.run(tc);
    }

    std::vector<serve::ServeRequest> trace(48);
    Rng traffic(seed);
    double t = 0.0;
    for (serve::ServeRequest &req : trace) {
        t += 2e-4;
        req.arrivalSimSeconds = t;
        req.vertex = traffic.nextBounded(data.graph.numNodes());
    }

    serve::ServeConfig scfg;
    scfg.fanout = 6;
    scfg.cacheFraction = 0.25;
    scfg.lruSlots = 32;
    scfg.seed = seed;
    serve::ServeSession session(model, data.graph, data.features, scfg);

    telemetry::ArmGuard arm(true);
    auto rep = session.replay(trace);
    if (!rep.hasValue())
        fatal("maxk-trace: serve replay rejected: " +
              rep.error().message);
}

/* ---------------------------------------------------- reconciliation */

struct PhaseTotals
{
    std::uint64_t count = 0;
    std::uint64_t wallNs = 0;
    std::uint64_t simNs = 0;
};

/** Sum the raw span buffers per phase name. */
std::map<std::string, PhaseTotals>
spanTotals(const std::vector<telemetry::SpanRecord> &spans)
{
    std::map<std::string, PhaseTotals> totals;
    for (const telemetry::SpanRecord &s : spans) {
        PhaseTotals &t = totals[s.name];
        t.count += 1;
        t.wallNs += s.durNs;
        if (s.simNs >= 0)
            t.simNs += static_cast<std::uint64_t>(s.simNs);
    }
    return totals;
}

bool
reconcile(const telemetry::MetricsSnapshot &snap,
          const std::map<std::string, PhaseTotals> &totals)
{
    bool ok = true;
    // Every phase seen in the trace must match its three counters...
    for (const auto &[name, t] : totals) {
        const std::uint64_t count = snap.counter("span.count." + name);
        const std::uint64_t wall = snap.counter("span.wall_ns." + name);
        const std::uint64_t sim = snap.counter("span.sim_ns." + name);
        const bool match =
            count == t.count && wall == t.wallNs && sim == t.simNs;
        if (!match) {
            std::printf("MISMATCH %s: trace {count=%llu wall=%llu "
                        "sim=%llu} vs metrics {count=%llu wall=%llu "
                        "sim=%llu}\n",
                        name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        static_cast<unsigned long long>(t.wallNs),
                        static_cast<unsigned long long>(t.simNs),
                        static_cast<unsigned long long>(count),
                        static_cast<unsigned long long>(wall),
                        static_cast<unsigned long long>(sim));
            ok = false;
        }
    }
    // ...and every nonzero span.count counter must be backed by spans
    // (an uncounted phase would mean the buffers dropped events).
    for (const auto &[name, value] : snap.counters) {
        constexpr std::string_view prefix = "span.count.";
        if (value == 0 || name.rfind(prefix, 0) != 0)
            continue;
        const std::string phase = name.substr(prefix.size());
        if (!totals.count(phase)) {
            std::printf("MISMATCH %s = %llu but no spans recorded\n",
                        name.c_str(),
                        static_cast<unsigned long long>(value));
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = "maxk-trace-out";
    std::uint64_t seed = 2024;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dir" && i + 1 < argc) {
            dir = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
            return usage(argv[0]);
        }
    }

    // Stale checkpoints from a previous run would make the sharded
    // trainer resume past its final epoch and record no spans at all.
    std::filesystem::remove_all(dir + "/ckpt");
    std::filesystem::create_directories(dir);

    // Fresh slate so the reconciliation below is exact.
    telemetry::resetMetrics();
    telemetry::clearTrace();

    std::printf("scenario 1/3: 4-rank sharded training "
                "(checkpoints under %s/ckpt)\n",
                dir.c_str());
    runShardedScenario(seed, dir + "/ckpt");
    std::printf("scenario 2/3: pipelined mini-batch training\n");
    runSampledScenario(seed);
    std::printf("scenario 3/3: online serving replay\n");
    runServeScenario(seed);

    // In-process cross-check: span buffers vs reconciliation counters.
    const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    const auto spans = telemetry::traceSnapshot();
    const auto totals = spanTotals(spans);

    std::printf("\n%-24s %10s %14s %14s\n", "phase", "count",
                "wall (ms)", "sim (ms)");
    for (const auto &[name, t] : totals)
        std::printf("%-24s %10llu %14.3f %14.3f\n", name.c_str(),
                    static_cast<unsigned long long>(t.count),
                    static_cast<double>(t.wallNs) / 1e6,
                    static_cast<double>(t.simNs) / 1e6);
    std::printf("\n");

    bool ok = true;
    ok &= check(!spans.empty(), "trace recorded spans");
    bool have_sim = false;
    for (const telemetry::SpanRecord &s : spans)
        have_sim |= s.simNs >= 0;
    ok &= check(have_sim, "sim-seconds lane populated");
    ok &= check(reconcile(snap, totals),
                "per-phase span totals reconcile with metrics snapshot");

    // Artifacts.
    const std::string trace_path = dir + "/trace.json";
    const std::string metrics_path = dir + "/metrics.txt";
    ok &= check(telemetry::writeChromeTrace(trace_path),
                "trace.json written");
    {
        std::ofstream out(metrics_path);
        out << snap.renderText();
        ok &= check(static_cast<bool>(out), "metrics.txt written");
    }

    // Re-read the trace from disk and validate it as a consumer would.
    std::string trace_text;
    {
        std::ifstream in(trace_path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        trace_text = buf.str();
    }
    ok &= check(JsonValidator(trace_text).valid(),
                "trace.json parses as JSON");

    const char *required[] = {
        "dist.epoch",        "dist.forward",      "dist.backward",
        "comm.allToAllv",    "comm.barrier",      "comm.allReduce",
        "nn.layer.forward",  "nn.layer.backward", "nn.fwd_compute",
        "nn.fwd_combine",    "nn.bwd_agg",        "nn.bwd_post",
        "sample.epoch",
        "sample.produce",    "sample.draw",       "sample.extract",
        "sample.train_step", "checkpoint.save",   "serve.batch",
    };
    bool required_ok = true;
    for (const char *name : required) {
        const std::string needle =
            std::string("\"name\": \"") + name + "\"";
        const bool found =
            trace_text.find(needle) != std::string::npos;
        if (!found)
            std::printf("missing span: %s\n", name);
        required_ok &= found;
    }
    ok &= check(required_ok, "required span names present");

    std::printf("artifacts: %s, %s\n", trace_path.c_str(),
                metrics_path.c_str());
    if (!ok) {
        std::printf("maxk-trace: FAILED\n");
        return 1;
    }
    std::printf("maxk-trace: OK\n");
    return 0;
}
