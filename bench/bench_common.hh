/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: twin
 * materialisation with aggregator weights and EG partition, working-set
 * scaled device configs, and the k sweep of the evaluation section.
 */

#ifndef MAXK_BENCH_BENCH_COMMON_HH
#define MAXK_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"
#include "graph/csr.hh"
#include "graph/edge_groups.hh"
#include "graph/registry.hh"
#include "gpusim/device.hh"
#include "gpusim/kernel_stats.hh"
#include "kernels/sim_options.hh"
#include "tensor/alloc_probe.hh"

namespace maxk::bench
{

/** The k sweep used by Fig. 8 and Fig. 9. */
inline std::vector<std::uint32_t>
paperKSweep()
{
    return {2, 4, 8, 16, 32, 64, 96, 128, 192};
}

/** A materialised kernel twin ready for the simulated kernels. */
struct TwinBundle
{
    DatasetInfo info;
    CsrGraph graph;
    EdgeGroupPartition part;
    SimOptions opt;  //!< device scaled for this twin's working set

    /**
     * Non-empty when the registry resolved a real on-disk dataset
     * (DatasetInfo::onDiskPath or $MAXK_DATASET_DIR) instead of the
     * synthetic twin. makeTwin logs the swap (stderr), so no result
     * row is silently backed by a real graph; benches can additionally
     * annotate their tables via fromDisk().
     */
    std::string sourcePath;
    bool fromDisk() const { return !sourcePath.empty(); }
};

/**
 * Materialise the kernel twin of a dataset with the given aggregator,
 * EG cap, and a device whose caches are scaled so that the twin's
 * feature-matrix working set occupies the same fraction of L2 as the
 * real dataset's does on the A100 (README "Synthetic twins").
 */
inline TwinBundle
makeTwin(const DatasetInfo &info, std::uint32_t dim_origin,
         Aggregator agg = Aggregator::SageMean,
         std::uint32_t workload_cap = 32, std::uint64_t seed = 2024)
{
    TwinBundle t;
    t.info = info;
    DatasetInfo pinned = info;
    if (auto source = pinResolvedSource(pinned)) {
        t.sourcePath = *source;
        logMessage(LogLevel::Info, "makeTwin(" + info.name +
                                       "): loading on-disk dataset " +
                                       *source);
    }
    Rng rng(seed ^ std::hash<std::string>{}(info.name));
    t.graph = materializeGraph(pinned, rng);
    t.graph.setAggregatorWeights(agg);
    t.part = EdgeGroupPartition::build(t.graph, workload_cap);

    const double paper_ws =
        static_cast<double>(info.paperNodes) * dim_origin * 4.0 +
        static_cast<double>(info.paperEdges) * 8.0;
    const double twin_ws =
        static_cast<double>(t.graph.numNodes()) * dim_origin * 4.0 +
        static_cast<double>(t.graph.numEdges()) * 8.0;
    t.opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(
        twin_ws / paper_ws);
    t.opt.workloadCap = workload_cap;
    return t;
}

/** Scale factor that maps twin kernel times to paper-size estimates:
 *  the dominant terms are nnz-proportional. */
inline double
paperScaleFactor(const TwinBundle &t)
{
    return static_cast<double>(t.info.paperEdges) /
           static_cast<double>(t.graph.numEdges());
}

/**
 * Fast-mode switch: when MAXK_BENCH_FAST is set in the environment the
 * benches shrink their sweeps so the full suite runs in seconds (used
 * by CI-style smoke runs). Default: full sweeps.
 */
inline bool
fastMode()
{
    const char *env = std::getenv("MAXK_BENCH_FAST");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/* ------------------------------------------------- perf JSON report -- */

/**
 * One machine-readable perf measurement: a simulated kernel launch (or
 * a pseudo-kernel like the steady-state layer stack) identified by
 * (bench, kernel, graph, dim, k). All metrics are deterministic by
 * construction — records are taken with simulateCaches=false so every
 * byte count is structural (graph topology and shapes only, never host
 * heap addresses) — which is what lets tools/maxk-perf-check gate CI on
 * tight thresholds against the committed baselines under
 * bench/baselines/.
 */
struct PerfRecord
{
    std::string bench;
    std::string kernel;
    std::string graph;
    std::uint32_t dim = 0;
    std::uint32_t k = 0;
    double simSeconds = 0.0;             //!< KernelStats::totalSeconds
    std::uint64_t dramBytes = 0;         //!< DRAM read + write traffic
    std::uint64_t l2ReqBytes = 0;        //!< paper's "total traffic"
    std::uint64_t peakWorkspaceBytes = 0; //!< transient Matrix/CBSR growth
    std::uint64_t allocCount = 0;        //!< Matrix/CBSR heap allocations
};

/** Collected perf records of this bench process (see --json). */
inline std::vector<PerfRecord> &
perfRecords()
{
    static std::vector<PerfRecord> records;
    return records;
}

/** Path given via --json; empty = reporting disabled. */
inline std::string &
perfJsonPath()
{
    static std::string path;
    return path;
}

inline bool
perfEnabled()
{
    return !perfJsonPath().empty();
}

/** Path given via --metrics-json; empty = disabled. */
inline std::string &
metricsJsonPath()
{
    static std::string path;
    return path;
}

/**
 * Write a MetricsRegistry snapshot to the --metrics-json path (no-op
 * when the flag was not given). Call at the end of main(), after the
 * instrumented work ran with telemetry armed (initBench arms it when
 * the flag is present).
 */
inline void
writeMetricsReport()
{
    if (metricsJsonPath().empty())
        return;
    const std::string json = telemetry::snapshotMetrics().renderJson();
    std::FILE *f = std::fopen(metricsJsonPath().c_str(), "w");
    if (!f)
        fatal("metrics report: cannot open " + metricsJsonPath());
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "metrics report: -> %s\n",
                 metricsJsonPath().c_str());
}

/**
 * Run one kernel launch under the allocation probe and append its
 * record. `run` must return the launch's gpusim::KernelStats; callers
 * pass a cache-free SimOptions (see PerfRecord) and should warm the
 * output buffers once beforehand so the record captures the
 * steady-state allocation count (0 for the workspace-reusing kernels).
 */
template <class Fn>
inline void
recordKernel(const std::string &bench_name, const std::string &graph,
             std::uint32_t dim, std::uint32_t k, Fn &&run)
{
    if (!perfEnabled()) {
        // Still execute the launch: --smoke without --json must walk
        // the exact same code paths (that is what smoke-testing is for).
        run();
        return;
    }
    const std::uint64_t live_before = AllocProbe::liveBytes();
    const std::uint64_t allocs_before = AllocProbe::totalAllocCount();
    AllocProbe::resetPeak();
    const gpusim::KernelStats stats = run();
    PerfRecord rec;
    rec.bench = bench_name;
    rec.kernel = stats.kernel;
    rec.graph = graph;
    rec.dim = dim;
    rec.k = k;
    rec.simSeconds = stats.totalSeconds;
    const gpusim::PhaseStats total = stats.aggregate();
    rec.dramBytes = total.dramReadBytes + total.dramWriteBytes;
    rec.l2ReqBytes = total.l2ReqBytes;
    const std::uint64_t peak = AllocProbe::peakBytes();
    rec.peakWorkspaceBytes = peak > live_before ? peak - live_before : 0;
    rec.allocCount = AllocProbe::totalAllocCount() - allocs_before;
    perfRecords().push_back(std::move(rec));
}

/**
 * Write the collected records to the --json path (no-op when the flag
 * was not given). Schema "maxk-perf-v1": a flat array of flat objects —
 * see README "Performance" for the field list and the baseline-refresh
 * workflow.
 */
inline void
writePerfReport()
{
    if (!perfEnabled())
        return;
    std::FILE *f = std::fopen(perfJsonPath().c_str(), "w");
    if (!f)
        fatal("perf report: cannot open " + perfJsonPath());
    std::fprintf(f, "{\n  \"schema\": \"maxk-perf-v1\",\n"
                    "  \"records\": [\n");
    const auto &records = perfRecords();
    for (std::size_t i = 0; i < records.size(); ++i) {
        const PerfRecord &r = records[i];
        std::fprintf(
            f,
            "    {\"bench\": \"%s\", \"kernel\": \"%s\", "
            "\"graph\": \"%s\", \"dim\": %u, \"k\": %u, "
            "\"sim_seconds\": %.17g, \"dram_bytes\": %llu, "
            "\"l2_req_bytes\": %llu, \"peak_workspace_bytes\": %llu, "
            "\"alloc_count\": %llu}%s\n",
            r.bench.c_str(), r.kernel.c_str(), r.graph.c_str(), r.dim,
            r.k, r.simSeconds,
            static_cast<unsigned long long>(r.dramBytes),
            static_cast<unsigned long long>(r.l2ReqBytes),
            static_cast<unsigned long long>(r.peakWorkspaceBytes),
            static_cast<unsigned long long>(r.allocCount),
            i + 1 == records.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "perf report: %zu records -> %s\n",
                 records.size(), perfJsonPath().c_str());
}

/**
 * Parse bench CLI arguments. `--smoke` switches the bench into fast
 * mode (tiny sweeps, same code paths) — equivalent to exporting
 * MAXK_BENCH_FAST=1 — so CTest can smoke-run every bench binary and
 * catch bench rot without paying for the full paper sweeps.
 * `--json <path>` enables the machine-readable perf report above.
 */
inline void
initBench(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            setenv("MAXK_BENCH_FAST", "1", 1);
        } else if (arg == "--json") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --json needs a path\n", argv[0]);
                std::exit(2);
            }
            perfJsonPath() = argv[++i];
        } else if (arg == "--metrics-json") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --metrics-json needs a path\n",
                             argv[0]);
                std::exit(2);
            }
            metricsJsonPath() = argv[++i];
            // Arm process-wide so every instrumented path the bench
            // exercises lands in the snapshot. Benches that compare
            // armed-vs-disarmed behaviour manage arming themselves and
            // simply should not take this flag.
            telemetry::setArmed(true);
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--smoke] [--json <path>] "
                "[--metrics-json <path>]\n"
                "  --smoke        tiny sweeps (same as MAXK_BENCH_FAST=1 "
                "in the env)\n"
                "  --json <path>  write deterministic per-kernel perf "
                "records (maxk-perf-v1)\n"
                "  --metrics-json <path>  arm telemetry and write a "
                "MetricsRegistry snapshot (maxk-metrics-v1)\n",
                argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                         arg.c_str());
            std::exit(2);
        }
    }
}

/** In fast mode keep only the first `keep` entries of a sweep. */
template <class T>
void
smokeShrink(std::vector<T> &v, std::size_t keep = 1)
{
    if (fastMode() && v.size() > keep)
        v.resize(keep);
}

/** Print a section banner matching the other bench binaries. */
inline void
banner(const std::string &title)
{
    std::printf("\n================================================"
                "===============\n%s\n"
                "================================================"
                "===============\n",
                title.c_str());
}

} // namespace maxk::bench

#endif // MAXK_BENCH_BENCH_COMMON_HH
