/**
 * @file
 * hostbench: host-clock benchmark of the four maxk execution engines.
 *
 *   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --out-dir <dir> [--tiny]
 *
 * Prints human-readable notes, then one JSON result line (the last line
 * of stdout). Exit status: 0 when every output check passed, 1 when one
 * failed, 2 on a usage error. See README.md for the workloads and the
 * metric definitions.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness.hh"
#include "workloads.hh"

namespace
{

using hostbench::Report;
using hostbench::RunOptions;

struct Workload
{
    const char *name;
    const char *threads;  //!< MAXK_THREADS for this workload
    void (*run)(const RunOptions &, Report &);
};

const Workload kWorkloads[] = {
    {"full-reddit-maxk", "2", hostbench::runFullRedditMaxk},
    {"sampled-flickr-relu", "1", hostbench::runSampledFlickrRelu},
    {"serve-flickr-maxk", "1", hostbench::runServeFlickrMaxk},
    {"sharded2-reddit-relu", "1", hostbench::runSharded2RedditRelu},
};

/** End-to-end metrics: every workload reports all of them. */
const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"setup_s", "s"}, {"unit_ms", "ms"}, {"peak_rss_mb", "MB"}};

/** Per-layer metrics of the traced run. A layer a workload never calls
 *  reports 0. */
std::vector<std::pair<std::string, std::string>>
perLayerMetrics()
{
    std::vector<std::pair<std::string, std::string>> m = {
        {"graph.materialize_ms", "ms"},
        {"graph.partition_ms", "ms"},
        {"dist.plan_ms", "ms"},
        {"serve.session_ms", "ms"},
        {"nn.fwd_compute_ms", "ms"},
        {"nn.fwd_combine_ms", "ms"},
        {"nn.bwd_agg_ms", "ms"},
        {"nn.bwd_post_ms", "ms"},
        {"nn.loss_ms", "ms"},
        {"nn.adam_ms", "ms"},
        {"nn.eval_ms", "ms"},
    };
    for (int l = 0; l < 3; ++l)
        for (const char *phase :
             {"fwd_compute", "fwd_combine", "bwd_agg", "bwd_post"})
            m.push_back({"nn.layer" + std::to_string(l) + "." + phase + "_ms",
                         "ms"});
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"core.spgemm_fwd_ms", "ms"},
        {"core.sspmm_bwd_ms", "ms"},
        {"core.maxk_select_ms", "ms"},
        {"kernels.spmm_fwd_ms", "ms"},
        {"kernels.spmm_bwd_ms", "ms"},
        {"kernels.spmm_fwd_k_ms", "ms"},
        {"kernels.dense_over_cbsr_fwd", "x"},
        {"sample.sample_ms", "ms"},
        {"sample.extract_ms", "ms"},
        {"sample.step_ms", "ms"},
        {"sample.real_rows_ratio", "ratio"},
        {"sample.overlap_ratio", "ratio"},
        {"serve.call_p90_ms", "ms"},
        {"serve.hit_ratio", "ratio"},
        {"serve.rows_recomputed_per_req", "rows"},
        {"serve.rows_injected_per_req", "rows"},
        {"serve.planned_rows_ratio", "ratio"},
        {"dist.halo_ms", "ms"},
        {"dist.allreduce_ms", "ms"},
        {"dist.halo_bytes_per_epoch", "bytes"},
        {"dist.reduce_bytes_per_epoch", "bytes"},
        {"dist.halo_rows", "rows"},
        {"gpusim.agg_fwd_ms", "sim_ms"},
        {"gpusim.agg_bwd_ms", "sim_ms"},
        {"gpusim.linear_ms", "sim_ms"},
        {"gpusim.nonlin_ms", "sim_ms"},
        {"gpusim.other_ms", "sim_ms"},
        {"gpusim.epoch_ms", "sim_ms"},
        {"gpusim.dense_over_cbsr_fwd", "x"},
        {"gpusim.req_per_s", "req/sim_s"},
        {"tensor.steady_allocs", "count"},
        {"trace.unit_ms", "ms"},
        {"trace.coverage", "ratio"},
        {"trace.traced_over_untraced", "x"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> --out-dir <dir> "
                 "[--tiny]\nworkloads:",
                 why);
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            const std::string v = value();
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                return usage("--seed needs a whole number");
            have_seed = true;
        } else if (a == "--seconds") {
            const std::string v = value();
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
                opt.seconds > 600.0)
                return usage("--seconds needs a number in (0, 600]");
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                return usage("--trace needs 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--out-dir") {
            opt.outDir = value();
        } else if (a == "--tiny") {
            opt.tiny = true;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    const Workload *w = nullptr;
    for (const Workload &c : kWorkloads)
        if (opt.workload == c.name)
            w = &c;
    if (!w)
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!have_seed || opt.outDir.empty())
        return usage("--seed and --out-dir are required");

    // Fixed before the pool's first use; no dataset directory, so every
    // input is the seeded twin.
    setenv("MAXK_THREADS", w->threads, 1);
    unsetenv("MAXK_DATASET_DIR");
    std::filesystem::create_directories(opt.outDir);

    Report rep;
    try {
        w->run(opt, rep);
    } catch (const std::exception &e) {
        rep.check(false, std::string("workload threw: ") + e.what());
    }

    // Every declared metric appears exactly once in the result line.
    Report out;
    out.correct = rep.correct;
    out.attempted = rep.attempted;
    out.failed = rep.failed;
    if (opt.trace) {
        for (const auto &[name, unit] : perLayerMetrics()) {
            const auto it = rep.metrics.find(name);
            out.set(name, it == rep.metrics.end() ? 0.0 : it->second.first,
                    unit);
        }
    } else {
        for (const auto &[name, unit] : kEndToEnd) {
            const auto it = rep.metrics.find(name);
            if (it == rep.metrics.end())
                out.check(false, std::string("metric not measured: ") + name);
            else
                out.set(name, it->second.first, unit);
        }
    }
    if (out.attempted == 0)
        out.check(false, "no operation attempted");
    std::printf("%s\n", out.json().c_str());
    return out.correct ? 0 : 1;
}
