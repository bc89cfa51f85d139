/**
 * @file
 * Adaptive kernel-selector sweep: for every corpus entry, compare the
 * selector's pick (resolveSpmmVariant("auto", ...)) against the static
 * row-wise default and against the per-entry oracle (best selectable
 * variant by simulated seconds, DRAM bytes breaking ties).
 *
 * The corpus mixes the deterministic generator families the selector
 * thresholds were derived from (regular lattice, sparse/dense uniform,
 * mid-skew power law, Zipfian and star hubs) with the bundled on-disk
 * fixture, loaded through the same ingest path as real datasets.
 *
 * Two guarantees are enforced, not just reported:
 *  - in-process: the bench exits non-zero if the adaptive pick is ever
 *    slower (simulated seconds or DRAM bytes) than the static default
 *    on any entry — run in CI by the smoke entry on every build;
 *  - cross-commit: with --json the per-entry records for both schedules
 *    are compared against bench/baselines/adaptive.json by
 *    tools/maxk-perf-check (perf_gate_adaptive), so a selector or
 *    traffic-model change that erodes the adaptive win fails the gate.
 *
 * All launches run with the cache model off, so every number is
 * structural: identical on every machine, every run, every thread count.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/table.hh"
#include "graph/formats/formats.hh"
#include "graph/generators.hh"
#include "graph/stats.hh"
#include "kernels/registry.hh"
#include "kernels/selector.hh"
#include "tensor/init.hh"

using namespace maxk;

namespace
{

constexpr const char *kBench = "adaptive";

struct CorpusEntry
{
    std::string name;
    CsrGraph graph;
    std::uint32_t dim;
};

std::vector<CorpusEntry>
makeCorpus()
{
    std::vector<CorpusEntry> corpus;
    auto add = [&](std::string name, CsrGraph g, std::uint32_t dim) {
        g.setAggregatorWeights(Aggregator::SageMean);
        corpus.push_back({std::move(name), std::move(g), dim});
    };

    // Generator families, one per selector regime (and one per rule
    // boundary the thresholds encode).
    {
        add("ring4k", ringLattice(4096, 8, false), 64);
    }
    {
        Rng rng(82001);
        add("er_sparse", erdosRenyi(4096, 8000, rng), 64);
    }
    {
        Rng rng(82002);
        add("er_dense", erdosRenyi(2048, 40000, rng), 64);
    }
    {
        Rng rng(82003);
        add("rmat13", rmat(13, 100000, rng), 256);
    }
    {
        Rng rng(82004);
        add("zipf4k", zipf(4096, 40000, 1.1, rng), 64);
    }
    {
        add("star8k", star(8192, false), 64);
    }
    {
        // Regular lattice at the paper's dim_origin: the staging budget
        // check must still pass at wide rows.
        add("ring2k_w", ringLattice(2048, 16, false), 256);
    }

    // On-disk corpus: the bundled fixture through the real ingest path.
    {
        GraphResult loaded =
            formats::loadAnyGraph(std::string(MAXK_TEST_DATA_DIR) +
                                  "/karate.txt");
        if (!loaded)
            fatal("adaptive corpus: " + loaded.error().describe());
        add("karate", std::move(loaded.value()), 64);
    }
    return corpus;
}

struct EntryResult
{
    std::string name;
    std::string pick;
    std::string oracle;
    double cv = 0.0;
    double tDefault = 0.0, tPick = 0.0, tOracle = 0.0;
    std::uint64_t dramDefault = 0, dramPick = 0, dramOracle = 0;
};

std::uint64_t
dramBytes(const gpusim::KernelStats &stats)
{
    const gpusim::PhaseStats total = stats.aggregate();
    return total.dramReadBytes + total.dramWriteBytes;
}

EntryResult
runEntry(const CorpusEntry &e)
{
    SimOptions opt;
    opt.simulateCaches = false; // structural counters only (see @file)

    Rng rng(5600 + e.graph.numNodes());
    Matrix x(e.graph.numNodes(), e.dim);
    fillNormal(x, rng, 0.0f, 1.0f);

    EntryResult r;
    r.name = e.name;
    const DegreeStats &s = e.graph.degreeStatsCached();
    r.cv = s.avgDegree > 0.0 ? s.stdDegree / s.avgDegree : 0.0;

    std::string reason;
    const kernels::KernelVariant &pick =
        kernels::resolveSpmmVariant("auto", e.graph, e.dim, 0, opt,
                                    &reason);
    r.pick = std::string(pick.name);

    // Oracle: every selectable variant, best simulated seconds (DRAM
    // breaking ties). Also yields the default/pick numbers.
    Matrix y;
    for (const kernels::KernelVariant &v : kernels::kernelRegistry()) {
        if (!v.selectable)
            continue;
        v.run(e.graph, x, y, opt); // warm the output container
        const gpusim::KernelStats stats = v.run(e.graph, x, y, opt);
        const double t = stats.totalSeconds;
        const std::uint64_t dram = dramBytes(stats);
        if (r.oracle.empty() || t < r.tOracle ||
            (t == r.tOracle && dram < r.dramOracle)) {
            r.oracle = std::string(v.name);
            r.tOracle = t;
            r.dramOracle = dram;
        }
        if (v.name == kernels::defaultSpmmVariant().name) {
            r.tDefault = t;
            r.dramDefault = dram;
        }
        if (v.name == pick.name) {
            r.tPick = t;
            r.dramPick = dram;
        }
    }

    // Perf records for the committed baseline: the static default and
    // the adaptive pick, under stable pseudo-kernel names so the
    // (bench, kernel, graph, dim, k) key is unique even when the
    // selector picks the default variant.
    bench::recordKernel(kBench, e.name, e.dim, 0, [&] {
        gpusim::KernelStats stats =
            kernels::defaultSpmmVariant().run(e.graph, x, y, opt);
        stats.kernel = "static_default";
        return stats;
    });
    bench::recordKernel(kBench, e.name, e.dim, 0, [&] {
        gpusim::KernelStats stats = pick.run(e.graph, x, y, opt);
        stats.kernel = "adaptive_pick";
        return stats;
    });
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBench(argc, argv);
    bench::banner("Adaptive SpMM selector vs static default vs oracle "
                  "(cache model off; bench/baselines/adaptive.json)");

    std::vector<CorpusEntry> corpus = makeCorpus();
    // Smoke mode still sweeps the full corpus: the never-slower check
    // below IS the point of this bench, and the corpus is small.

    std::vector<EntryResult> results;
    for (const CorpusEntry &e : corpus)
        results.push_back(runEntry(e));

    TextTable table({"graph", "dim", "avg deg", "cv", "pick", "oracle",
                     "default ms", "pick ms", "oracle ms", "DRAM ratio"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const EntryResult &r = results[i];
        const CorpusEntry &e = corpus[i];
        table.addRow(
            {r.name, std::to_string(e.dim),
             formatFloat(e.graph.avgDegree(), 1), formatFloat(r.cv, 2),
             r.pick, r.oracle, formatFloat(r.tDefault * 1e3, 3),
             formatFloat(r.tPick * 1e3, 3),
             formatFloat(r.tOracle * 1e3, 3),
             formatFloat(static_cast<double>(r.dramPick) /
                             static_cast<double>(r.dramDefault),
                         3)});
    }
    std::printf("%s", table.render().c_str());

    // The hard guarantee: "auto" must never lose to the static default
    // on either axis. Equality is fine (the pick often IS the default).
    int failures = 0;
    for (const EntryResult &r : results) {
        if (r.tPick > r.tDefault || r.dramPick > r.dramDefault) {
            std::fprintf(stderr,
                         "FAIL: %s — adaptive pick %s slower than "
                         "default (%.6f ms vs %.6f ms, %llu vs %llu "
                         "DRAM bytes)\n",
                         r.name.c_str(), r.pick.c_str(), r.tPick * 1e3,
                         r.tDefault * 1e3,
                         static_cast<unsigned long long>(r.dramPick),
                         static_cast<unsigned long long>(r.dramDefault));
            ++failures;
        }
        if (r.pick != r.oracle && r.tPick > r.tOracle)
            std::printf("note: %s — oracle %s beats pick %s by %.3fx "
                        "(selector stays conservative)\n",
                        r.name.c_str(), r.oracle.c_str(), r.pick.c_str(),
                        r.tPick / r.tOracle);
    }
    if (failures != 0) {
        std::fprintf(stderr, "FAIL: adaptive selector lost on %d of %zu "
                             "corpus entries\n",
                     failures, results.size());
        return 1;
    }
    std::printf("adaptive pick never slower than static default on all "
                "%zu entries\n",
                results.size());

    bench::writePerfReport();
    return 0;
}
