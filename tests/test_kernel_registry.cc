/**
 * @file
 * Unit tests for the kernel-variant registry (kernels/registry.hh), the
 * adaptive selector (kernels/selector.hh), and the cached structures
 * they lean on (CsrGraph::edgeGroupsCached / degreeStatsCached).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.hh"
#include "common/trace.hh"
#include "graph/edge_groups.hh"
#include "graph/generators.hh"
#include "graph/stats.hh"
#include "kernels/registry.hh"
#include "kernels/selector.hh"
#include "support/fixtures.hh"
#include "tensor/init.hh"

namespace maxk
{
namespace
{

using kernels::KernelVariant;

TEST(KernelRegistry, EnumerationIsCompleteAndConsistent)
{
    const auto reg = kernels::kernelRegistry();
    ASSERT_GE(reg.size(), 6u);

    std::set<std::string> names;
    std::size_t selectable = 0;
    for (const KernelVariant &v : reg) {
        EXPECT_TRUE(names.insert(std::string(v.name)).second)
            << "duplicate variant name " << v.name;
        EXPECT_NE(v.run, nullptr) << v.name;
        EXPECT_FALSE(v.summary.empty()) << v.name;
        if (v.selectable) {
            ++selectable;
            // A selector candidate must produce comparable stats on a
            // forward launch: simulated and forward-shaped.
            EXPECT_TRUE(v.simulated) << v.name;
            EXPECT_FALSE(v.transposed) << v.name;
        }
    }
    EXPECT_EQ(selectable, 4u);
    EXPECT_TRUE(names.count("spmm_ref"));
    EXPECT_TRUE(names.count("spmm_row_wise"));
    EXPECT_TRUE(names.count("spmm_gnna"));
    EXPECT_TRUE(names.count("spmm_nnz_balanced"));
    EXPECT_TRUE(names.count("spmm_row_caching"));
    EXPECT_TRUE(names.count("spmm_outer_naive"));
}

TEST(KernelRegistry, LookupAndDefault)
{
    EXPECT_EQ(kernels::findKernelVariant("no_such_kernel"), nullptr);
    const KernelVariant *row = kernels::findKernelVariant("spmm_row_wise");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(&kernels::defaultSpmmVariant(), row);
    EXPECT_EQ(&kernels::kernelVariantOrDie("spmm_gnna"),
              kernels::findKernelVariant("spmm_gnna"));
}

TEST(KernelRegistryDeathTest, UnknownNameDiesWithKnownList)
{
    EXPECT_DEATH(kernels::kernelVariantOrDie("spmm_bogus"),
                 "unknown kernel variant.*spmm_row_wise");
}

TEST(KernelRegistry, ReferenceVariantReportsNoStats)
{
    // A zero-stats entry must never win a stats-based comparison; the
    // registry guards that by marking it non-simulated/non-selectable.
    const KernelVariant &ref = kernels::kernelVariantOrDie("spmm_ref");
    EXPECT_FALSE(ref.simulated);
    EXPECT_FALSE(ref.selectable);

    test::SpmmFixture f(64, 500, 8, /*seed=*/3);
    Matrix y;
    const auto stats = ref.run(f.g, f.x, y, f.opt);
    EXPECT_EQ(stats.totalSeconds, 0.0);
    EXPECT_TRUE(stats.phases.empty());
}

TEST(KernelRegistry, SimulatedVariantsReportTraffic)
{
    test::SpmmFixture f(128, 1000, 16, /*seed=*/5);
    for (const KernelVariant &v : kernels::kernelRegistry()) {
        if (!v.simulated)
            continue;
        Matrix y;
        const auto stats = v.run(f.g, f.x, y, f.opt);
        const auto agg = stats.aggregate();
        EXPECT_GT(stats.totalSeconds, 0.0) << v.name;
        EXPECT_GT(agg.dramReadBytes + agg.dramWriteBytes, 0u) << v.name;
        EXPECT_GT(agg.flops, 0u) << v.name;
    }
}

TEST(KernelRegistry, ResolveHonoursExplicitAndDefault)
{
    Rng rng(7);
    const CsrGraph g = erdosRenyi(100, 800, rng);
    std::string reason;
    EXPECT_EQ(kernels::resolveSpmmVariant("", g, 16).name, "spmm_row_wise");
    EXPECT_EQ(kernels::resolveSpmmVariant("default", g, 16).name,
              "spmm_row_wise");
    EXPECT_EQ(kernels::resolveSpmmVariant("spmm_nnz_balanced", g, 16, 0, {},
                                          &reason)
                  .name,
              "spmm_nnz_balanced");
    EXPECT_EQ(reason, "explicitly configured");
}

TEST(KernelRegistryDeathTest, ResolveRejectsTransposedVariant)
{
    Rng rng(7);
    const CsrGraph g = erdosRenyi(50, 300, rng);
    EXPECT_DEATH(kernels::resolveSpmmVariant("spmm_outer_naive", g, 16),
                 "transposed variant");
}

TEST(KernelRegistry, AutoResolvesThroughSelectorWithReason)
{
    const CsrGraph g = ringLattice(512, 8, false);
    std::string reason;
    const KernelVariant &v =
        kernels::resolveSpmmVariant("auto", g, 32, 0, {}, &reason);
    EXPECT_TRUE(v.selectable) << v.name;
    EXPECT_FALSE(reason.empty());
}

TEST(KernelRegistry, ArmedAutoResolutionRecordsItsPick)
{
    // Observation only: an armed resolution leaves one kernel.dispatch
    // instant ("variant: reason") and one per-variant counter.
    telemetry::ArmGuard arm(true);
    telemetry::clearTrace();
    telemetry::resetMetrics();
    const CsrGraph g = ringLattice(512, 8, false);
    std::string reason;
    const KernelVariant &v =
        kernels::resolveSpmmVariant("auto", g, 32, 0, {}, &reason);
    const std::string name(v.name);

    EXPECT_EQ(telemetry::snapshotMetrics().counter("kernel.dispatch." +
                                                   name),
              1u);
    std::size_t instants = 0;
    for (const telemetry::SpanRecord &s : telemetry::traceSnapshot()) {
        if (std::string_view(s.name) != "kernel.dispatch")
            continue;
        ++instants;
        EXPECT_TRUE(s.instant);
        EXPECT_EQ(std::string(s.detail),
                  (name + ": " + reason).substr(
                      0, telemetry::kTraceDetailBytes - 1));
    }
    EXPECT_EQ(instants, 1u);
}

// --- Selector decisions on the probe families the thresholds encode ---

TEST(KernelSelector, RegularGraphPicksRowCaching)
{
    // Ring lattice: gini ~ 0, cv ~ 0 — consecutive rows share most of
    // their neighbourhood, the staging collapse is maximal.
    const CsrGraph g = ringLattice(4096, 8, false);
    const auto choice = kernels::selectSpmmVariant(
        g.degreeStatsCached(), 64, 0, gpusim::DeviceConfig::a100());
    EXPECT_EQ(choice.variant->name, "spmm_row_caching");
    EXPECT_NE(choice.reason.find("near-regular"), std::string::npos);
}

TEST(KernelSelector, HubDominatedGraphPicksRowCaching)
{
    // Star: one hub column recurs in every tile.
    const CsrGraph g = star(4096, false);
    const auto choice = kernels::selectSpmmVariant(
        g.degreeStatsCached(), 64, 0, gpusim::DeviceConfig::a100());
    EXPECT_EQ(choice.variant->name, "spmm_row_caching");
    EXPECT_NE(choice.reason.find("hub"), std::string::npos);
}

TEST(KernelSelector, LowDegreeIrregularGraphPicksNnzBalanced)
{
    // Sparse Erdős–Rényi: no reuse to stage, but 4-edge rows waste most
    // of their metadata sectors — amortisation wins.
    Rng rng(11);
    CsrGraph g = erdosRenyi(4096, 6000, rng);
    const auto choice = kernels::selectSpmmVariant(
        g.degreeStatsCached(), 64, 0, gpusim::DeviceConfig::a100());
    EXPECT_EQ(choice.variant->name, "spmm_nnz_balanced");
}

TEST(KernelSelector, HighDegreeIrregularGraphKeepsRowWise)
{
    // Dense Erdős–Rényi: high degree, moderate skew, no tile reuse.
    Rng rng(13);
    CsrGraph g = erdosRenyi(2048, 20000, rng);
    const auto choice = kernels::selectSpmmVariant(
        g.degreeStatsCached(), 64, 0, gpusim::DeviceConfig::a100());
    EXPECT_EQ(choice.variant->name, "spmm_row_wise");
}

TEST(KernelSelector, MidSkewPowerLawKeepsRowWise)
{
    // RMAT: skewed but not hub-dominated enough for staging to pay —
    // the probe measured row-caching slower here.
    Rng rng(17);
    CsrGraph g = rmat(12, 50000, rng);
    const DegreeStats &s = g.degreeStatsCached();
    ASSERT_GT(s.avgDegree, kernels::kSelectLowDegree);
    const auto choice = kernels::selectSpmmVariant(
        s, 64, 0, gpusim::DeviceConfig::a100());
    EXPECT_EQ(choice.variant->name, "spmm_row_wise");
}

TEST(KernelSelector, TinySharedMemoryDisablesRowCaching)
{
    // A device whose shared memory cannot stage kSelectMinStagedRows
    // rows at this width must not pick the staging schedule.
    const CsrGraph g = ringLattice(1024, 8, false);
    gpusim::DeviceConfig dev = gpusim::DeviceConfig::a100();
    dev.sharedMemPerSm = 1024;
    const auto choice =
        kernels::selectSpmmVariant(g.degreeStatsCached(), 256, 0, dev);
    EXPECT_NE(choice.variant->name, "spmm_row_caching");
}

TEST(KernelSelector, MaxkWidthRestoresStagingBudget)
{
    // Same tiny device: a CBSR operand k << dim shrinks the staged row
    // footprint, so the budget check passes again.
    const CsrGraph g = ringLattice(1024, 8, false);
    gpusim::DeviceConfig dev = gpusim::DeviceConfig::a100();
    dev.sharedMemPerSm = 8192;
    const auto wide =
        kernels::selectSpmmVariant(g.degreeStatsCached(), 256, 0, dev);
    EXPECT_NE(wide.variant->name, "spmm_row_caching");
    const auto narrow =
        kernels::selectSpmmVariant(g.degreeStatsCached(), 256, 8, dev);
    EXPECT_EQ(narrow.variant->name, "spmm_row_caching");
}

// --- Cached structures the registry/selector path depends on ---

TEST(GraphCaches, EdgeGroupsBuildOncePerCap)
{
    Rng rng(19);
    const CsrGraph g = erdosRenyi(100, 900, rng);
    EXPECT_EQ(g.edgeGroupBuildCount(), 0u);

    const EdgeGroupPartition &p1 = g.edgeGroupsCached(32);
    EXPECT_EQ(g.edgeGroupBuildCount(), 1u);
    const EdgeGroupPartition &p2 = g.edgeGroupsCached(32);
    EXPECT_EQ(&p1, &p2); // same object, not an equal rebuild
    EXPECT_EQ(g.edgeGroupBuildCount(), 1u);

    // A different workload cap is a different partition.
    const EdgeGroupPartition &p3 = g.edgeGroupsCached(8);
    EXPECT_EQ(g.edgeGroupBuildCount(), 2u);
    EXPECT_TRUE(p3.covers(g));

    const EdgeGroupPartition fresh = EdgeGroupPartition::build(g, 8);
    ASSERT_EQ(p3.groups().size(), fresh.groups().size());
    for (std::size_t i = 0; i < fresh.groups().size(); ++i) {
        EXPECT_EQ(p3.groups()[i].row, fresh.groups()[i].row);
        EXPECT_EQ(p3.groups()[i].begin, fresh.groups()[i].begin);
        EXPECT_EQ(p3.groups()[i].end, fresh.groups()[i].end);
    }
}

TEST(GraphCaches, RepeatedRegistryLaunchesReuseCaches)
{
    test::SpmmFixture f(96, 700, 8, /*seed=*/23);
    const KernelVariant &nnz =
        kernels::kernelVariantOrDie("spmm_nnz_balanced");
    const KernelVariant &cache =
        kernels::kernelVariantOrDie("spmm_row_caching");

    Matrix y;
    nnz.run(f.g, f.x, y, f.opt);
    cache.run(f.g, f.x, y, f.opt);
    nnz.run(f.g, f.x, y, f.opt);
    cache.run(f.g, f.x, y, f.opt);
    // Same workloadCap everywhere: one partition build serves all four
    // launches (the GNNAdvisor-style preprocess-once contract).
    EXPECT_EQ(f.g.edgeGroupBuildCount(), 1u);

    kernels::resolveSpmmVariant("auto", f.g, 8);
    kernels::resolveSpmmVariant("auto", f.g, 8);
    EXPECT_EQ(f.g.degreeStatsBuildCount(), 1u);
}

} // namespace
} // namespace maxk
