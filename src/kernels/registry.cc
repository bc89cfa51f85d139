#include "kernels/registry.hh"

#include <array>
#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "common/trace.hh"
#include "kernels/selector.hh"
#include "kernels/spmm_gnna.hh"
#include "kernels/spmm_nnz_balanced.hh"
#include "kernels/spmm_outer_naive.hh"
#include "kernels/spmm_ref.hh"
#include "kernels/spmm_row_caching.hh"
#include "kernels/spmm_row_wise.hh"

namespace maxk::kernels
{

namespace
{

gpusim::KernelStats
runRef(const CsrGraph &a, const Matrix &x, Matrix &y, const SimOptions &)
{
    spmmReference(a, x, y);
    gpusim::KernelStats s;
    s.kernel = "spmm_ref";
    return s;
}

gpusim::KernelStats
runGnna(const CsrGraph &a, const Matrix &x, Matrix &y, const SimOptions &opt)
{
    // GNNAdvisor preprocesses its neighbour-group partition once per
    // graph; the cached partition models exactly that.
    return spmmGnna(a, a.edgeGroupsCached(opt.workloadCap), x, y, opt);
}

constexpr std::array<KernelVariant, 6> kVariants{{
    {"spmm_ref",
     "golden reference (double accumulation, no device model)",
     /*simulated=*/false, /*transposed=*/false, /*selectable=*/false,
     &runRef},
    {"spmm_row_wise",
     "cuSPARSE-like row-wise product: register accumulation, one "
     "coalesced store per row",
     true, false, true, &spmmRowWise},
    {"spmm_gnna",
     "GNNAdvisor-like neighbour groups: shared-memory partials, atomic "
     "merge, efficiency derate",
     true, false, true, &runGnna},
    {"spmm_nnz_balanced",
     "fixed nonzeros per work unit: amortised metadata streams, atomic "
     "merge only for split hub rows",
     true, false, true, &spmmNnzBalanced},
    {"spmm_row_caching",
     "tile-local shared-memory staging of dense rows: reuse collapses "
     "DRAM traffic on regular graphs",
     true, false, true, &spmmRowCaching},
    {"spmm_outer_naive",
     "naive outer-product Y = A^T * X: scatter atomics per nonzero "
     "(backward-shaped baseline)",
     true, true, false, &spmmOuterNaive},
}};

} // namespace

std::span<const KernelVariant>
kernelRegistry()
{
    return {kVariants.data(), kVariants.size()};
}

const KernelVariant *
findKernelVariant(std::string_view name)
{
    for (const KernelVariant &v : kVariants)
        if (v.name == name)
            return &v;
    return nullptr;
}

const KernelVariant &
kernelVariantOrDie(std::string_view name)
{
    const KernelVariant *v = findKernelVariant(name);
    if (v)
        return *v;
    std::string known;
    for (const KernelVariant &kv : kVariants) {
        if (!known.empty())
            known += ", ";
        known += kv.name;
    }
    fatal("unknown kernel variant '" + std::string(name) +
          "' (known: " + known + ")");
}

const KernelVariant &
defaultSpmmVariant()
{
    return kVariants[1]; // spmm_row_wise
}

namespace
{

/**
 * Telemetry hook for dispatch decisions: a zero-duration trace marker
 * carrying "variant: reason" as its span arg, a per-variant counter,
 * and the total. Pure observation — the decision itself never reads
 * telemetry state (the bitwise-neutrality contract).
 */
void
noteDispatch(const KernelVariant &v, const std::string &why)
{
    if (!telemetry::armed())
        return;
    static const telemetry::Phase phase("kernel.dispatch");
    const std::string name(v.name);
    telemetry::traceInstant(phase, name + ": " + why);
    telemetry::counterAdd("kernel.dispatch." + name, 1);
}

} // namespace

const KernelVariant &
resolveSpmmVariant(std::string_view requested, const CsrGraph &g,
                   std::size_t dim, std::uint32_t k, const SimOptions &opt,
                   std::string *reason)
{
    if (requested.empty() || requested == "default") {
        if (reason)
            *reason = "static default";
        noteDispatch(defaultSpmmVariant(), "static default");
        return defaultSpmmVariant();
    }
    if (requested == "auto") {
        const KernelChoice choice =
            selectSpmmVariant(g.degreeStatsCached(), dim, k, opt.device);
        if (reason)
            *reason = choice.reason;
        noteDispatch(*choice.variant, choice.reason);
        return *choice.variant;
    }
    const KernelVariant &v = kernelVariantOrDie(requested);
    checkInvariant(!v.transposed,
                   "resolveSpmmVariant: transposed variant requested for "
                   "a forward launch");
    if (reason)
        *reason = "explicitly configured";
    noteDispatch(v, "explicitly configured");
    return v;
}

} // namespace maxk::kernels
