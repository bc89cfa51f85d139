/**
 * @file
 * Kernel-variant registry: the single dispatch point for every
 * simulated SpMM schedule in the tree, plus the golden reference.
 *
 * Each variant's run() is the simulated kernel behind one uniform
 * signature: real arithmetic plus roofline accounting, with functional
 * output bitwise-identical to spmmReference (double accumulation) at
 * any MAXK_THREADS. Only the traffic model differs between schedules.
 * The host's functional path (nn::aggregateDense and friends) runs one
 * fp32 loop whatever schedule is modelled, so no registry choice can
 * reach training or serving numerics.
 *
 * Call sites name variants by string ("spmm_row_wise", ...); "auto"
 * resolves through the adaptive selector (kernels/selector.hh). The
 * registry is enumerable so tests and benches can sweep every variant
 * without naming them one by one.
 */

#ifndef MAXK_KERNELS_REGISTRY_HH
#define MAXK_KERNELS_REGISTRY_HH

#include <span>
#include <string>
#include <string_view>

#include "gpusim/kernel_stats.hh"
#include "graph/csr.hh"
#include "kernels/sim_options.hh"
#include "tensor/matrix.hh"

namespace maxk::kernels
{

/** Uniform simulated-kernel signature. */
using SpmmSimFn = gpusim::KernelStats (*)(const CsrGraph &, const Matrix &,
                                          Matrix &, const SimOptions &);

/** One registered SpMM implementation. */
struct KernelVariant
{
    std::string_view name;    //!< stable id ("spmm_row_wise", ...)
    std::string_view summary; //!< one-line description for CLIs/tables

    /** False for the golden reference: run() computes the product but
     *  reports no device stats — a zero-stats entry must never win a
     *  stats-based comparison, so it is also never selectable. */
    bool simulated = true;

    /** True for kernels computing Y = A^T * X (backward-shaped). */
    bool transposed = false;

    /** Candidate for the adaptive selector (forward, simulated). */
    bool selectable = false;

    SpmmSimFn run = nullptr;
};

/** All registered variants, in registration order. */
std::span<const KernelVariant> kernelRegistry();

/** Lookup by name; nullptr when unknown. */
const KernelVariant *findKernelVariant(std::string_view name);

/** Lookup by name; dies with the list of known names when unknown. */
const KernelVariant &kernelVariantOrDie(std::string_view name);

/** The static default forward variant ("spmm_row_wise"). */
const KernelVariant &defaultSpmmVariant();

/**
 * Resolve a configuration string to a forward variant: "" falls back to
 * the static default, "auto" consults the adaptive selector on the
 * graph's cached degree statistics, anything else must name a
 * registered selectable variant (dies otherwise).
 *
 * @param dim    feature width of the launch (selector feature)
 * @param k      MaxK width, 0 when the operand is dense
 * @param opt    provides the device (shared-memory budget feature)
 * @param reason when non-null, receives the selector's justification
 */
const KernelVariant &resolveSpmmVariant(std::string_view requested,
                                        const CsrGraph &g, std::size_t dim,
                                        std::uint32_t k = 0,
                                        const SimOptions &opt = {},
                                        std::string *reason = nullptr);

} // namespace maxk::kernels

#endif // MAXK_KERNELS_REGISTRY_HH
