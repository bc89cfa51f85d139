/**
 * @file
 * Options shared by all simulated kernels (baselines and MaxK-GNN).
 */

#ifndef MAXK_KERNELS_SIM_OPTIONS_HH
#define MAXK_KERNELS_SIM_OPTIONS_HH

#include <cstdint>

#include "gpusim/device.hh"

namespace maxk
{

/** Per-launch simulation knobs. */
struct SimOptions
{
    /** Device the kernel runs on. */
    gpusim::DeviceConfig device = gpusim::DeviceConfig::a100();

    /**
     * When false, cache models are bypassed (every request is DRAM
     * traffic). Functional results are identical; only stats differ.
     */
    bool simulateCaches = true;

    /**
     * w — the maximum workload units per Edge Group (Sec. 4.3). The
     * paper's kernels use one warp-iteration worth of edges.
     */
    std::uint32_t workloadCap = 32;

    /**
     * Relative efficiency of the kernel implementation (1.0 = fully
     * tuned). The GNNAdvisor baseline models its measured gap to
     * cuSPARSE with a value < 1.
     */
    double efficiency = 1.0;

    /**
     * Ablation: when false, the forward SpGEMM skips the shared-memory
     * accumulation buffer and scatter-accumulates each product directly
     * into global memory (the design the paper's buffer avoids).
     */
    bool spgemmSharedBuffer = true;

    /**
     * Ablation: when false, the backward SSpMM skips the dense-row
     * prefetch and gathers dX_l elements straight from global memory
     * through sp_index (uncoalesced).
     */
    bool sspmmPrefetch = true;

    /**
     * Host worker threads for the row-parallel kernel loops. 0 = use
     * the process default (MAXK_THREADS env var, else serial). Results
     * and simulated stats are bitwise-identical for every value — the
     * loops use static range partitioning and ordered shard replay
     * (see common/parallel.hh).
     */
    std::uint32_t threads = 0;
};

} // namespace maxk

#endif // MAXK_KERNELS_SIM_OPTIONS_HH
