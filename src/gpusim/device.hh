/**
 * @file
 * Device configuration for the transaction-level GPU model.
 *
 * Parameters default to the NVIDIA A100-80GB used by the paper (Sec. 5.1).
 * Two derived knobs are calibrated once against the paper's published
 * Reddit profile (Table 2 / Table 4) and then held fixed for every
 * experiment:
 *
 *  - sharedOpsPerCycle: per-SM scalar shared-memory scatter/atomic and
 *    red.global issue throughput. 1.6 ops/cycle * 108 SMs * 1.41 GHz
 *    ~= 244 Gop/s, which reproduces the measured ~15 ms SpGEMM/SSpMM
 *    plateau on Reddit k=32 (both kernels issue nnz*k such ops).
 *  - atomicSectorsPerCycle: whole-GPU coalesced global atomic sector
 *    retirement (~1.4 TB/s); the per-element issue cost above, not the
 *    sector throughput, is what makes the SpGEMM write-back stage the
 *    k-independent low-k saturation floor the paper reports.
 */

#ifndef MAXK_GPUSIM_DEVICE_HH
#define MAXK_GPUSIM_DEVICE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace maxk::gpusim
{

/** GPU hardware parameters consumed by the memory/timing model. */
struct DeviceConfig
{
    std::string name = "A100-80GB-sim";

    std::uint32_t numSms = 108;
    std::uint32_t warpSize = 32;

    Bytes sharedMemPerSm = 164 * 1024;
    Bytes l1BytesPerSm = 128 * 1024;
    std::uint32_t l1Assoc = 4;
    Bytes l2Bytes = 40ull * 1024 * 1024;
    std::uint32_t l2Assoc = 16;
    std::uint32_t lineBytes = 128;
    std::uint32_t sectorBytes = 32;

    double clockGhz = 1.41;
    double hbmGBs = 1555.0;        //!< HBM2e peak bandwidth
    double l2GBs = 4500.0;         //!< aggregate L2 bandwidth
    double peakFp32Tflops = 19.5;
    double peakTf32Tflops = 156.0; //!< tensor cores (PyTorch matmul path)

    double sharedOpsPerCycle = 1.6;      //!< per SM (see file comment)
    double atomicSectorsPerCycle = 32.0; //!< whole GPU (~1.4 TB/s for
                                         //!< coalesced red.global)
    double launchOverheadUs = 3.0;

    /**
     * Number of distinct L1 instances the simulator materialises. Warps
     * are assigned round-robin. Defaults to numSms.
     */
    std::uint32_t modeledSms = 108;

    /** The paper's evaluation platform. */
    static DeviceConfig a100();

    /**
     * Scale the cache capacities for a working set that is `ratio` times
     * the paper's (ratio < 1 for the scaled-down dataset twins). Keeping
     * cache-size : working-set constant preserves the hit-rate regime the
     * paper measured, which is what the speedup shape depends on
     * (README "Synthetic twins"). Bandwidths and clocks are left
     * untouched.
     */
    DeviceConfig scaledForWorkingSet(double ratio) const;

    /** Bytes per second the timing model uses for HBM. */
    double hbmBytesPerSec() const { return hbmGBs * 1e9; }
    double l2BytesPerSec() const { return l2GBs * 1e9; }
    double flopsPerSec() const { return peakFp32Tflops * 1e12; }
    double sharedOpsPerSec() const
    {
        return sharedOpsPerCycle * numSms * clockGhz * 1e9;
    }
    double atomicSectorsPerSec() const
    {
        return atomicSectorsPerCycle * clockGhz * 1e9;
    }
};

} // namespace maxk::gpusim

#endif // MAXK_GPUSIM_DEVICE_HH
