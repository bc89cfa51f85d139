/**
 * @file
 * Host-side parallel execution subsystem: a persistent thread pool and a
 * deterministic `parallelFor` over row ranges.
 *
 * Every converted hot loop in this reproduction partitions its row (or
 * edge-group) range *statically*: the chunk layout depends only on the
 * range, the grain, and the requested worker count — never on scheduling
 * — and each chunk is executed by exactly one worker. Combined with the
 * gather-form scatter paths (see nn/gnn_layer.cc) and the ordered
 * KernelShard replay (see gpusim/context.hh), this makes every parallel
 * kernel produce bitwise-identical matrices and identical simulated
 * KernelStats for any thread count, including the serial baseline.
 *
 * Thread-count resolution (strongest first):
 *   1. an explicit per-call request (e.g. SimOptions::threads > 0),
 *   2. the process-wide override set by setDefaultThreads(),
 *   3. the MAXK_THREADS environment variable,
 *   4. serial (1 thread).
 */

#ifndef MAXK_COMMON_PARALLEL_HH
#define MAXK_COMMON_PARALLEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace maxk
{

/** Half-open index interval [begin, end). */
struct IndexRange
{
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
    bool empty() const { return begin >= end; }
};

/**
 * Resolve the effective worker count for one parallel region.
 * `requested` > 0 wins; otherwise the process default applies
 * (setDefaultThreads() override, then MAXK_THREADS, then 1).
 */
std::uint32_t resolveThreads(std::uint32_t requested = 0);

/**
 * Process-wide default worker count. 0 restores the environment-driven
 * default (MAXK_THREADS, else serial). Intended for tests and benches;
 * do not call concurrently with running parallel regions.
 */
void setDefaultThreads(std::uint32_t threads);

/** Current process default (after env resolution; >= 1). */
std::uint32_t defaultThreads();

/**
 * Number of chunks the static partition of [begin, end) has: at most
 * `threads`, each of at least `grain` elements (except that a nonempty
 * range smaller than `grain` is one chunk); 0 for an empty range.
 */
std::size_t chunkCount(std::size_t begin, std::size_t end,
                       std::size_t grain, std::uint32_t threads);

/**
 * Chunk `i` of the `n`-chunk partition of [begin, end): contiguous and
 * ascending, the first (end - begin) % n chunks one element longer.
 */
inline IndexRange
chunkBounds(std::size_t begin, std::size_t end, std::size_t n,
            std::size_t i)
{
    const std::size_t base = (end - begin) / n;
    const std::size_t rem = (end - begin) % n;
    const std::size_t at = begin + i * base + (i < rem ? i : rem);
    return {at, at + base + (i < rem ? 1 : 0)};
}

/**
 * The whole static partition of [begin, end) (chunkCount chunks, each
 * chunkBounds). The layout is a pure function of the arguments.
 */
std::vector<IndexRange> splitRange(std::size_t begin, std::size_t end,
                                   std::size_t grain,
                                   std::uint32_t threads);

/**
 * Execute fn(chunkIndex) for every chunkIndex in [0, n) on the shared
 * pool; the calling thread participates. Blocks until every chunk
 * completed; the first exception thrown by any chunk is rethrown here.
 * Nested calls from inside a worker run serially (no deadlock).
 */
void runChunks(std::size_t n,
               const std::function<void(std::uint32_t)> &fn);

/**
 * Deterministic parallel loop over [begin, end): statically partitions
 * the range (chunkCount / chunkBounds, the splitRange layout) and
 * invokes fn(chunkIndex, chunkBegin, chunkEnd) for each chunk, each on
 * exactly one worker. A one-chunk loop calls fn directly and makes no
 * heap allocation; a multi-chunk one allocates only the pool's
 * per-region batch.
 *
 * @param threads explicit worker count; 0 = process default
 */
template <class Fn>
void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain, Fn &&fn,
            std::uint32_t threads = 0)
{
    const std::size_t n =
        chunkCount(begin, end, grain, resolveThreads(threads));
    if (n == 0)
        return;
    if (n == 1) {
        fn(std::uint32_t{0}, begin, end);
        return;
    }
    // Two references fit std::function's in-place buffer: no heap.
    const struct { std::size_t begin, end, n; } split{begin, end, n};
    runChunks(n, [&split, &fn](std::uint32_t t) {
        const IndexRange c = chunkBounds(split.begin, split.end, split.n, t);
        fn(t, c.begin, c.end);
    });
}

} // namespace maxk

#endif // MAXK_COMMON_PARALLEL_HH
