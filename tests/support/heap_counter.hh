/**
 * @file
 * Whole-binary heap allocation counting for the tests that pin
 * allocation-free paths. AllocProbe (tensor/alloc_probe.hh) sees only
 * Matrix/CbsrMatrix storage; this counts every global operator new,
 * std::vector and std::function storage included.
 *
 * heap_counter.cc replaces the global allocation functions, so it must
 * be linked into a test binary at most once: tests/CMakeLists.txt adds
 * it as a source of exactly the suites that include this header.
 */

#ifndef MAXK_TESTS_SUPPORT_HEAP_COUNTER_HH
#define MAXK_TESTS_SUPPORT_HEAP_COUNTER_HH

#include <cstdint>

namespace maxk::test
{

/** Global operator new calls so far in this binary, on any thread. */
std::uint64_t heapAllocCount();

/** Heap allocations `fn` makes, counted over every thread. */
template <class Fn>
std::uint64_t
heapAllocsOf(Fn &&fn)
{
    const std::uint64_t before = heapAllocCount();
    fn();
    return heapAllocCount() - before;
}

} // namespace maxk::test

#endif // MAXK_TESTS_SUPPORT_HEAP_COUNTER_HH
