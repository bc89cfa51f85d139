#include "support/heap_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{
/** Every global operator new in this test binary, on any thread. */
std::atomic<std::uint64_t> g_heapAllocs{0};
} // namespace

// Test-only replacement of the global allocation functions. The array
// and nothrow forms forward here. Kept out of line: inlined, the free()
// inside delete would pair with a call to new at the call site, which
// GCC reports as a mismatch.
[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace maxk::test
{

std::uint64_t
heapAllocCount()
{
    return g_heapAllocs.load();
}

} // namespace maxk::test
