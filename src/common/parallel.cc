#include "common/parallel.hh"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <pthread.h>
#include <thread>

namespace maxk
{

namespace
{

/** Hard ceiling on pool size; far above any sane MAXK_THREADS value. */
constexpr std::uint32_t kMaxWorkers = 256;

std::uint32_t
envThreads()
{
    const char *env = std::getenv("MAXK_THREADS");
    if (env == nullptr || env[0] == '\0')
        return 1;
    const long v = std::strtol(env, nullptr, 10);
    if (v < 1)
        return 1;
    return v > kMaxWorkers ? kMaxWorkers : static_cast<std::uint32_t>(v);
}

/** Programmatic override; 0 = fall back to MAXK_THREADS. */
std::atomic<std::uint32_t> g_defaultOverride{0};

/** Set while this thread executes chunk bodies, so nested parallel
 *  regions degrade to serial instead of deadlocking the pool. */
thread_local bool t_inParallelRegion = false;

/** Set in a fork()ed child: the pool's worker threads exist only in the
 *  parent, so the child must never join (or signal) them. Without this,
 *  fork+exit paths — gtest death tests, daemonisation — hang in the
 *  child's static destructors waiting on threads that will never run. */
std::atomic<bool> g_inForkedChild{false};

/**
 * Persistent worker pool. One process-wide instance, grown lazily to the
 * largest concurrency any region has asked for.
 *
 * Each run() posts one heap-allocated Batch; workers copy a shared_ptr
 * to it under the pool mutex, then claim chunk indices through the
 * batch's own atomic cursor. Keeping the cursor and completion count
 * inside the batch (instead of the pool) means a worker that stalls
 * between waking and claiming can never touch a *later* batch's work
 * with an earlier batch's function — its claims land on its own,
 * already-exhausted batch and simply return.
 *
 * The instance is intentionally leaked: a static-destruction join would
 * hang any fork()+exit() child (gtest death tests, daemonisation),
 * because the workers — and, post-fork, even their glibc thread
 * descriptors — exist only in the parent. Idle workers are simply torn
 * down with the process; the leaked object stays reachable through the
 * static pointer, so leak checkers stay quiet.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    get()
    {
        static ThreadPool *pool = new ThreadPool;
        return *pool;
    }

    void
    run(std::size_t n, const std::function<void(std::uint32_t)> &fn)
    {
        if (n == 0)
            return;
        // A forked child inherits the pool bookkeeping but none of the
        // worker threads (and possibly a mutex locked by a thread that
        // no longer exists) — always run serially there.
        if (n == 1 || t_inParallelRegion || g_inForkedChild.load()) {
            // Serial fast path; nested regions also land here.
            const bool saved = t_inParallelRegion;
            t_inParallelRegion = true;
            try {
                for (std::size_t i = 0; i < n; ++i)
                    fn(static_cast<std::uint32_t>(i));
            } catch (...) {
                t_inParallelRegion = saved;
                throw;
            }
            t_inParallelRegion = saved;
            return;
        }

        ensureWorkers(static_cast<std::uint32_t>(n) - 1);
        auto batch = std::make_shared<Batch>();
        batch->fn = &fn;
        batch->n = n;
        {
            std::lock_guard<std::mutex> lk(mu_);
            batch_ = batch;
            ++generation_;
        }
        cv_.notify_all();

        // The caller claims chunks alongside the workers.
        t_inParallelRegion = true;
        drain(*batch);
        t_inParallelRegion = false;

        std::unique_lock<std::mutex> lk(mu_);
        doneCv_.wait(lk, [&] { return batch->done == batch->n; });
        if (batch_ == batch)
            batch_.reset();
        if (batch->error) {
            std::exception_ptr err = batch->error;
            lk.unlock();
            std::rethrow_exception(err);
        }
    }

  private:
    struct Batch
    {
        const std::function<void(std::uint32_t)> *fn = nullptr;
        std::size_t n = 0;
        std::atomic<std::size_t> next{0};
        std::size_t done = 0;       //!< guarded by the pool mutex
        std::exception_ptr error;   //!< guarded by the pool mutex
    };

    ThreadPool()
    {
        pthread_atfork(nullptr, nullptr,
                       [] { g_inForkedChild.store(true); });
    }

    void
    ensureWorkers(std::uint32_t want)
    {
        want = want > kMaxWorkers ? kMaxWorkers : want;
        std::lock_guard<std::mutex> lk(mu_);
        while (workers_.size() < want)
            workers_.emplace_back([this] { workerLoop(); });
    }

    /** Claim and execute chunks of `b` until its cursor is exhausted. */
    void
    drain(Batch &b)
    {
        std::size_t completed = 0;
        for (;;) {
            const std::size_t i =
                b.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= b.n)
                break;
            try {
                (*b.fn)(static_cast<std::uint32_t>(i));
            } catch (...) {
                std::lock_guard<std::mutex> lk(mu_);
                if (!b.error)
                    b.error = std::current_exception();
            }
            ++completed;
        }
        if (completed > 0) {
            std::lock_guard<std::mutex> lk(mu_);
            b.done += completed;
            if (b.done == b.n)
                doneCv_.notify_all();
        }
    }

    void
    workerLoop()
    {
        t_inParallelRegion = true;
        std::uint64_t seen = 0;
        for (;;) {
            std::shared_ptr<Batch> batch;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_.wait(lk, [&] { return generation_ != seen; });
                seen = generation_;
                batch = batch_;
            }
            if (batch)
                drain(*batch);
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;      //!< new batch posted
    std::condition_variable doneCv_;  //!< batch completion
    std::vector<std::thread> workers_;
    std::shared_ptr<Batch> batch_;    //!< current batch (guarded by mu_)
    std::uint64_t generation_ = 0;    //!< bumped per batch (guarded by mu_)
};

} // namespace

std::uint32_t
defaultThreads()
{
    const std::uint32_t over =
        g_defaultOverride.load(std::memory_order_relaxed);
    return over > 0 ? over : envThreads();
}

void
setDefaultThreads(std::uint32_t threads)
{
    g_defaultOverride.store(threads > kMaxWorkers ? kMaxWorkers : threads,
                            std::memory_order_relaxed);
}

std::uint32_t
resolveThreads(std::uint32_t requested)
{
    if (requested > 0)
        return requested > kMaxWorkers ? kMaxWorkers : requested;
    return defaultThreads();
}

std::size_t
chunkCount(std::size_t begin, std::size_t end, std::size_t grain,
           std::uint32_t threads)
{
    if (begin >= end)
        return 0;
    const std::size_t n = (end - begin) / (grain == 0 ? 1 : grain);
    const std::size_t cap = threads == 0 ? 1 : threads;
    return n > cap ? cap : (n == 0 ? 1 : n);
}

std::vector<IndexRange>
splitRange(std::size_t begin, std::size_t end, std::size_t grain,
           std::uint32_t threads)
{
    const std::size_t n = chunkCount(begin, end, grain, threads);
    std::vector<IndexRange> chunks;
    chunks.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        chunks.push_back(chunkBounds(begin, end, n, i));
    return chunks;
}

void
runChunks(std::size_t n, const std::function<void(std::uint32_t)> &fn)
{
    ThreadPool::get().run(n, fn);
}

} // namespace maxk
