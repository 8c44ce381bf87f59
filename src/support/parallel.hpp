// Fork-join parallelism for the DSE hot path.
//
// The pool runs index-addressed jobs: for_each_index(count, body) calls
// body(0) .. body(count-1) exactly once each, claiming indices from a shared
// counter so the load balances dynamically. Determinism is the caller's
// contract — every body writes only to slot `i` of a pre-sized result
// container, and any cross-index aggregation happens after the join, in
// index order. Under that contract the results are byte-identical at any
// thread count and OS schedule.
//
// A pool is the only fan-out path: Thread_pool(1) spawns no workers and
// runs every body inline on the calling thread in index order, so a serial
// run is a one-thread pool run, not a second code path.
//
// Nested use has a single owner: while a fanned-out job runs, its bodies
// own the pool, and a for_each_index call made from inside one of them runs
// inline on the calling thread. A nested call can therefore never wait on
// workers that are busy with its own parent (no deadlock), and never adds
// threads beyond the pool's (no oversubscription). A one-index job runs
// inline without taking the pool, so its body may still fan out.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace islhls {

// Resolves a user-facing thread request: 0 means "all hardware threads",
// anything else is clamped to >= 1.
int resolve_thread_count(int requested);

class Thread_pool {
public:
    // Spawns resolve_thread_count(threads) - 1 workers; the thread calling
    // for_each_index always participates, so `threads` is the total
    // parallelism.
    explicit Thread_pool(int threads);
    ~Thread_pool();

    Thread_pool(const Thread_pool&) = delete;
    Thread_pool& operator=(const Thread_pool&) = delete;

    int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

    // Runs body(i) for every i in [0, count), blocking until all complete.
    // The first exception by index order is rethrown after the join; once
    // a body has thrown, higher indices that have not started are skipped,
    // so a one-thread pool stops at the first exception like a plain loop.
    // Called from inside a running body of this pool, it runs inline (see
    // above). Calls from outside the pool come from one thread at a time.
    void for_each_index(std::size_t count,
                        const std::function<void(std::size_t)>& body);

private:
    struct Job {
        std::size_t count = 0;
        const std::function<void(std::size_t)>* body = nullptr;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> finished{0};
        int active_workers = 0;  // guarded by the pool mutex
        // Lowest index whose body threw so far; its exception is `error`.
        std::atomic<std::size_t> failed{std::numeric_limits<std::size_t>::max()};
        std::mutex error_mutex;
        std::exception_ptr error;
    };

    void worker_loop();
    static void run_job(Job& job);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    Job* job_ = nullptr;
    std::uint64_t generation_ = 0;
    bool stopping_ = false;
};

// Longest-processing-time-first makespan of scheduling `costs` across
// `workers` (>= 1): the wall time the job set would take with that much
// parallelism and a greedy scheduler. Used to report what a farm of
// synthesis workers would achieve on the virtual tool runtimes.
double lpt_makespan(std::vector<double> costs, int workers);

}  // namespace islhls
