#include "support/parallel.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace islhls {

namespace {

// The pool whose fanned-out job this thread is running a body of, if any.
thread_local const Thread_pool* running_pool = nullptr;

}  // namespace

int resolve_thread_count(int requested) {
    if (requested == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : static_cast<int>(hw);
    }
    return std::max(1, requested);
}

Thread_pool::Thread_pool(int threads) {
    const int total = resolve_thread_count(threads);
    workers_.reserve(static_cast<std::size_t>(total - 1));
    for (int i = 1; i < total; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

Thread_pool::~Thread_pool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void Thread_pool::run_job(Job& job) {
    for (;;) {
        const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.count) return;
        // Indices are claimed in order, so every index below a failed one
        // has already started: skipping the ones above it cannot change
        // which exception is the first by index order.
        if (i < job.failed.load()) {
            try {
                (*job.body)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(job.error_mutex);
                if (i < job.failed.load()) {
                    job.error = std::current_exception();
                    job.failed.store(i);
                }
            }
        }
        job.finished.fetch_add(1, std::memory_order_release);
    }
}

void Thread_pool::worker_loop() {
    running_pool = this;  // a worker only ever runs this pool's bodies
    std::uint64_t seen_generation = 0;
    for (;;) {
        Job* job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stopping_ || (job_ != nullptr && generation_ != seen_generation);
            });
            if (stopping_) return;
            seen_generation = generation_;
            job = job_;
            job->active_workers += 1;
        }
        run_job(*job);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            job->active_workers -= 1;
        }
        done_.notify_all();
    }
}

void Thread_pool::for_each_index(std::size_t count,
                                 const std::function<void(std::size_t)>& body) {
    if (count == 0) return;
    Job job;
    job.count = count;
    job.body = &body;
    if (workers_.empty() || count == 1 || running_pool == this) {
        run_job(job);
    } else {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            job_ = &job;
            generation_ += 1;
        }
        wake_.notify_all();
        const Thread_pool* outer = running_pool;
        running_pool = this;
        run_job(job);  // never throws: body errors are captured in the job
        running_pool = outer;
        // The job must outlive every worker that joined it: wait for all
        // indices to finish AND all joined workers to step off the job.
        std::unique_lock<std::mutex> lock(mutex_);
        job_ = nullptr;  // late workers must not join a finished job
        done_.wait(lock, [&] {
            return job.finished.load(std::memory_order_acquire) == count &&
                   job.active_workers == 0;
        });
    }
    if (job.error) std::rethrow_exception(job.error);
}

double lpt_makespan(std::vector<double> costs, int workers) {
    check_internal(workers >= 1, "lpt_makespan needs at least one worker");
    std::sort(costs.begin(), costs.end(), std::greater<double>());
    std::vector<double> load(static_cast<std::size_t>(workers), 0.0);
    for (double c : costs) {
        auto least = std::min_element(load.begin(), load.end());
        *least += c;
    }
    return *std::max_element(load.begin(), load.end());
}

}  // namespace islhls
