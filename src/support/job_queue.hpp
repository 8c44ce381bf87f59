// Async job queue with deduplication, deadlines and bounded retry.
//
// The queue admits keyed jobs and drains them serially, in rounds, so
// request-level execution stays deterministic; the sweep service's requests
// parallelize internally instead.
//
// Robustness contract:
//   - Deduplication: a submit whose key matches an already queued job
//     shares that job's single execution and outcome (the "thousands of
//     identical sweep requests" case — the work runs once).
//   - Deadlines: each *attempt* gets deadline_ms on the injected clock.
//     They are cooperative: job bodies call Job_context::checkpoint() at
//     convenient boundaries and a past-deadline job surfaces as a
//     structured Timeout_error instead of running forever — a stuck job
//     becomes a reported timeout, not a hang.
//   - Retry: attempts that fail with a transient kind (io, timeout) are
//     re-queued with exponential backoff up to Retry_policy::max_attempts;
//     user/corrupt/internal failures never retry. Backoff sleeps go through
//     the injected Env_hooks, so fault tests run instantly.
//
// Exceptions never escape drain(): every outcome is a structured
// Job_outcome carrying the error taxonomy kind.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/env_hooks.hpp"
#include "support/error.hpp"

namespace islhls {

struct Retry_policy {
    int max_attempts = 3;            // total tries per job (1 = no retry)
    std::int64_t backoff_ms = 100;   // delay before the first retry
    double backoff_factor = 2.0;     // growth per subsequent retry
};

struct Job_queue_options {
    std::int64_t deadline_ms = 0;    // per-attempt budget; 0 = none
    Retry_policy retry;
    const Env_hooks* hooks = nullptr;  // clock + backoff sleep
};

struct Job_outcome {
    std::string key;
    bool ok = false;
    Error_kind kind = Error_kind::internal;  // meaningful when !ok
    std::string message;                     // meaningful when !ok
    int attempts = 0;
    bool deduplicated = false;  // this request shared another's execution
};

class Job_queue;

// Handed to each job body; the cooperative deadline surface.
class Job_context {
public:
    // Throws Timeout_error when the attempt's deadline has passed. Job
    // bodies call this at natural boundaries (e.g. between sweep
    // combinations).
    void checkpoint() const;

    int attempt() const { return attempt_; }
    std::int64_t deadline_ms() const { return deadline_; }  // absolute; 0 = none

private:
    friend class Job_queue;
    Job_context(const Job_queue& queue, std::string key, int attempt,
                std::int64_t deadline)
        : queue_(queue), key_(std::move(key)), attempt_(attempt),
          deadline_(deadline) {}

    const Job_queue& queue_;
    std::string key_;
    int attempt_ = 1;
    std::int64_t deadline_ = 0;
};

class Job_queue {
public:
    explicit Job_queue(Job_queue_options options = {});

    // Enqueues `body` under `key`. When `key` matches a job already in the
    // queue, no new job is created — the request maps onto the existing
    // one. Returns the request index (drain() outcomes are request-ordered).
    std::size_t submit(std::string key, std::function<void(Job_context&)> body);

    // Runs every queued job to completion (with retries), blocking. Returns
    // one outcome per submitted request, in submission order; deduplicated
    // requests carry their shared job's outcome with `deduplicated` set.
    // The queue is reusable afterwards (drained jobs are cleared).
    std::vector<Job_outcome> drain();

    const Env_hooks& hooks() const { return *hooks_; }
    std::int64_t deadline_ms() const { return options_.deadline_ms; }

private:
    struct Job {
        std::string key;
        std::function<void(Job_context&)> body;
        int attempts = 0;
        bool done = false;
        bool ok = false;
        Error_kind kind = Error_kind::internal;
        std::string message;
        std::int64_t not_before = 0;  // earliest next attempt (hooks clock)
    };

    void run_attempt(Job& job);

    Job_queue_options options_;
    const Env_hooks* hooks_;
    std::vector<std::unique_ptr<Job>> jobs_;
    std::vector<std::pair<std::size_t, bool>> requests_;  // (job, deduplicated)
    std::map<std::string, std::size_t> by_key_;
};

}  // namespace islhls
