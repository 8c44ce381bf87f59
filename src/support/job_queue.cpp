#include "support/job_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/text.hpp"

namespace islhls {

void Job_context::checkpoint() const {
    if (deadline_ > 0 && queue_.hooks().now_ms() > deadline_) {
        throw Timeout_error(cat("job '", key_, "' exceeded its ",
                                queue_.deadline_ms(), " ms deadline (attempt ",
                                attempt_, ")"));
    }
}

Job_queue::Job_queue(Job_queue_options options)
    : options_(options),
      hooks_(options.hooks ? options.hooks : &real_env_hooks()) {}

std::size_t Job_queue::submit(std::string key,
                              std::function<void(Job_context&)> body) {
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
        requests_.emplace_back(it->second, true);
        return requests_.size() - 1;
    }
    auto job = std::make_unique<Job>();
    job->key = std::move(key);
    job->body = std::move(body);
    jobs_.push_back(std::move(job));
    by_key_.emplace(jobs_.back()->key, jobs_.size() - 1);
    requests_.emplace_back(jobs_.size() - 1, false);
    return requests_.size() - 1;
}

void Job_queue::run_attempt(Job& job) {
    ++job.attempts;
    const std::int64_t start = hooks_->now_ms();
    const std::int64_t deadline =
        options_.deadline_ms > 0 ? start + options_.deadline_ms : 0;
    Job_context context(*this, job.key, job.attempts, deadline);
    Error_kind kind = Error_kind::internal;
    std::string message;
    try {
        job.body(context);
        job.done = true;
        job.ok = true;
        return;
    } catch (const std::exception& e) {
        kind = classify_error(e);
        message = e.what();
    } catch (...) {
        message = cat("job '", job.key, "' failed with a non-standard exception");
    }
    job.kind = kind;
    job.message = message;
    const bool transient = kind == Error_kind::io || kind == Error_kind::timeout;
    if (transient && job.attempts < options_.retry.max_attempts) {
        const double delay =
            static_cast<double>(options_.retry.backoff_ms) *
            std::pow(options_.retry.backoff_factor, job.attempts - 1);
        job.not_before = hooks_->now_ms() + std::llround(delay);
        return;  // stays pending; the next round retries it
    }
    job.done = true;
    job.ok = false;
}

std::vector<Job_outcome> Job_queue::drain() {
    for (;;) {
        const std::int64_t now = hooks_->now_ms();
        std::vector<std::size_t> runnable;
        std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
        bool pending = false;
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            Job& job = *jobs_[i];
            if (job.done) continue;
            pending = true;
            if (job.not_before <= now) {
                runnable.push_back(i);
            } else {
                earliest = std::min(earliest, job.not_before);
            }
        }
        if (!pending) break;
        if (runnable.empty()) {
            // Everything pending is backing off; wait out the nearest
            // retry. A test clock that ignores sleeps must not spin this
            // loop forever, so a sleep that does not advance the clock
            // counts as having elapsed.
            hooks_->sleep_ms(earliest - now);
            if (hooks_->now_ms() <= now) {
                for (auto& job : jobs_) {
                    if (!job->done) job->not_before = now;
                }
            }
            continue;
        }
        for (std::size_t index : runnable) run_attempt(*jobs_[index]);
    }
    std::vector<Job_outcome> outcomes;
    outcomes.reserve(requests_.size());
    for (const auto& [job_index, deduplicated] : requests_) {
        const Job& job = *jobs_[job_index];
        Job_outcome outcome;
        outcome.key = job.key;
        outcome.ok = job.ok;
        outcome.kind = job.kind;
        outcome.message = job.message;
        outcome.attempts = job.attempts;
        outcome.deduplicated = deduplicated;
        outcomes.push_back(std::move(outcome));
    }
    jobs_.clear();
    requests_.clear();
    by_key_.clear();
    return outcomes;
}

}  // namespace islhls
