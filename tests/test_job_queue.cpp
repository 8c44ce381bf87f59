// Job_queue unit tests: dedup of identical requests, per-attempt deadlines
// on the injected clock, bounded retry with backoff for transient faults —
// and the invariant that drain() never lets an exception escape.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "support/error.hpp"
#include "support/job_queue.hpp"
#include "support/text.hpp"

namespace islhls {
namespace {

// Deterministic clock: now_ms ticks forward by `tick_per_read` on every
// read, sleep_ms advances it by the requested amount (recorded). No real
// time passes anywhere.
struct Fake_clock {
    std::atomic<std::int64_t> now{0};
    std::atomic<std::int64_t> tick_per_read{0};
    std::vector<std::int64_t> sleeps;

    Env_hooks hooks() {
        Env_hooks hooks = real_env_hooks();
        hooks.now_ms = [this] {
            return now.fetch_add(tick_per_read.load()) + tick_per_read.load();
        };
        hooks.sleep_ms = [this](std::int64_t ms) {
            sleeps.push_back(ms);
            now.fetch_add(ms);
        };
        return hooks;
    }
};

TEST(Job_queue, runs_jobs_and_orders_outcomes) {
    Job_queue queue;
    std::vector<std::string> ran;
    queue.submit("a", [&](Job_context&) { ran.push_back("a"); });
    queue.submit("b", [&](Job_context&) { ran.push_back("b"); });
    const std::vector<Job_outcome> outcomes = queue.drain();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].key, "a");
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 1);
    EXPECT_EQ(outcomes[1].key, "b");
    EXPECT_TRUE(outcomes[1].ok);
    EXPECT_EQ(ran, (std::vector<std::string>{"a", "b"}));
}

TEST(Job_queue, identical_keys_execute_once) {
    Job_queue queue;
    int executions = 0;
    for (int i = 0; i < 5; ++i) {
        queue.submit("same", [&](Job_context&) { ++executions; });
    }
    const std::vector<Job_outcome> outcomes = queue.drain();
    EXPECT_EQ(executions, 1);
    ASSERT_EQ(outcomes.size(), 5u);
    EXPECT_FALSE(outcomes[0].deduplicated);
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok);
        EXPECT_TRUE(outcomes[i].deduplicated) << i;
    }
}

TEST(Job_queue, transient_failures_retry_with_backoff) {
    Fake_clock clock;
    const Env_hooks hooks = clock.hooks();
    Job_queue_options options;
    options.hooks = &hooks;
    options.retry.max_attempts = 3;
    options.retry.backoff_ms = 100;
    options.retry.backoff_factor = 2.0;
    Job_queue queue(options);
    int attempts_seen = 0;
    queue.submit("flaky", [&](Job_context& job) {
        ++attempts_seen;
        EXPECT_EQ(job.attempt(), attempts_seen);
        if (attempts_seen < 3) throw Io_error("transient fault");
    });
    const std::vector<Job_outcome> outcomes = queue.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 3);
    // Two backoff waits: 100ms, then 200ms.
    ASSERT_EQ(clock.sleeps.size(), 2u);
    EXPECT_EQ(clock.sleeps[0], 100);
    EXPECT_EQ(clock.sleeps[1], 200);
}

TEST(Job_queue, transient_failures_exhaust_into_structured_outcome) {
    Fake_clock clock;
    const Env_hooks hooks = clock.hooks();
    Job_queue_options options;
    options.hooks = &hooks;
    options.retry.max_attempts = 2;
    Job_queue queue(options);
    queue.submit("doomed", [&](Job_context&) { throw Io_error("disk on fire"); });
    const std::vector<Job_outcome> outcomes = queue.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].kind, Error_kind::io);
    EXPECT_EQ(outcomes[0].attempts, 2);
    EXPECT_NE(outcomes[0].message.find("disk on fire"), std::string::npos);
}

TEST(Job_queue, user_errors_never_retry) {
    Job_queue queue;
    int attempts = 0;
    queue.submit("bad", [&](Job_context&) {
        ++attempts;
        throw User_error("bad request");
    });
    const std::vector<Job_outcome> outcomes = queue.drain();
    EXPECT_EQ(attempts, 1);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].kind, Error_kind::user);
}

TEST(Job_queue, non_standard_exceptions_are_internal) {
    Job_queue queue;
    queue.submit("weird", [&](Job_context&) { throw 42; });
    const std::vector<Job_outcome> outcomes = queue.drain();
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].kind, Error_kind::internal);
}

TEST(Job_queue, stuck_job_times_out_at_checkpoint) {
    Fake_clock clock;
    clock.tick_per_read = 50;  // every clock read advances 50ms
    const Env_hooks hooks = clock.hooks();
    Job_queue_options options;
    options.hooks = &hooks;
    options.deadline_ms = 10;
    options.retry.max_attempts = 2;
    Job_queue queue(options);
    int checkpoints_survived = 0;
    queue.submit("stuck", [&](Job_context& job) {
        for (;;) {  // a job that would never finish on its own
            job.checkpoint();
            ++checkpoints_survived;
        }
    });
    const std::vector<Job_outcome> outcomes = queue.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].kind, Error_kind::timeout);
    EXPECT_EQ(outcomes[0].attempts, 2);  // timeouts are transient: retried once
    EXPECT_EQ(checkpoints_survived, 0);
    EXPECT_NE(outcomes[0].message.find("deadline"), std::string::npos);
}

TEST(Job_queue, deadline_leaves_fast_jobs_alone) {
    Fake_clock clock;
    clock.tick_per_read = 1;
    const Env_hooks hooks = clock.hooks();
    Job_queue_options options;
    options.hooks = &hooks;
    options.deadline_ms = 1000;
    Job_queue queue(options);
    queue.submit("fast", [&](Job_context& job) {
        for (int i = 0; i < 10; ++i) job.checkpoint();
    });
    const std::vector<Job_outcome> outcomes = queue.drain();
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 1);
}

TEST(Job_queue, queue_is_reusable_after_drain) {
    Job_queue queue;
    queue.submit("first", [](Job_context&) {});
    EXPECT_EQ(queue.drain().size(), 1u);
    // Same key again: a NEW job (the dedup window is one drain).
    int ran = 0;
    queue.submit("first", [&](Job_context&) { ++ran; });
    const std::vector<Job_outcome> outcomes = queue.drain();
    EXPECT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].deduplicated);
    EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace islhls
