// Thread-pool utility: deterministic fan-out, exception order, LPT.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "support/parallel.hpp"

namespace islhls {
namespace {

TEST(Parallel, resolve_thread_count_semantics) {
    EXPECT_GE(resolve_thread_count(0), 1);  // 0 = all hardware threads
    EXPECT_EQ(resolve_thread_count(1), 1);
    EXPECT_EQ(resolve_thread_count(8), 8);
    EXPECT_EQ(resolve_thread_count(-3), 1);
}

TEST(Parallel, every_index_runs_exactly_once) {
    for (int threads : {1, 2, 8}) {
        const std::size_t count = 257;
        std::vector<std::atomic<int>> runs(count);
        for (auto& r : runs) r = 0;
        Thread_pool(threads).for_each_index(count, [&](std::size_t i) { runs[i] += 1; });
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(runs[i].load(), 1) << "index " << i << " threads " << threads;
        }
    }
}

TEST(Parallel, zero_and_single_counts) {
    int calls = 0;
    Thread_pool pool(8);
    pool.for_each_index(0, [&](std::size_t) { calls += 1; });
    EXPECT_EQ(calls, 0);
    pool.for_each_index(1, [&](std::size_t) { calls += 1; });
    EXPECT_EQ(calls, 1);
}

TEST(Parallel, results_identical_across_thread_counts) {
    auto compute = [](int threads) {
        std::vector<double> out(100);
        Thread_pool(threads).for_each_index(out.size(), [&](std::size_t i) {
            out[i] = static_cast<double>(i) * 1.5 + 7.0;
        });
        return out;
    };
    const auto serial = compute(1);
    EXPECT_EQ(compute(2), serial);
    EXPECT_EQ(compute(8), serial);
}

TEST(Parallel, lowest_index_exception_wins) {
    for (int threads : {1, 2, 8}) {
        try {
            Thread_pool(threads).for_each_index(64, [](std::size_t i) {
                throw std::runtime_error(std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "0") << "threads " << threads;
        }
    }
}

TEST(Parallel, one_thread_pool_runs_inline_in_order_and_stops_at_first_exception) {
    // A serial run is a one-thread pool run: no worker, bodies in index
    // order on the calling thread, and nothing past the first failure.
    Thread_pool pool(1);
    EXPECT_EQ(pool.thread_count(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool foreign = false;
    try {
        pool.for_each_index(10, [&](std::size_t i) {
            foreign |= std::this_thread::get_id() != caller;
            order.push_back(i);
            if (i == 3 || i == 6) throw std::runtime_error(std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "3");
    }
    EXPECT_FALSE(foreign);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Parallel, pool_is_reusable_across_jobs) {
    Thread_pool pool(4);
    EXPECT_EQ(pool.thread_count(), 4);
    std::vector<int> out(50, 0);
    for (int round = 1; round <= 3; ++round) {
        pool.for_each_index(out.size(),
                            [&](std::size_t i) { out[i] += round; });
    }
    for (int v : out) EXPECT_EQ(v, 1 + 2 + 3);
}

TEST(Parallel, nested_calls_run_inline_on_the_owning_body) {
    // Every outer body fans out again on the same pool: the inner calls run
    // inline on the body's own thread, so nothing deadlocks on workers that
    // are busy with the outer job, and every pair runs exactly once.
    Thread_pool pool(4);
    constexpr std::size_t outer = 16;
    constexpr std::size_t inner = 32;
    std::vector<int> hits(outer * inner, 0);
    std::vector<int> foreign(outer, 0);
    pool.for_each_index(outer, [&](std::size_t i) {
        const std::thread::id owner = std::this_thread::get_id();
        pool.for_each_index(inner, [&](std::size_t j) {
            hits[i * inner + j] += 1;
            foreign[i] += std::this_thread::get_id() != owner;
        });
    });
    for (int h : hits) EXPECT_EQ(h, 1);
    for (int f : foreign) EXPECT_EQ(f, 0);

    // A one-index job does not take the pool: its body may still fan out.
    std::vector<int> nested(100, 0);
    pool.for_each_index(1, [&](std::size_t) {
        pool.for_each_index(nested.size(), [&](std::size_t j) { nested[j] += 1; });
    });
    for (int v : nested) EXPECT_EQ(v, 1);
}

TEST(Parallel, lpt_makespan_known_cases) {
    EXPECT_DOUBLE_EQ(lpt_makespan({4.0, 3.0, 3.0, 2.0}, 2), 6.0);
    EXPECT_DOUBLE_EQ(lpt_makespan({4.0, 3.0, 3.0, 2.0}, 1), 12.0);
    EXPECT_DOUBLE_EQ(lpt_makespan({5.0}, 8), 5.0);
    EXPECT_DOUBLE_EQ(lpt_makespan({}, 4), 0.0);
    // One long job bounds the makespan no matter the worker count.
    EXPECT_DOUBLE_EQ(lpt_makespan({10.0, 1.0, 1.0, 1.0}, 8), 10.0);
}

}  // namespace
}  // namespace islhls
