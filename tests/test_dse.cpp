// Architecture geometry, Pareto extraction and the explorer.
#include <gtest/gtest.h>

#include <cmath>

#include "core/sweep_records.hpp"
#include "dse/architecture.hpp"
#include "dse/explorer.hpp"
#include "dse/pareto.hpp"
#include "kernels/kernels.hpp"
#include "support/prng.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

TEST(Architecture, coverage_chain_walks_back_from_output) {
    const Footprint fp{1, 1, 1, 1};
    const Coverage cov = level_coverages(4, {5, 5}, fp);
    ASSERT_EQ(cov.width.size(), 3u);
    EXPECT_EQ(cov.width[2], 4);   // output window
    EXPECT_EQ(cov.width[1], 14);  // + 2*5 halo of the last level
    EXPECT_EQ(cov.width[0], 24);  // + 2*5 again: the off-chip window
    EXPECT_EQ(cov.height[0], 24);
}

TEST(Architecture, asymmetric_footprint_coverage) {
    const Footprint fp{1, 0, 0, 2};
    const Coverage cov = level_coverages(3, {2}, fp);
    EXPECT_EQ(cov.width[0], 3 + 2);   // left-only growth: 2*1
    EXPECT_EQ(cov.height[0], 3 + 4);  // down-only growth: 2*2
}

TEST(Architecture, executions_tile_the_coverage) {
    const Footprint fp{1, 1, 1, 1};
    const Coverage cov = level_coverages(4, {5, 5}, fp);
    // Level 1 must produce 14x14 with 4x4 cones: ceil(14/4)^2 = 16.
    EXPECT_EQ(executions_for_level(cov, 1, 4), 16);
    // Level 2 produces the 4x4 output: one execution.
    EXPECT_EQ(executions_for_level(cov, 2, 4), 1);
}

TEST(Architecture, instance_helpers) {
    Arch_instance a;
    a.window = 4;
    a.level_depths = {3, 3, 3, 1};
    a.cores_per_depth = {{3, 2}, {1, 1}};
    EXPECT_EQ(a.iterations(), 10);
    EXPECT_EQ(a.depth_classes(), (std::vector<int>{3, 1}));
    const std::string text = to_string(a);
    EXPECT_NE(text.find("w=4"), std::string::npos);
    EXPECT_NE(text.find("d3x2"), std::string::npos);
}

// --- Pareto ---------------------------------------------------------------------

TEST(Pareto, dominance_definition) {
    const Design_point a{10.0, 1.0, 0};
    const Design_point b{20.0, 2.0, 1};
    const Design_point c{10.0, 1.0, 2};
    const Design_point d{5.0, 3.0, 3};
    EXPECT_TRUE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));
    EXPECT_FALSE(dominates(a, c));  // equal points do not dominate
    EXPECT_FALSE(dominates(a, d));
    EXPECT_FALSE(dominates(d, a));
}

TEST(Pareto, front_of_known_set) {
    const std::vector<Design_point> points{
        {1.0, 10.0, 0}, {2.0, 5.0, 1}, {3.0, 6.0, 2}, {4.0, 1.0, 3}, {2.5, 5.0, 4}};
    const auto front = pareto_front(points);
    EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Pareto, duplicate_points_keep_the_first_occurrence) {
    // Two front points, each repeated at every third index among dominated
    // filler, at sizes past the insertion-sort cutoff of std::sort: the
    // front must name the first occurrence of each.
    for (std::size_t n = 17; n < 200; ++n) {
        std::vector<Design_point> points;
        for (std::size_t i = 0; i < n; ++i) {
            if (i % 3 == 0) {
                points.push_back({1.0, 4.0, i});
            } else if (i % 3 == 1) {
                points.push_back({2.0, 3.0, i});
            } else {
                points.push_back({10.0 + static_cast<double>(i), 9.0, i});
            }
        }
        EXPECT_EQ(pareto_front(points), (std::vector<std::size_t>{0, 1})) << n;
    }
}

// Property: the front is mutually non-dominated and dominates everything else.
class Pareto_property : public ::testing::TestWithParam<int> {};

TEST_P(Pareto_property, front_is_correct_versus_brute_force) {
    Prng rng(static_cast<std::uint64_t>(GetParam()));
    std::vector<Design_point> points;
    for (std::size_t i = 0; i < 150; ++i) {
        points.push_back({rng.next_in(0, 100), rng.next_in(0, 100), i});
    }
    const auto front = pareto_front(points);
    ASSERT_FALSE(front.empty());
    // Mutual non-domination.
    for (std::size_t i : front) {
        for (std::size_t j : front) {
            if (i != j) {
                EXPECT_FALSE(dominates(points[i], points[j]));
            }
        }
    }
    // Completeness: every non-front point is dominated by some front point.
    std::vector<bool> on_front(points.size(), false);
    for (std::size_t i : front) on_front[i] = true;
    for (std::size_t p = 0; p < points.size(); ++p) {
        if (on_front[p]) continue;
        bool dominated_or_duplicate = false;
        for (std::size_t f : front) {
            if (dominates(points[f], points[p]) ||
                (points[f].area_luts == points[p].area_luts &&
                 points[f].seconds_per_frame == points[p].seconds_per_frame)) {
                dominated_or_duplicate = true;
                break;
            }
        }
        EXPECT_TRUE(dominated_or_duplicate) << "point " << p;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Pareto_property, ::testing::Range(1, 9));

// --- explorer ---------------------------------------------------------------------

class Explorer_fixture : public ::testing::Test {
protected:
    Explorer_fixture()
        : library(extract_stencil(kernel_by_name("jacobi").c_source), "jacobi") {
        evaluator_options.frame_width = 320;
        evaluator_options.frame_height = 240;
        evaluator_options.class_overhead_luts = 2000.0;
        space.iterations = 6;
        space.max_window = 4;
        space.max_depth = 3;
    }

    Cone_library library;
    Evaluator_options evaluator_options;
    Space_options space;
};

TEST_F(Explorer_fixture, canonical_partition_handles_remainders) {
    EXPECT_EQ(canonical_partition(space.iterations, 3), (std::vector<int>{3, 3}));
    EXPECT_EQ(canonical_partition(space.iterations, 2), (std::vector<int>{2, 2, 2}));
    // 6 = 4 + 2: remainder level of depth 2.
    EXPECT_EQ(canonical_partition(6, 4), (std::vector<int>{4, 2}));
}

TEST_F(Explorer_fixture, partitions_cover_iteration_count) {
    const auto parts = depth_partitions(space.iterations, space.max_depth);
    EXPECT_FALSE(parts.empty());
    for (const auto& p : parts) {
        int sum = 0;
        for (int d : p) {
            sum += d;
            EXPECT_LE(d, space.max_depth);
        }
        EXPECT_EQ(sum, space.iterations);
    }
}

TEST_F(Explorer_fixture, pareto_front_is_nondominated_and_feasible) {
    Explorer ex(library, device_by_name("xc6vlx760"), evaluator_options, space);
    const auto result = ex.explore_pareto();
    ASSERT_GT(result.points.size(), 10u);
    ASSERT_FALSE(result.front.empty());
    for (std::size_t i : result.front) {
        const auto& p = result.points[i];
        EXPECT_TRUE(p.feasible);
        for (std::size_t j : result.front) {
            if (i == j) continue;
            const auto& q = result.points[j];
            const bool dominated = q.estimated_area_luts <= p.estimated_area_luts &&
                                   q.throughput.seconds_per_frame <=
                                       p.throughput.seconds_per_frame &&
                                   (q.estimated_area_luts < p.estimated_area_luts ||
                                    q.throughput.seconds_per_frame <
                                        p.throughput.seconds_per_frame);
            EXPECT_FALSE(dominated);
        }
    }
}

TEST_F(Explorer_fixture, device_fit_respects_budget) {
    const Fpga_device& device = device_by_name("generic_small");
    Explorer ex(library, device, evaluator_options, space);
    const auto fit = ex.fit_device();
    ASSERT_TRUE(fit.has_best);
    EXPECT_LE(fit.best.estimated_area_luts,
              static_cast<double>(device.usable_luts()));
    EXPECT_GT(fit.best.throughput.fps, 0.0);
    // Grid has one cell per (window, depth) pair.
    EXPECT_EQ(fit.grid.size(),
              static_cast<std::size_t>(space.max_window * space.max_depth));
    // Every valid cell's instance covers all iterations.
    for (const auto& cell : fit.grid) {
        if (!cell.valid) continue;
        EXPECT_EQ(cell.eval.instance.iterations(), space.iterations);
    }
}

// The fit walks canonical partitions only, so it stays cheap at an
// iteration count whose full depth-partition list (about N^4 / 2880 lists at
// depth cap 5) would not fit in memory. At every N it must agree with a
// walk over the canonical partitions: a cell is valid exactly when its
// minimal allocation fits, and the best is the first strict fps maximum.
// (At N = 400 no minimal allocation fits: the level buffers outgrow the
// device's on-chip memory.)
TEST_F(Explorer_fixture, fit_matches_canonical_partition_walk_at_large_iteration_counts) {
    const Fpga_device& device = device_by_name("xc6vlx760");
    for (int iterations : {12, 400}) {
        SCOPED_TRACE(iterations);
        space.iterations = iterations;
        space.max_depth = 5;
        Explorer ex(library, device, evaluator_options, space);
        const Fit_result fit = ex.fit_device();
        ASSERT_EQ(fit.grid.size(),
                  static_cast<std::size_t>(space.max_window * space.max_depth));
        const Fit_cell* best = nullptr;
        for (const Fit_cell& cell : fit.grid) {
            Arch_instance minimal;
            minimal.window = cell.window;
            minimal.level_depths = canonical_partition(iterations, cell.primary_depth);
            for (int d : minimal.depth_classes()) minimal.cores_per_depth[d] = 1;
            const Arch_evaluation first = ex.evaluator().evaluate(minimal);
            EXPECT_EQ(cell.valid,
                      first.feasible && first.estimated_area_luts <=
                                            static_cast<double>(device.usable_luts()))
                << "w" << cell.window << " d" << cell.primary_depth;
            if (!cell.valid) continue;
            EXPECT_EQ(cell.eval.instance.window, cell.window);
            EXPECT_EQ(cell.eval.instance.level_depths, minimal.level_depths);
            EXPECT_EQ(serialize_record(ex.evaluator().evaluate(cell.eval.instance)),
                      serialize_record(cell.eval));
            if (best == nullptr || cell.eval.throughput.fps > best->eval.throughput.fps) {
                best = &cell;
            }
        }
        ASSERT_EQ(fit.has_best, best != nullptr);
        if (iterations == 12) {
            EXPECT_TRUE(fit.has_best);
        }
        if (best != nullptr) {
            EXPECT_EQ(serialize_record(fit.best), serialize_record(best->eval));
        }
    }
}

TEST_F(Explorer_fixture, more_area_never_hurts_throughput) {
    // The same kernel fitted to a strictly bigger device must reach at least
    // the same frame rate (monotonicity sanity of the greedy allocator).
    Explorer small(library, device_by_name("generic_small"), evaluator_options, space);
    Explorer big(library, device_by_name("xc6vlx760"), evaluator_options, space);
    const auto fit_small = small.fit_device();
    const auto fit_big = big.fit_device();
    ASSERT_TRUE(fit_small.has_best);
    ASSERT_TRUE(fit_big.has_best);
    EXPECT_GE(fit_big.best.throughput.fps, fit_small.best.throughput.fps * 0.99);
}

TEST_F(Explorer_fixture, area_validation_reports_bounded_errors) {
    Explorer ex(library, device_by_name("xc6vlx760"), evaluator_options, space);
    const auto validation = ex.validate_area_model();
    EXPECT_EQ(validation.points.size(),
              static_cast<std::size_t>(space.max_window * space.max_depth));
    // Calibration points are exact; the rest within the noise envelope.
    for (const auto& p : validation.points) {
        if (p.is_calibration) {
            EXPECT_NEAR(p.estimated_luts, p.actual_luts, 1e-9);
        }
    }
    EXPECT_LT(validation.avg_rel_error, 0.08);
    EXPECT_LT(validation.max_rel_error, 0.20);
}

TEST_F(Explorer_fixture, estimated_area_agrees_with_actual_within_band) {
    Explorer ex(library, device_by_name("xc6vlx760"), evaluator_options, space);
    Arch_instance instance;
    instance.window = 3;
    instance.level_depths = {2, 2, 2};
    instance.cores_per_depth = {{2, 2}};
    const Arch_evaluation eval = ex.evaluator().evaluate(instance);
    EXPECT_TRUE(eval.feasible);
    EXPECT_GT(eval.estimated_area_luts, 0.0);
    const double rel = std::fabs(eval.estimated_area_luts - eval.actual_area_luts) /
                       eval.actual_area_luts;
    EXPECT_LT(rel, 0.10);
}

}  // namespace
}  // namespace islhls
