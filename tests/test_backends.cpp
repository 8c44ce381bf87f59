// Backend tests: the streaming backend's analytic model must track its
// cycle-approximate walk on every kernel, and the sweep service's merged
// cross-backend front must obey the front-of-fronts identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/service.hpp"
#include "dse/explorer.hpp"
#include "dse/pareto.hpp"
#include "dse/streaming_backend.hpp"
#include "kernels/kernels.hpp"
#include "oracle/streaming_walk.hpp"
#include "sim/arch_sim.hpp"
#include "symexec/executor.hpp"
#include "synth/device.hpp"

namespace islhls {
namespace {

Evaluator_options small_evaluator_options() {
    Evaluator_options options;
    options.frame_width = 128;
    options.frame_height = 96;
    return options;
}

Space_options small_space(int threads = 1) {
    Space_options space;
    space.iterations = 4;
    space.max_window = 3;
    space.max_depth = 2;
    space.threads = threads;
    return space;
}

Cone_library make_library(const std::string& kernel) {
    return Cone_library(extract_stencil(kernel_by_name(kernel).c_source), kernel);
}

// More channel bandwidth at a fixed (depth, vector, PE) shape can only ever
// shrink the transfer term: seconds_per_frame is monotone non-increasing and
// memory cycles strictly decreasing in `channels`.
TEST(Backends, streaming_front_monotone_in_channel_bandwidth) {
    Cone_library library = make_library("heat");
    Streaming_backend backend(library, device_by_name("xc6vlx760"),
                              small_evaluator_options(), small_space());
    backend.calibrate();
    std::map<std::tuple<int, int, int>, Streaming_evaluation> previous;
    int compared = 0;
    for (const Streaming_config& config : backend.configs()) {
        const Streaming_evaluation eval = backend.evaluate(config);
        if (!eval.feasible) continue;
        const auto shape = std::make_tuple(config.depth, config.vector_width,
                                           config.pe_count);
        const auto it = previous.find(shape);
        if (it != previous.end()) {
            // configs() enumerates channels in ascending order per shape.
            ASSERT_GT(config.channels, it->second.config.channels);
            EXPECT_LT(eval.memory_cycles, it->second.memory_cycles)
                << to_string(config);
            EXPECT_LE(eval.seconds_per_frame, it->second.seconds_per_frame)
                << to_string(config);
            ++compared;
        }
        previous[shape] = eval;
    }
    EXPECT_GT(compared, 0);
}

// A two-backend Pareto sweep through the service, the product's only
// cross-backend path.
Sweep_config merged_sweep_config(int threads) {
    Sweep_config config;
    config.kernels = {"heat", "jacobi"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {4};
    config.frame_width = 128;
    config.frame_height = 96;
    config.space = small_space(threads);
    config.backends = {"paper", "streaming"};
    config.with_pareto = true;
    return config;
}

struct Tagged_point {
    std::string backend;
    Front_point point;
};

// Every feasible point both backends produce for one kernel of
// merged_sweep_config, priced exactly as the service prices them.
std::vector<Tagged_point> all_backend_points(const Sweep_config& config,
                                             const std::string& kernel) {
    const Evaluator_options options = evaluator_options_for(config);
    Space_options space = config.space;
    space.iterations = config.iteration_counts.at(0);
    const Fpga_device& device = device_by_name(config.devices.at(0));
    Cone_library library = make_library(kernel);
    std::vector<Tagged_point> all;
    Explorer explorer(library, device, options, space);
    for (const Arch_evaluation& e : explorer.explore_pareto().points) {
        all.push_back({"paper", {to_string(e.instance), e.estimated_area_luts,
                                 e.throughput.seconds_per_frame, e.throughput.fps}});
    }
    Streaming_backend streaming(library, device, options, space);
    streaming.calibrate();
    for (const Streaming_config& config : streaming.configs()) {
        const Streaming_evaluation e = streaming.evaluate(config);
        if (!e.feasible) continue;
        all.push_back({"streaming", {to_string(config), e.area_luts,
                                     e.seconds_per_frame, e.fps}});
    }
    return all;
}

// Pareto front of the points that pass `keep`, as indices into `points`.
template <class Keep>
std::vector<std::size_t> front_where(const std::vector<Tagged_point>& points,
                                     Keep keep) {
    std::vector<Design_point> dps;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!keep(points[i])) continue;
        dps.push_back({points[i].point.area_luts, points[i].point.seconds_per_frame, i});
    }
    std::vector<std::size_t> front;
    for (std::size_t i : pareto_front(dps)) front.push_back(dps[i].tag);
    return front;
}

bool same_objectives(const Front_point& a, const Front_point& b) {
    return a.area_luts == b.area_luts && a.seconds_per_frame == b.seconds_per_frame;
}

// The service's merged front is front(paper points + streaming points) over
// both backends' FULL point sets, although it is folded from the two
// entries' own fronts (the front-of-fronts identity); both backends
// contribute points, and every member lies on its own backend's front.
TEST(Backends, service_merged_front_is_front_of_union_of_full_point_sets) {
    const Sweep_config config = merged_sweep_config(2);
    Sweep_service service;
    const Sweep_report report = service.run(config);
    ASSERT_EQ(report.merged_fronts.size(), config.kernels.size());
    for (std::size_t k = 0; k < config.kernels.size(); ++k) {
        const std::string& kernel = config.kernels[k];
        SCOPED_TRACE(kernel);
        const Merged_front& merged = report.merged_fronts[k];
        ASSERT_EQ(merged.kernel, kernel);
        ASSERT_FALSE(merged.points.empty());
        const std::vector<Tagged_point> all = all_backend_points(config, kernel);

        std::map<std::string, int> contributed;
        for (const Tagged_point& t : all) ++contributed[t.backend];
        EXPECT_GT(contributed["paper"], 0);
        EXPECT_GT(contributed["streaming"], 0);

        // The front of the union, objective for objective and in order; each
        // member names a point of its backend with those objectives (equal
        // objectives may tie between candidates, so identity is checked by
        // membership rather than position).
        const std::vector<std::size_t> front =
            front_where(all, [](const Tagged_point&) { return true; });
        ASSERT_EQ(merged.points.size(), front.size());
        for (std::size_t i = 0; i < front.size(); ++i) {
            const Merged_front::Point& got = merged.points[i];
            EXPECT_TRUE(same_objectives(got.point, all[front[i]].point)) << i;
            EXPECT_EQ(got.point.fps, all[front[i]].point.fps) << i;
            EXPECT_TRUE(std::any_of(all.begin(), all.end(), [&](const Tagged_point& t) {
                return t.backend == got.backend && t.point.config == got.point.config &&
                       same_objectives(got.point, t.point);
            })) << got.backend << " " << got.point.config;
        }

        // ...and each member survives the front of its own backend alone
        // (front(A + B) can only thin a backend's own front, never add to it).
        for (const Merged_front::Point& got : merged.points) {
            const std::vector<std::size_t> own = front_where(
                all, [&](const Tagged_point& t) { return t.backend == got.backend; });
            EXPECT_TRUE(std::any_of(own.begin(), own.end(), [&](std::size_t i) {
                return same_objectives(got.point, all[i].point);
            })) << got.backend << " point " << got.point.config
                << " is on the merged front but not its backend's own front";
        }
    }
}

// The merged fronts, like every report column, are byte-identical across
// thread counts.
TEST(Backends, service_merged_fronts_identical_across_thread_counts) {
    std::string serial;
    for (int threads : {1, 2, 8}) {
        Sweep_service service;
        const std::string text = report_table(service.run(merged_sweep_config(threads)));
        if (threads == 1) {
            serial = text;
            EXPECT_NE(serial.find("merged pareto front"), std::string::npos);
        } else {
            EXPECT_EQ(text, serial) << "threads " << threads;
        }
    }
}

// The analytic streaming model against the cycle-approximate walk: on every
// kernel, for every feasible configuration, total modeled cycles stay within
// 10% of the walk (f_max cancels, so cycles compare directly).
TEST(Backends, streaming_model_tracks_cycle_walk_on_all_kernels) {
    const std::vector<std::string> kernels = kernel_names();
    ASSERT_GE(kernels.size(), 9u);
    const Fpga_device& device = device_by_name("xc6vlx760");
    const Evaluator_options evaluator_options = small_evaluator_options();
    const Space_options space = small_space();
    for (const std::string& kernel : kernels) {
        Cone_library library = make_library(kernel);
        Streaming_backend backend(library, device, evaluator_options, space);
        backend.calibrate();
        int checked = 0;
        for (const Streaming_config& config : backend.configs()) {
            const Streaming_evaluation eval = backend.evaluate(config);
            if (!eval.feasible) continue;
            Streaming_sim_options sim_options;
            sim_options.iterations = space.iterations;
            sim_options.fields_in = library.step().pool().field_count();
            sim_options.fields_out = library.step().state_field_count();
            sim_options.elems_per_cycle =
                config.channels * device.offchip_elems_per_cycle;
            const Streaming_sim_result sim = simulate_streaming_cycles(
                library, config, evaluator_options.frame_width,
                evaluator_options.frame_height, sim_options);
            ASSERT_EQ(sim.passes, eval.passes) << kernel << " " << to_string(config);
            const double model_cycles = eval.passes * eval.cycles_per_pass;
            const double walk_cycles = static_cast<double>(sim.total_cycles);
            ASSERT_GT(walk_cycles, 0.0) << kernel << " " << to_string(config);
            const double rel =
                std::abs(model_cycles - walk_cycles) / walk_cycles;
            EXPECT_LE(rel, 0.10)
                << kernel << " " << to_string(config) << ": model "
                << model_cycles << " vs walk " << walk_cycles;
            ++checked;
        }
        EXPECT_GT(checked, 0) << kernel;
    }
}

}  // namespace
}  // namespace islhls
