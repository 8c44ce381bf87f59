// Micro-benchmarks (google-benchmark) of the flow's own compile-time costs:
// frontend+symbolic execution, cone construction, program lowering, virtual
// synthesis and Pareto extraction. These quantify the paper's point that the
// analysis side is cheap — it is the (real) synthesis that forces the
// estimation-based exploration.
#include <benchmark/benchmark.h>

#include "dse/cone_library.hpp"
#include "grid/frame_ops.hpp"
#include "dse/pareto.hpp"
#include "oracle/reference.hpp"
#include "sim/arch_sim.hpp"
#include "sim/golden.hpp"
#include "support/prng.hpp"
#include "symexec/executor.hpp"

namespace {

using namespace islhls;

void bench_symexec(benchmark::State& state) {
    const std::string& src =
        kernel_by_name(state.range(0) == 0 ? "igf" : "chambolle").c_source;
    for (auto _ : state) {
        Stencil_step step = extract_stencil(src);
        benchmark::DoNotOptimize(step.max_reach());
    }
}
BENCHMARK(bench_symexec)->Arg(0)->Arg(1)->Name("symexec/kernel");

void bench_cone_build(benchmark::State& state) {
    const int w = static_cast<int>(state.range(0));
    const int d = static_cast<int>(state.range(1));
    for (auto _ : state) {
        state.PauseTiming();
        Stencil_step step = extract_stencil(kernel_by_name("igf").c_source);
        state.ResumeTiming();
        const Cone cone(step, Cone_spec{w, w, d});
        benchmark::DoNotOptimize(cone.stats().register_count);
    }
    state.SetLabel("registers grow ~ w^2 * d");
}
BENCHMARK(bench_cone_build)
    ->Args({2, 2})
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({8, 4})
    ->Name("cone_build/igf");

void bench_virtual_synthesis(benchmark::State& state) {
    Stencil_step step = extract_stencil(kernel_by_name("chambolle").c_source);
    const Cone cone(step, Cone_spec{4, 4, 3});
    const Fpga_device& device = device_by_name("xc6vlx760");
    for (auto _ : state) {
        benchmark::DoNotOptimize(synthesize_cone(cone, "chambolle", device));
    }
}
BENCHMARK(bench_virtual_synthesis)->Name("virtual_synthesis/chambolle_w4d3");

void bench_cone_execution(benchmark::State& state) {
    Stencil_step step = extract_stencil(kernel_by_name("igf").c_source);
    const Cone cone(step, Cone_spec{4, 4, 3});
    const Register_program& prog = cone.program();
    Prng rng(1);
    std::vector<double> inputs;
    for (int i = 0; i < prog.input_count(); ++i) inputs.push_back(rng.next_in(0, 255));
    std::vector<double> regs;
    for (auto _ : state) {
        run_trace_into(prog, inputs, regs);
        benchmark::DoNotOptimize(regs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long long>(prog.outputs().size()));
}
BENCHMARK(bench_cone_execution)->Name("cone_execute/igf_w4d3");

void bench_pareto_extraction(benchmark::State& state) {
    Prng rng(7);
    std::vector<Design_point> points;
    for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
        points.push_back({rng.next_in(0, 1e6), rng.next_in(0, 1.0), i});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(pareto_front(points));
    }
}
BENCHMARK(bench_pareto_extraction)->Arg(100)->Arg(1000)->Arg(10000)->Name("pareto");

void bench_arch_simulation(benchmark::State& state) {
    const Kernel_def& kernel = kernel_by_name("igf");
    Cone_library library(extract_stencil(kernel.c_source), kernel.name);
    Arch_instance instance;
    instance.window = 4;
    instance.level_depths = {2, 2};
    const Frame content = make_synthetic_scene(64, 48, 5);
    const Frame_set initial = kernel.make_initial(content);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulate_architecture(library, instance, initial, {}));
    }
    state.SetItemsProcessed(state.iterations() * 64 * 48);
}
BENCHMARK(bench_arch_simulation)->Name("arch_sim/igf_64x48_d2d2");

}  // namespace

BENCHMARK_MAIN();
