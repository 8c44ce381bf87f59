// Section 4.3 reproduction: comparison against commercial HLS tools.
//
// The paper ran the IGF through Vivado HLS and Synphony C Compiler:
//   - the best directive combination reached only 0.14 fps on 1024x768;
//   - loop merging was rejected (inter-iteration dependencies);
//   - flattening + pipelining ran out of memory on a 16 GB machine.
// The generic-HLS cost model reproduces all three outcomes; our cone flow
// result on the same workload shows the orders-of-magnitude gap.
#include "baseline/frame_buffer.hpp"
#include "baseline/generic_hls.hpp"
#include "bench_common.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

int main() {
    using namespace islhls;
    using namespace islhls_bench;

    std::cout << "=== Sec. 4.3: commercial HLS tools vs the cone flow (IGF, "
                 "1024x768, N=10) ===\n\n";

    const Sweep_config config = paper_config();
    Sweep_service service;
    Explorer explorer = explorer_for(service, "igf", config);

    const auto menu = run_generic_hls_menu(
        service.library("igf").step(), config.iteration_counts.at(0), config.frame_width,
        config.frame_height, device_by_name(config.devices.at(0)));
    Table table({"directive", "outcome", "fps", "note"});
    for (const auto& r : menu) {
        table.add(to_string(r.directive), r.succeeded ? "ok" : "FAILED",
                  r.succeeded ? format_fixed(r.fps, 3) : std::string("-"),
                  r.succeeded ? "" : r.failure.substr(0, 60) + "...");
    }
    const auto fit = explorer.fit_device();
    table.add("cone flow (this work)", "ok", format_fixed(fit.best.throughput.fps, 1),
              to_string(fit.best.instance));
    std::cout << table << "\n";

    const Generic_hls_result& best = best_of(menu);
    std::cout << "best generic-HLS configuration: " << to_string(best.directive)
              << " at " << format_fixed(best.fps, 3)
              << " fps (paper: 0.14 fps); cone flow: "
              << format_fixed(fit.best.throughput.fps, 1) << " fps -> speedup "
              << format_fixed(fit.best.throughput.fps / best.fps, 0) << "x\n\n";

    int merge_failed = 0;
    int oom_failed = 0;
    for (const auto& r : menu) {
        if (r.directive == Hls_directive::loop_merge && !r.succeeded) merge_failed = 1;
        if (r.directive == Hls_directive::flatten_and_pipeline && !r.succeeded) {
            oom_failed = 1;
        }
    }
    report_claim("loop merge fails on the ISL inter-iteration dependency",
                 merge_failed == 1);
    report_claim("flatten+pipeline exhausts tool memory on realistic frames",
                 oom_failed == 1);
    report_claim(cat("generic HLS stays sub-real-time (best ",
                     format_fixed(best.fps, 3), " fps, paper 0.14)"),
                 best.fps < 3.0);
    report_claim(cat("cone flow is orders of magnitude faster (",
                     format_fixed(fit.best.throughput.fps / best.fps, 0), "x)"),
                 fit.best.throughput.fps / best.fps > 100.0);
    return claims_exit_code();
}
