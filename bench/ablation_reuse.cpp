// Ablation: the register-reuse technique of Sec. 3.2 / Fig. 4.
//
// The paper argues that plain symbolic execution explodes exponentially and
// that storing each repeated operation once ("register reuse") is what makes
// cone generation tractable. This bench quantifies it: for each kernel and
// cone geometry it compares the tree-expanded operation count (no reuse —
// what naive equation expansion would synthesize) against the DAG register
// count (with reuse), and translates the gap into virtual-synthesis area.
#include "bench_common.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

int main() {
    using namespace islhls;
    using namespace islhls_bench;

    std::cout << "=== Ablation: register reuse (Fig. 4's motivation) ===\n\n";

    Table table({"kernel", "cone", "ops w/o reuse", "registers w/ reuse", "reuse x",
                 "est kLUT w/o", "est kLUT w/"});
    double worst_blowup = 0.0;
    Sweep_service service;
    bool reuse_grows_with_depth = true;

    for (const char* kernel_name : {"igf", "chambolle", "jacobi", "mean"}) {
        Explorer explorer = explorer_for(service, kernel_name);
        double prev_reuse = 0.0;
        for (int d : {1, 2, 3, 4}) {
            const Cone_stats& stats = service.library(kernel_name).stats(4, d);
            const double with_reuse = explorer.evaluator().estimated_cone_area(4, d);
            // Without reuse each tree node is its own operator: area scales
            // by the reuse factor (same operator mix).
            const double without_reuse = with_reuse * stats.reuse_factor();
            table.add(kernel_name, to_string(stats.spec),
                      format_grouped(static_cast<long long>(
                          stats.naive_operation_count)),
                      stats.register_count, format_fixed(stats.reuse_factor(), 2),
                      format_fixed(without_reuse / 1e3, 1),
                      format_fixed(with_reuse / 1e3, 1));
            worst_blowup = std::max(worst_blowup, stats.reuse_factor());
            if (d > 1 && stats.reuse_factor() < prev_reuse) {
                reuse_grows_with_depth = false;
            }
            prev_reuse = stats.reuse_factor();
        }
    }
    std::cout << table << "\n";

    report_claim(cat("reuse saves >5x operators on deep cones (max ",
                     format_fixed(worst_blowup, 1), "x)"),
                 worst_blowup > 5.0);
    report_claim("the deeper the cone, the more the reuse matters (factor grows "
                 "with depth for every kernel)",
                 reuse_grows_with_depth);

    // The memory/performance conflict of Sec. 2.2: window buffers vs frames.
    Arch_instance instance;
    instance.window = 8;
    instance.level_depths = {5, 5};
    instance.cores_per_depth = {{5, 1}};
    const auto eval = explorer_for(service, "igf").evaluator().evaluate(instance);
    std::cout << "\non-chip buffers for w=8, [5,5]: "
              << format_fixed(eval.memory.total_kbits, 1) << " kbit vs whole-frame "
              << format_fixed(eval.memory.whole_frame_kbits / 1024.0, 1)
              << " Mbit (saving " << format_fixed(eval.memory.saving_factor, 0)
              << "x)\n";
    report_claim("cone buffers are orders of magnitude below whole-frame buffers",
                 eval.memory.saving_factor > 100.0);
    return claims_exit_code();
}
