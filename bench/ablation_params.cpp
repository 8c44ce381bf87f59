// Ablation: sensitivity of the reproduced claims to the calibrated model
// constants.
//
// Sweeps each of the four load-bearing throughput/area constants around its
// calibrated value and reports whether the two headline claims survive:
//   A. IGF divisor depths (1,2,5) beat non-divisor depths (3,4) on the V6;
//   B. Chambolle peak stays within 2x of the paper's ~24 fps.
// Robust claims hold across the whole sweep; fragile ones only near the
// calibration point — the table makes that explicit.
#include <functional>

#include "bench_common.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace {

using namespace islhls;

struct Claim_result {
    bool divisors_win = false;
    double igf_peak = 0.0;
    double chambolle_peak = 0.0;
};

Claim_result evaluate_claims(const Sweep_config& config) {
    Claim_result result;
    Sweep_service service;
    const auto fit = islhls_bench::explorer_for(service, "igf", config).fit_device();
    std::map<int, double> best_per_depth;
    for (const auto& cell : fit.grid) {
        if (cell.valid) {
            best_per_depth[cell.primary_depth] =
                std::max(best_per_depth[cell.primary_depth],
                         cell.eval.throughput.fps);
        }
    }
    const double worst_divisor =
        std::min({best_per_depth[1], best_per_depth[2], best_per_depth[5]});
    const double best_nondivisor = std::max(best_per_depth[3], best_per_depth[4]);
    result.divisors_win = worst_divisor > best_nondivisor;
    result.igf_peak = fit.has_best ? fit.best.throughput.fps : 0.0;

    const auto cfit =
        islhls_bench::explorer_for(service, "chambolle", config).fit_device();
    result.chambolle_peak = cfit.has_best ? cfit.best.throughput.fps : 0.0;
    return result;
}

}  // namespace

int main() {
    using namespace islhls_bench;

    std::cout << "=== Ablation: model-constant sensitivity ===\n\n";

    struct Sweep {
        const char* name;
        std::vector<double> values;
        std::function<void(Sweep_config&, double)> apply;
    };
    const std::vector<Sweep> sweeps{
        {"core_read_ports", {4, 8, 16},
         [](Sweep_config& c, double v) { c.throughput.core_read_ports = v; }},
        {"global_read_ports", {16, 32, 64},
         [](Sweep_config& c, double v) { c.throughput.global_read_ports = v; }},
        {"class_switch_cycles", {0, 60, 120, 240},
         [](Sweep_config& c, double v) { c.throughput.class_switch_cycles = v; }},
    };

    Table table({"constant", "value", "IGF peak fps", "divisors win", "Chambolle peak"});
    for (const Sweep& sweep : sweeps) {
        for (double v : sweep.values) {
            Sweep_config config = paper_config();
            sweep.apply(config, v);
            const Claim_result r = evaluate_claims(config);
            table.add(sweep.name, v, format_fixed(r.igf_peak, 1),
                      r.divisors_win ? "yes" : "no",
                      format_fixed(r.chambolle_peak, 1));
        }
    }
    std::cout << table << "\n";

    // What the ablation is meant to demonstrate:
    //   1. the claims hold at the calibrated point;
    //   2. the divisor effect is *caused* by the remainder-class penalty —
    //      turning the class-switch drain off must break it (if it held
    //      anyway, the penalty would be irrelevant and the paper's
    //      explanation wrong for this model);
    //   3. Chambolle's peak stays in the paper band across the bandwidth
    //      neighbourhood (it is not a knife-edge artifact).
    report_claim("claims hold at the calibrated point",
                 evaluate_claims(paper_config()).divisors_win);
    {
        Sweep_config no_penalty = paper_config();
        no_penalty.throughput.class_switch_cycles = 0.0;
        report_claim("removing the class-switch penalty breaks the divisor claim "
                     "(the paper's explanation is load-bearing)",
                     !evaluate_claims(no_penalty).divisors_win);
    }
    {
        bool in_band = true;
        for (double ports : {16.0, 32.0, 64.0}) {
            Sweep_config config = paper_config();
            config.throughput.global_read_ports = ports;
            const double peak = evaluate_claims(config).chambolle_peak;
            in_band = in_band && peak > 12.0 && peak < 48.0;
        }
        report_claim("Chambolle peak stays within 2x of the paper's 24 fps across "
                     "the bandwidth sweep",
                     in_band);
    }
    return claims_exit_code();
}
