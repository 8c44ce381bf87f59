// Figure 6 reproduction: IGF Pareto curve (time per frame vs kLUTs) for
// 1024x768 frames. The paper shows the evaluated cloud with the Pareto set
// in a zoomed window; the exploration "typically requires the evaluation of
// a few hundreds of solutions".
#include <algorithm>

#include "bench_common.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

int main() {
    using namespace islhls;
    using namespace islhls_bench;

    std::cout << "=== Fig. 6: IGF Pareto curve (1024x768) ===\n\n";

    Sweep_service service;
    const auto result = explorer_for(service, "igf").explore_pareto();

    std::cout << "evaluated " << result.points.size()
              << " design points (paper: a few hundred), Pareto set of "
              << result.front.size() << "\n\n";

    Table table({"kLUTs (est)", "ms/frame", "fps", "architecture"});
    for (std::size_t idx : result.front) {
        const auto& p = result.points[idx];
        table.add(format_fixed(p.estimated_area_luts / 1000.0, 1),
                  format_fixed(p.throughput.seconds_per_frame * 1e3, 3),
                  format_fixed(p.throughput.fps, 1), to_string(p.instance));
    }
    std::cout << table << "\n";

    // Claims: curve shape (monotone trade-off), point count in the paper's
    // order of magnitude, and a wide dynamic range on both axes.
    bool monotone = true;
    for (std::size_t i = 1; i < result.front.size(); ++i) {
        const auto& prev = result.points[result.front[i - 1]];
        const auto& cur = result.points[result.front[i]];
        if (!(cur.estimated_area_luts > prev.estimated_area_luts &&
              cur.throughput.seconds_per_frame < prev.throughput.seconds_per_frame)) {
            monotone = false;
        }
    }
    report_claim("Pareto front trades area monotonically against time", monotone);
    report_claim(cat("evaluation count in the paper's 'few hundreds' regime: ",
                     result.points.size()),
                 result.points.size() >= 100 && result.points.size() <= 5000);
    const auto [min_it, max_it] = std::minmax_element(
        result.front.begin(), result.front.end(), [&](std::size_t a, std::size_t b) {
            return result.points[a].throughput.seconds_per_frame <
                   result.points[b].throughput.seconds_per_frame;
        });
    const double spread =
        result.points[*max_it].throughput.seconds_per_frame /
        result.points[*min_it].throughput.seconds_per_frame;
    report_claim(cat("front spans >50x in time per frame (spread ",
                     format_fixed(spread, 0), "x)"),
                 spread > 50.0);
    return claims_exit_code();
}
