// Self-test of the benchmark: the noise guards, the trace's self-time
// arithmetic, and the small-frame golden digests re-derived from the
// reference interpreters (and matched by the frame engine).
#include <cmath>
#include <functional>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "digests.hpp"
#include "kernels/kernels.hpp"
#include "sim/golden.hpp"
#include "symexec/executor.hpp"

namespace {

using namespace islbench;

int failures = 0;

void expect(bool condition, const std::string& what) {
    if (!condition) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

bool throws_guard(const std::function<void()>& body) {
    try {
        body();
    } catch (const Guard_error&) {
        return true;
    }
    return false;
}

void test_percentile_guard() {
    const std::vector<double> ninety_nine(99, 1.0);
    const std::vector<double> hundred(100, 1.0);
    expect(throws_guard([&] { guarded_percentile(ninety_nine, 0.9, 100.0); }),
           "p90 of 99 samples has 9 beyond it and must be refused");
    expect(!throws_guard([&] { guarded_percentile(hundred, 0.9, 0.0); }),
           "p90 of 100 samples is allowed");
    expect(!throws_guard([] { guarded_percentile({3.0, 1.0, 2.0}, 0.5, 6.0); }),
           "median of three long ops is allowed");
    expect(throws_guard([] { guarded_percentile({3.0, 1.0, 2.0}, 0.5, 0.5); }),
           "median of three short ops is refused");
    expect(guarded_percentile({3.0, 1.0, 2.0}, 0.5, 6.0) == 2.0, "median value");
    std::vector<double> ramp;
    for (int i = 0; i <= 100; ++i) ramp.push_back(i);
    expect(std::abs(guarded_percentile(ramp, 0.9, 0.0) - 90.0) < 1e-9,
           "interpolated p90");
}

void test_metric_guards() {
    Metric_set set;
    expect(throws_guard([&] { set.add("op_wall_ms_p50", "ms", 1.0, 0); }),
           "a metric without samples is refused");
    set.add("setup_s", "s", 0.5, 3);
    expect(throws_guard([&] { set.add("setup_s", "s", 0.5, 3); }),
           "a repeated metric is refused");
    expect(throws_guard([&] { set.require_exactly(end_to_end_metric_names()); }),
           "a missing metric fails the run");
    set.add("op_wall_ms_p50", "ms", 1.0, 20);
    set.add("peak_rss_mb", "MB", 12.0, 1);
    set.add("ok_frac", "fraction", 1.0, 20);
    expect(!throws_guard([&] { set.require_exactly(end_to_end_metric_names()); }),
           "the full end-to-end set passes");
    set.add("cone.builds", "count", 585, 585);
    expect(throws_guard([&] { set.require_exactly(end_to_end_metric_names()); }),
           "a stray metric fails the run");
}

void test_self_times() {
    std::vector<Span> spans(5);
    spans[0] = {"root", "r", 0.0, 10.0, -1, 0};
    spans[1] = {"a", "r", 1.0, 3.0, 0, 0};
    spans[2] = {"b", "r", 2.0, 5.0, 0, 1};   // overlaps a (another thread)
    spans[3] = {"c", "r", 7.0, 12.0, 0, 0};  // clipped at the parent's end
    spans[4] = {"d", "r", 2.5, 3.5, 2, 1};
    const std::vector<double> self = self_times_us(spans);
    expect(std::abs(self[0] - 3.0) < 1e-12, "root self = 10 - [1,5] - [7,10]");
    expect(std::abs(self[2] - 2.0) < 1e-12, "b self = 3 - 1");
    expect(std::abs(self[4] - 1.0) < 1e-12, "leaf self = its duration");

    Tracer tracer;
    {
        Tracer::Scope outer(&tracer, "outer", "q");
        Tracer::Scope inner(&tracer, "inner", "q");
    }
    const std::vector<Span> recorded = tracer.spans();
    expect(recorded.size() == 2 && recorded[1].parent == 0 && recorded[0].parent == -1,
           "nested scopes record their parent");
}

void test_small_digests() {
    for (int variant = 0; variant < kSceneVariants; ++variant) {
        for (const Digest_cell& cell : sim_cells()) {
            if (cell.width != 256) continue;
            const std::uint64_t reference = reference_digest(cell, variant);
            expect(reference == committed_digest(cell, variant),
                   cell_name(cell) + ": committed digest differs from the reference");
            const islhls::Kernel_def& def = islhls::kernel_by_name(cell.kernel);
            const islhls::Stencil_step step = islhls::extract_stencil(def.c_source);
            const islhls::Frame_set initial =
                cell_initial(cell.kernel, cell.width, cell.height, variant);
            const std::uint64_t engine =
                cell.fixed ? output_digest(islhls::run_ir(step, initial, kSimIterations,
                                                          def.boundary,
                                                          cell_format(cell.kernel)))
                           : output_digest(islhls::run_ir(step, initial, kSimIterations,
                                                          def.boundary, 1));
            expect(engine == reference, cell_name(cell) + ": engine differs from reference");
        }
    }
}

}  // namespace

int main() {
    test_percentile_guard();
    test_metric_guards();
    test_self_times();
    test_small_digests();
    if (failures) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "test_islbench: all checks passed\n";
    return 0;
}
