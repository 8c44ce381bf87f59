// Golden behaviour corpus: the report table of a 13-kernel, two-backend
// sweep with every result column on (Pareto fronts, format search, double
// and fixed golden validation) is committed under tests/golden/. A cold run
// must reproduce it byte for byte, and so must a warm replay through the
// persistent cache — served entirely from entry hits, with nothing rebuilt —
// at 1, 2 and 4 threads, with the same footer counts at each.
// Any change to the models, the search, the report or the record codec that
// moves a single character of a result shows up here.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/service.hpp"
#include "core/sweep.hpp"
#include "kernels/kernels.hpp"
#include "support/text.hpp"

namespace islhls {
namespace {

namespace fs = std::filesystem;

std::string read_text(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// islhls sweep --kernels all --backend all --pareto --search-formats
//   --validate --validate-fixed --frame 64x48 --iterations 4 --threads 4
// (the table does not depend on the thread count; the test runs 1, 2 and 4).
Sweep_config corpus_config(int threads) {
    Sweep_config config;
    config.kernels = kernel_names();
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {4};
    config.frame_width = 64;
    config.frame_height = 48;
    config.backends = {"paper", "streaming"};
    config.with_pareto = true;
    config.validate = true;
    config.search_formats = true;
    config.validate_fixed = true;
    config.space.threads = threads;
    return config;
}

// The footer's count lines ("cache:" and "result cache:"), without the
// wall-time line: these must not depend on the thread schedule either.
std::string footer_counts(const Sweep_report& report) {
    std::string counts;
    for (const std::string& line : split(to_string(report), '\n')) {
        if (line.starts_with("cache: ") || line.starts_with("result cache: ")) {
            counts += line + "\n";
        }
    }
    return counts;
}

TEST(Golden_corpus, cold_and_warm_sweeps_reproduce_the_committed_table) {
    const std::string golden =
        read_text(std::string(ISLHLS_GOLDEN_DIR) + "/sweep_all_backends_64x48_n4.txt");
    ASSERT_FALSE(golden.empty()) << "missing golden fixture";
    std::string cold_counts;
    std::string warm_counts;
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(cat("threads ", threads));
        const std::string dir = (fs::temp_directory_path() /
                                 cat("islhls-golden-corpus-test-", threads))
                                    .string();
        fs::remove_all(dir);
        Service_options options;
        options.cache_dir = dir;
        const Sweep_config config = corpus_config(threads);
        {
            Sweep_service cold(options);
            const Sweep_report report = cold.run(config);
            EXPECT_EQ(report_table(report), golden);
            EXPECT_EQ(report.entry_stores, static_cast<int>(report.entries.size()));
            if (cold_counts.empty()) cold_counts = footer_counts(report);
            EXPECT_EQ(footer_counts(report), cold_counts);
        }
        // Every stored entry is a schema-v4 record.
        int entry_records = 0;
        for (const auto& file : fs::directory_iterator(dir)) {
            if (file.path().extension() != ".rec") continue;
            entry_records +=
                read_text(file.path().string()).find("\nsweep-entry v4\n") !=
                std::string::npos;
        }
        Sweep_service warm(options);
        const Sweep_report report = warm.run(config);
        EXPECT_EQ(report_table(report), golden);
        EXPECT_EQ(entry_records, static_cast<int>(report.entries.size()));
        EXPECT_EQ(report.entry_hits, static_cast<int>(report.entries.size()));
        EXPECT_EQ(report.entry_misses, 0);
        EXPECT_EQ(report.cone_builds, 0);
        EXPECT_EQ(report.synthesis_runs, 0);
        if (warm_counts.empty()) warm_counts = footer_counts(report);
        EXPECT_EQ(footer_counts(report), warm_counts);
        fs::remove_all(dir);
    }
}

}  // namespace
}  // namespace islhls
