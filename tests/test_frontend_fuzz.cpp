// Frontend robustness: mutated inputs must fail cleanly (library Error with
// a message), never crash, hang or corrupt state, whether they reach the
// frontend directly or as a source kernel of the sweep service. This guards
// the error paths a real user hits constantly.
#include <gtest/gtest.h>

#include "core/service.hpp"
#include "fuzz_env.hpp"
#include "kernels/kernels.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

// Runs the full frontend on `source`, directly and through the sweep
// service's front door (add_kernel); success or islhls::Error both count as
// clean outcomes, anything else fails the test.
void expect_clean(const std::string& source) {
    try {
        Symexec_options options;
        options.max_unroll = 512;  // keep mutated loops cheap
        const Stencil_step step = extract_stencil(source, options);
        (void)step;
    } catch (const Error&) {
        // fine: diagnosed
    }
    try {
        Sweep_service().add_kernel(source);
    } catch (const Error&) {
        // fine: diagnosed
    }
}

class Truncation_fuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(Truncation_fuzz, every_prefix_is_handled) {
    const std::string source = kernel_by_name(GetParam()).c_source;
    // Cutting the source at arbitrary points exercises every "unexpected
    // end of input" path of the lexer and parser.
    for (std::size_t len = 0; len < source.size(); len += 7) {
        SCOPED_TRACE(len);
        expect_clean(source.substr(0, len));
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Truncation_fuzz,
                         ::testing::Values("igf", "chambolle", "shock", "mean",
                                           "conway", "fdtd"),
                         [](const auto& info) { return info.param; });

class Mutation_fuzz : public ::testing::TestWithParam<int> {};

TEST_P(Mutation_fuzz, random_character_edits_are_handled) {
    Prng rng(fuzz::seed_base(static_cast<std::uint64_t>(GetParam()) * 1299721u));
    const std::vector<std::string> names = kernel_names();
    static const char replacements[] = "()[]{};=+-*/<>!&|?:xy01. ";
    const int trials = 120 * fuzz::scale();
    for (int trial = 0; trial < trials; ++trial) {
        std::string source =
            kernel_by_name(names[static_cast<std::size_t>(
                               rng.next_int(0, static_cast<int>(names.size()) - 1))])
                .c_source;
        const int edits = rng.next_int(1, 4);
        for (int e = 0; e < edits; ++e) {
            const std::size_t pos = static_cast<std::size_t>(
                rng.next_int(0, static_cast<int>(source.size()) - 1));
            switch (rng.next_int(0, 2)) {
                case 0:  // replace
                    source[pos] = replacements[rng.next_int(
                        0, static_cast<int>(sizeof(replacements)) - 2)];
                    break;
                case 1:  // delete
                    source.erase(pos, 1);
                    break;
                default:  // insert
                    source.insert(pos, 1,
                                  replacements[rng.next_int(
                                      0, static_cast<int>(sizeof(replacements)) - 2)]);
                    break;
            }
        }
        SCOPED_TRACE(trial);
        expect_clean(source);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Mutation_fuzz, ::testing::Range(1, 7));

}  // namespace
}  // namespace islhls
