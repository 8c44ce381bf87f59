// Request-file parser robustness: `islhls serve` request files are untrusted
// input. Arbitrary bytes and seeded mutations of a valid file — bit flips,
// truncation, dropped, swapped or duplicated lines, near-miss characters
// and random bytes — must either parse or raise a User_error whose message
// starts with `name:line:`, never another exception or a crash. The harness
// only parses: no parsed request is ever run.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/requests.hpp"
#include "fuzz_env.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "support/text.hpp"

namespace islhls {
namespace {

constexpr char kName[] = "fuzz.req";

// Every option the parser knows, flags and valued ones, plus the comment
// and blank-line forms.
constexpr char kValidFile[] =
    "# sweep requests\n"
    "request\n"
    "  kernels igf,jacobi\n"
    "  devices xc6vlx760\n"
    "  iterations 2,4\n"
    "  frame 64x48\n"
    "  format Q10.6\n"
    "  threads 2\n"
    "  backend all\n"
    "  pareto\n"
    "  validate\n"
    "  search-formats\n"
    "  psnr 45.5\n"
    "  validate-fixed\n"
    "end\n"
    "\n"
    "request\n"
    "  kernels heat\n"
    "  devices all\n"
    "end\n";

// True when `message` starts with `kName:<line>:`, line a positive integer.
bool names_a_line(const std::string& message) {
    const std::string prefix = cat(kName, ":");
    if (message.compare(0, prefix.size(), prefix) != 0) return false;
    std::size_t i = prefix.size();
    const std::size_t digits = i;
    while (i < message.size() && std::isdigit(static_cast<unsigned char>(message[i]))) ++i;
    return i > digits && message[digits] != '0' && i < message.size() && message[i] == ':';
}

// Parses `text`; on rejection the error must be a User_error naming a line.
void expect_parsed_or_located(const std::string& text, const std::string& context) {
    try {
        const std::vector<Sweep_config> requests = parse_requests(text, kName);
        if (requests.empty()) ADD_FAILURE() << context << ": parsed no requests";
    } catch (const User_error& e) {
        if (!names_a_line(e.what())) {
            ADD_FAILURE() << context << ": error names no line: " << e.what();
        }
    } catch (const std::exception& e) {
        ADD_FAILURE() << context << ": threw a non-user error: " << e.what();
    }
}

std::size_t pick(Prng& rng, std::size_t size) {
    return static_cast<std::size_t>(rng.next_u64() % size);
}

// Characters that steer mutations toward near misses of the grammar:
// separators, signs, digits, option punctuation and line structure.
constexpr char kNearMiss[] = ",x.-+ 0Q#\n\t\ra";

std::string mutate(std::string text, Prng& rng) {
    std::vector<std::string> lines = split(text, '\n');
    const auto rejoin = [&lines] { return join(lines, "\n"); };
    switch (rng.next_u64() % 8) {
        case 0:  // flip one bit
            if (!text.empty()) {
                text[pick(rng, text.size())] ^= static_cast<char>(1 << pick(rng, 8));
            }
            return text;
        case 1:  // truncate
            return text.substr(0, pick(rng, text.size() + 1));
        case 2:  // drop a line
            lines.erase(lines.begin() +
                        static_cast<std::ptrdiff_t>(pick(rng, lines.size())));
            return rejoin();
        case 3:  // swap two lines
            std::swap(lines[pick(rng, lines.size())], lines[pick(rng, lines.size())]);
            return rejoin();
        case 4: {  // duplicate a line
            const std::size_t at = pick(rng, lines.size());
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
            return rejoin();
        }
        case 5:  // insert a near-miss character
            text.insert(pick(rng, text.size() + 1), 1,
                        kNearMiss[pick(rng, sizeof kNearMiss - 1)]);
            return text;
        case 6:  // overwrite a character with a near miss
            if (!text.empty()) {
                text[pick(rng, text.size())] = kNearMiss[pick(rng, sizeof kNearMiss - 1)];
            }
            return text;
        default: {  // overwrite a short span with random bytes
            const std::size_t at = pick(rng, text.size() + 1);
            const std::size_t span = 1 + pick(rng, 8);
            for (std::size_t i = at; i < std::min(text.size(), at + span); ++i) {
                text[i] = static_cast<char>(rng.next_u64() & 0xFF);
            }
            return text;
        }
    }
}

TEST(Requests_fuzz, valid_file_parses_every_option) {
    const std::vector<Sweep_config> requests = parse_requests(kValidFile, kName);
    ASSERT_EQ(requests.size(), 2u);
    const Sweep_config& first = requests[0];
    EXPECT_EQ(first.kernels, (std::vector<std::string>{"igf", "jacobi"}));
    EXPECT_EQ(first.iteration_counts, (std::vector<int>{2, 4}));
    EXPECT_EQ(first.frame_width, 64);
    EXPECT_EQ(first.frame_height, 48);
    EXPECT_EQ(first.space.threads, 2);
    EXPECT_EQ(first.backends, sweep_backends());
    EXPECT_TRUE(first.with_pareto && first.validate && first.search_formats &&
                first.validate_fixed);
    EXPECT_EQ(first.format_search.target_psnr_db, 45.5);
    EXPECT_EQ(requests[1].kernels, (std::vector<std::string>{"heat"}));
    EXPECT_EQ(requests[1].iteration_counts, default_sweep_config().iteration_counts);
}

TEST(Requests_fuzz, every_rejection_names_its_line) {
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"", "fuzz.req:1: no requests"},
        {"# only a comment\n", "fuzz.req:2: no requests"},
        {"request\nkernels heat\n", "fuzz.req:1: request never closed"},
        {"request\nend\n", "fuzz.req:1: request needs a 'kernels' line"},
        {"request\nrequest\n", "fuzz.req:2: 'request' inside a request"},
        {"end\n", "fuzz.req:1: 'end' without a 'request'"},
        {"kernels heat\n", "fuzz.req:1: expected 'request'"},
        {"request\nkernels heat\nthreads abc\nend\n",
         "fuzz.req:3: bad thread count 'abc', expected an integer"},
        {"request\nkernels heat\npsnr nan\nend\n",
         "fuzz.req:3: bad PSNR target 'nan', expected a finite number"},
        {"request\nkernels heat\nfoo 1\nend\n", "fuzz.req:3: unknown request option"},
        {"request\nkernels heat\npareto yes\nend\n", "fuzz.req:3: option 'pareto'"},
        {"request\nkernels\nend\n", "fuzz.req:2: option 'kernels' needs a value"},
    };
    for (const auto& [text, expected] : cases) {
        try {
            parse_requests(text, kName);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const User_error& e) {
            EXPECT_EQ(std::string(e.what()).compare(0, expected.size(), expected), 0)
                << e.what();
        }
    }
}

TEST(Requests_fuzz, mutated_files_parse_or_name_a_line) {
    const std::uint64_t base = fuzz::seed_base(0x5eedf11e5eedULL);
    const int trials = 4000 * fuzz::scale();
    for (int trial = 0; trial < trials; ++trial) {
        const std::uint64_t seed = base + static_cast<std::uint64_t>(trial);
        Prng rng(seed);
        std::string text = kValidFile;
        const int edits = 1 + static_cast<int>(pick(rng, 4));
        for (int e = 0; e < edits; ++e) text = mutate(std::move(text), rng);
        expect_parsed_or_located(text, cat("seed=", seed));
        if (HasFailure()) return;  // one reproducer is enough
    }
}

TEST(Requests_fuzz, arbitrary_bytes_parse_or_name_a_line) {
    const std::uint64_t base = fuzz::seed_base(0xb17e5b17e5ULL);
    const int trials = 2000 * fuzz::scale();
    for (int trial = 0; trial < trials; ++trial) {
        const std::uint64_t seed = base + static_cast<std::uint64_t>(trial);
        Prng rng(seed);
        std::string text(pick(rng, 256), '\0');
        for (char& c : text) c = static_cast<char>(rng.next_u64() & 0xFF);
        expect_parsed_or_located(text, cat("seed=", seed));
        if (HasFailure()) return;
    }
}

}  // namespace
}  // namespace islhls
