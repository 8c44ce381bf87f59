// Built-in ISL kernels: the paper's two case studies plus a suite of
// classical stencil algorithms used by tests, examples and benches.
//
// Each kernel carries (a) its C source in the canonical ISL form consumed by
// the frontend, and (b) an independent native C++ implementation of one
// step. Tests cross-validate the whole frontend+symexec+cone chain against
// the native implementation (through the test oracle run_ghost_native in
// oracle/reference.hpp), so the two must agree bit-for-bit in double
// arithmetic. The two stay one definition here, so adding a kernel touches
// one module.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "grid/frame.hpp"
#include "grid/frame_set.hpp"

namespace islhls {

struct Kernel_def {
    std::string name;          // registry key, e.g. "igf"
    std::string display_name;  // e.g. "Iterative Gaussian Filter"
    std::string description;
    std::string c_source;      // canonical ISL C form
    std::vector<std::string> state_fields;
    std::vector<std::string> const_fields;
    int default_iterations = 10;
    Boundary boundary = Boundary::clamp;

    // Native single step: consumes the current state (and const fields),
    // returns the next state (const fields copied through unchanged).
    std::function<Frame_set(const Frame_set&, Boundary)> native_step;

    // Builds the initial Frame_set from a content frame (e.g. Chambolle
    // starts with zero dual fields and the image as constant field g).
    std::function<Frame_set(const Frame&)> make_initial;

    // The field to inspect as "the result" after iterating.
    std::string result_field;

    // True for kernels whose fields are declared `int`: every value is an
    // exact small integer, so the fixed-point engine reproduces the double
    // engine word for word with a Q m.0 format (see Stencil_step::
    // integer_native()).
    bool integer_only = false;
};

// All registered kernels, in a stable order.
const std::vector<Kernel_def>& all_kernels();

// Lookup by registry key; throws Error when unknown.
const Kernel_def& kernel_by_name(const std::string& name);

// Registry keys in order.
std::vector<std::string> kernel_names();

}  // namespace islhls
