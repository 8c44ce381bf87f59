// Functional simulation of a full cone architecture (the template of
// Sec. 3.1 / Fig. 3 of the paper).
//
// For every output window of the frame, the simulator materializes the
// initial input coverage (the window plus its N-iteration halo, read from
// the frame through the boundary policy — the off-chip transfer), then runs
// the levels deep-first: each level tiles its required coverage with cone
// executions whose inputs come from the previous level's buffer, exactly as
// the hardware sequencer would. The final level's window is written to the
// output frame. Transfer statistics are collected so benches can compare
// measured traffic against the throughput model's assumptions.
//
// The simulator validates the whole flow end to end: its output must equal
// the ghost-zone golden bit for bit in double mode, and the fixed-point mode
// measures quantization error of a format choice. Both modes execute cones
// through one level type — a tape and its Lane_block (sim/tape_lanes.hpp) —
// and the shared run_tape lane kernels: double mode runs the cone's
// compiled program on IEEE doubles, fixed mode its integer-lowered
// Fixed_tape (allocation-free, byte-identical to the run_fixed_raw
// reference interpreter in oracle/reference.hpp). The two modes differ only in the off-chip load
// and store. Fixed mode keeps the whole on-chip pipeline in raw Qm.f words:
// the off-chip load quantizes each element exactly once (saturating into
// the format's range) and the level regions hand raw, already-wrapped
// words to each other directly, so the result matches the fixed frame
// engine's ghost golden (sim/golden.hpp run_ghost_ir fixed overload) word
// for word.
#pragma once

#include "backend/fixed_point.hpp"
#include "dse/architecture.hpp"
#include "dse/cone_library.hpp"
#include "grid/frame_set.hpp"

namespace islhls {

struct Arch_sim_options {
    Boundary boundary = Boundary::clamp;
    bool fixed_point = false;  // run cones under Qm.f quantization
    Fixed_format format;
};

struct Transfer_stats {
    long long offchip_elements_read = 0;
    long long offchip_elements_written = 0;
    long long onchip_elements_read = 0;  // cone input fetches
    long long cone_executions = 0;
    long long operations_executed = 0;   // register ops across all executions
    long long output_windows = 0;

    // Redundancy of the tiling: how many ops ran per useful output element,
    // relative to a hypothetical zero-redundancy machine.
    double ops_per_output_element(long long frame_elements) const {
        return frame_elements > 0
                   ? static_cast<double>(operations_executed) / frame_elements
                   : 0.0;
    }
};

struct Arch_sim_result {
    Frame_set final_state;  // state fields after all iterations
    Transfer_stats stats;
};

// Simulates `instance` (its level structure; core counts are irrelevant to
// the functional result) on `initial`. Throws on malformed instances.
Arch_sim_result simulate_architecture(Cone_library& library,
                                      const Arch_instance& instance,
                                      const Frame_set& initial,
                                      const Arch_sim_options& options = {});

}  // namespace islhls
