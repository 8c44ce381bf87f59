#include "sim/fixed_exec.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace islhls {

void run_raw_batch(const Fixed_tape& tape, const std::int64_t* inputs, std::size_t samples,
                   std::int64_t* outputs, Lane_block<Fixed_tape>& block) {
    const std::size_t stride = lane_stride(samples);
    block.bind(tape, stride);
    std::int64_t** slot = block.slot();
    const std::vector<Tape_input>& ins = tape.tape().inputs();
    const std::vector<std::int32_t>& out_slots = tape.tape().output_slots();
    const std::size_t in_count = ins.size();
    const std::size_t out_count = out_slots.size();
    const Bit_wrap& wrap = tape.wrap();

    for (std::size_t s0 = 0; s0 < samples; s0 += stride) {
        const int n = static_cast<int>(std::min(stride, samples - s0));
        for (std::size_t i = 0; i < in_count; ++i) {
            std::int64_t* dst = slot[ins[i].slot];
            const std::int64_t* src = inputs + s0 * in_count + i;
            for (int l = 0; l < n; ++l) {
                dst[l] = wrap(src[static_cast<std::size_t>(l) * in_count]);
            }
        }
        run_tape(tape, slot, n);
        for (std::size_t o = 0; o < out_count; ++o) {
            const std::int64_t* src = slot[out_slots[o]];
            std::int64_t* dst = outputs + s0 * out_count + o;
            for (int l = 0; l < n; ++l) {
                dst[static_cast<std::size_t>(l) * out_count] = src[l];
            }
        }
    }
}

}  // namespace islhls
