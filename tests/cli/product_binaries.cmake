# Proofs on the built product binaries, with nm and objdump:
#   - the product library and the CLI link no test oracle (src/oracle/) and
#     no comparison baseline (src/baseline/);
#   - the lane walks call no libm: every lane op runs as vector code, so a
#     sqrt, fmin or fmax call is a scalar call per lane in every ISA clone;
#   - AVX2 and SSE2 have no vector int64 <-> double conversion, so their
#     fixed walks' div and sqrt convert through the exact 2^52-bias form: a
#     cvtsi2sd or cvttsd2si there is a scalar conversion per lane.
#
#   cmake -DNM=nm -DOBJDUMP=objdump -DCLI=build/islhls \
#         -DLIBRARY=build/libislhls.a \
#         -DLANES=build/CMakeFiles/islhls.dir/src/sim/tape_lanes.cpp.o \
#         -P tests/cli/product_binaries.cmake
cmake_minimum_required(VERSION 3.16)

# Runs the pipeline of COMMAND lists in ARGN and sets `out` to what its last
# command, a grep or awk filter, prints. The tool feeding it must exit 0; a
# filter exit of 1 only means nothing matched.
function(run_pipeline out)
    execute_process(${ARGN}
                    RESULTS_VARIABLE codes
                    OUTPUT_VARIABLE stdout
                    ERROR_VARIABLE stderr)
    list(GET codes 0 tool)
    list(GET codes -1 filter)
    if(NOT tool EQUAL 0 OR filter GREATER 1)
        list(JOIN ARGN " " command)
        message(FATAL_ERROR "${command} exited ${codes}: ${stderr}")
    endif()
    set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

run_pipeline(oracles
    COMMAND "${NM}" -C "${CLI}" "${LIBRARY}"
    COMMAND grep -E "run_trace|run_fixed_raw|apply_op|evaluate_many|run_ir_reference|run_ir_fixed_reference|run_step_ir_reference|run_ghost_native|simulate_streaming_cycles|program_cost_reference|run_generic_hls|estimate_frame_buffer|literature_points|literature_for")
if(NOT oracles STREQUAL "")
    message(SEND_ERROR "test-oracle or baseline symbols in the product link:\n${oracles}")
endif()

run_pipeline(libm COMMAND "${NM}" -u "${LANES}" COMMAND grep -wE "sqrt|fmin|fmax")
if(NOT libm STREQUAL "")
    message(SEND_ERROR "libm calls in the lane walks:\n${libm}")
endif()

set(disassemble COMMAND "${OBJDUMP}" -d -C --no-show-raw-insn "${LANES}")
run_pipeline(walks ${disassemble}
             COMMAND grep -E "^[0-9a-f]+ <[^>]*lanes_(avx2|base)::fixed_")
if(walks STREQUAL "")
    message(FATAL_ERROR "no AVX2 or SSE2 fixed walk in ${LANES}")
endif()
run_pipeline(conversions ${disassemble} COMMAND awk
    [[/^[0-9a-f]+ <.*>:$/ { walk = /lanes_(avx2|base)::fixed_/ } walk && /cvtsi2sd|cvttsd2si/]])
if(NOT conversions STREQUAL "")
    message(SEND_ERROR "scalar int64 <-> double conversions in the AVX2 or SSE2 "
                       "fixed walk:\n${conversions}")
endif()
