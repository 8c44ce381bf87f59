# The single-kernel CLI's contract: runs the built islhls on fixed inputs
# and compares stdout, and the emitted VHDL's file list, sizes and SHA-256
# digests, byte for byte with the expected text in tests/cli/.
#
#   cmake -DISLHLS=build/islhls -DCASES=tests/cli -DWORK=build/cli_test \
#         -P tests/cli/cli_test.cmake
#
# A mismatch leaves the actual text next to the work directory's emitted
# files as <case>.actual, so `diff` shows what moved.
include(${CMAKE_CURRENT_LIST_DIR}/cli_common.cmake)

# Fails the test unless `actual` equals the text of CASES/<name>.expected.
function(expect_text name actual)
    file(READ "${CASES}/${name}.expected" expected)
    if(NOT "${actual}" STREQUAL "${expected}")
        file(WRITE "${WORK}/${name}.actual" "${actual}")
        message(SEND_ERROR "${name}: output differs from ${CASES}/${name}.expected "
                           "(actual in ${WORK}/${name}.actual)")
    endif()
endfunction()

run_islhls(out builtin:igf --describe --pareto --fit --frame 320x240 --iterations 4)
expect_text(igf_describe_pareto_fit "${out}")

run_islhls(out builtin:chambolle --fit --device xc7vx485t)
expect_text(chambolle_fit "${out}")

run_islhls(out "${CASES}/blur5.c" --iterations 3 --frame 64x48
           --device generic_small --fit --emit-vhdl vhdl)
expect_text(blur5_emit "${out}")
file(GLOB emitted RELATIVE "${WORK}/vhdl" "${WORK}/vhdl/*")
list(SORT emitted)
set(listing "")
foreach(name IN LISTS emitted)
    file(SIZE "${WORK}/vhdl/${name}" size)
    file(SHA256 "${WORK}/vhdl/${name}" digest)
    string(APPEND listing "${name} ${size} ${digest}\n")
endforeach()
expect_text(blur5_vhdl "${listing}")

# Two runs over one --cache-dir: the warm run prints the cold run's text and
# serves its one entry from the cache, with nothing built or synthesized.
set(cached "${CASES}/blur5.c" --iterations 3 --frame 64x48 --device generic_small
    --fit --cache-dir cache)
run_islhls(cold ${cached})
run_islhls(warm ${cached})
foreach(pass cold warm)
    string(FIND "${${pass}}" "\ncache: " footer)
    string(SUBSTRING "${${pass}}" 0 ${footer} ${pass}_text)
endforeach()
if(NOT "${warm_text}" STREQUAL "${cold_text}")
    message(SEND_ERROR "warm cached run printed different text:\n${warm}")
endif()
if(NOT "${cold}" MATCHES "result cache: 0 entry hits, 1 entry misses, 1 stored;")
    message(SEND_ERROR "cold cached run did not store its entry:\n${cold}")
endif()
if(NOT "${warm}" MATCHES "\ncache: 0 cones built, 0 cone hits; 0 syntheses run" OR
   NOT "${warm}" MATCHES "result cache: 1 entry hits, 0 entry misses, 0 stored;")
    message(SEND_ERROR "warm cached run was not served from the cache:\n${warm}")
endif()
