# The result cache's contract end to end at the CLI, on 64x48 frames, with a
# cold multi-backend sweep (paper + streaming, merged Pareto fronts, format
# search, golden validation in both value domains):
#   - two passes over one --cache-dir print the same table, the warm one
#     served entirely from the cache, and the store verifies clean;
#   - a serve batch run twice over one --cache-dir prints the same tables,
#     every warm outcome served entirely from the cache;
#   - two islhls processes racing cold sweeps into one fresh --cache-dir
#     print the same table, exit 0, leave a store that verifies clean, and a
#     warm follow-up is served entirely from the raced store. This case is a
#     smoke test of the multi-process path, not a proof of the directory
#     lock: both processes store identical bytes, so a torn or lost store is
#     re-stored by the other and a broken lock stays green here. The lock's
#     real proof is test_result_cache's fork-based stress
#     (two_processes_store_and_gc_concurrently_without_loss).
#
#   cmake -DISLHLS=build/islhls -DWORK=build/cli_cache_test \
#         -P tests/cli/cache_test.cmake
include(${CMAKE_CURRENT_LIST_DIR}/cli_common.cmake)

set(sweep sweep --kernels igf,jacobi --iterations 2,3 --frame 64x48 --validate
    --validate-fixed --search-formats --backend all --pareto)

# Fails the test unless `text` matches `regex`.
function(expect_match name text regex)
    if(NOT "${text}" MATCHES "${regex}")
        message(SEND_ERROR "${name}: no match for '${regex}' in:\n${text}")
    endif()
endfunction()

# Fails the test unless reports `a` and `b` are byte-identical once the
# meter and timing footer lines, the only ones a pass may change, are
# dropped. A mismatch leaves both texts in WORK as <name>.a and <name>.b.
function(expect_same_tables name a b)
    foreach(side a b)
        string(REGEX REPLACE "\n(cache:|result cache:|virtual synthesis)[^\n]*" ""
               ${side} "\n${${side}}")
    endforeach()
    if(NOT "${a}" STREQUAL "${b}")
        file(WRITE "${WORK}/${name}.a" "${a}")
        file(WRITE "${WORK}/${name}.b" "${b}")
        message(SEND_ERROR "${name}: tables differ (see ${WORK}/${name}.a and .b)")
    endif()
endfunction()

# Fails the test unless a warm report served every entry from the cache,
# building no cone and running no synthesis.
function(expect_served_from_cache name report)
    expect_match(${name} "${report}" "result cache: [1-9][0-9]* entry hits, 0 entry misses")
    expect_match(${name} "\n${report}" "\ncache: 0 cones built, [0-9]+ cone hits; 0 syntheses run")
endfunction()

# Runs `cache --verify` on `dir`, which must exit 0 and find nothing wrong.
function(expect_clean_store dir)
    run_islhls(verify cache --cache-dir ${dir} --verify)
    expect_match(${dir} "${verify}" "0 corrupt, 0 quarantined, 0 orphaned temp files")
endfunction()

# Two passes: the cold one also carries both backends and the merged front.
run_islhls(cold ${sweep} --cache-dir cache)
run_islhls(warm ${sweep} --cache-dir cache)
expect_same_tables(two_pass "${cold}" "${warm}")
expect_served_from_cache(two_pass_warm "${warm}")
expect_match(two_pass_cold "${cold}" "stream\\(d=")
expect_match(two_pass_cold "${cold}" "merged pareto front")
expect_clean_store(cache)

# A serve batch of overlapping igf/jacobi requests, one duplicate and one
# listing a kernel twice (its repeat is served the entry the first
# occurrence stored).
set(opts "frame 64x48\nbackend all\npareto\nsearch-formats\nvalidate\nvalidate-fixed\n")
file(WRITE "${WORK}/requests.txt"
     "request\nkernels igf,jacobi\niterations 2,3\n${opts}end\n"
     "request\nkernels igf\niterations 2\n${opts}end\n"
     "request\nkernels jacobi,jacobi\niterations 4\n${opts}end\n"
     "request\nkernels igf\niterations 2\n${opts}end\n")
run_islhls(serve_cold serve --requests requests.txt --cache-dir cache-serve)
run_islhls(serve_warm serve --requests requests.txt --cache-dir cache-serve)
expect_same_tables(serve "${serve_cold}" "${serve_warm}")
string(REGEX MATCHALL "\n=== request" outcomes "\n${serve_warm}")
string(REGEX MATCHALL "result cache: [1-9][0-9]* entry hits, 0 entry misses" hits
       "${serve_warm}")
list(LENGTH outcomes outcome_count)
list(LENGTH hits hit_count)
if(NOT outcome_count EQUAL 4 OR NOT hit_count EQUAL outcome_count)
    message(SEND_ERROR "warm serve batch: ${hit_count} of ${outcome_count} outcomes "
                       "served from the cache, expected 4 of 4:\n${serve_warm}")
endif()

# Two processes race cold sweeps into one fresh directory: both start before
# the shell waits on either. A smoke test (see the header): it catches a
# crash, a missing entry or a leftover temp file, not a broken lock.
execute_process(COMMAND sh -c [[
                    "$0" "$@" > race_a.txt 2> race_a.err & a=$!
                    "$0" "$@" > race_b.txt 2> race_b.err & b=$!
                    wait $a; code_a=$?
                    wait $b; code_b=$?
                    echo "$code_a $code_b"
                ]] "${ISLHLS}" ${sweep} --cache-dir cache-race
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_VARIABLE codes)
if(NOT codes STREQUAL "0 0\n")
    file(READ "${WORK}/race_a.err" err_a)
    file(READ "${WORK}/race_b.err" err_b)
    message(SEND_ERROR "racing sweeps exited ${codes}: ${err_a}${err_b}")
endif()
file(READ "${WORK}/race_a.txt" race_a)
file(READ "${WORK}/race_b.txt" race_b)
expect_same_tables(race "${race_a}" "${race_b}")
run_islhls(race_warm ${sweep} --cache-dir cache-race)
expect_same_tables(race_warm "${race_a}" "${race_warm}")
expect_served_from_cache(race_warm "${race_warm}")
expect_clean_store(cache-race)
