# The CLI's user-error contract: every command below must exit 2, the user
# error code. A Qm.f format with f < 0 or m < 1 and a non-finite PSNR target
# are user errors on the command line and in a serve request file, where a
# bad option value must also name its file:line. Untrusted counts are
# bounded: a negative serve deadline, more than 10 attempts, a negative
# thread count in a request file and a thread count one past the 256 cap
# (a missed check starts at most a few hundred threads).
#
#   cmake -DISLHLS=build/islhls -DWORK=build/cli_user_errors \
#         -P tests/cli/user_errors.cmake
include(${CMAKE_CURRENT_LIST_DIR}/cli_common.cmake)

# Runs islhls with the remaining arguments inside WORK and sets `err` to its
# stderr; any exit code but 2 fails the test.
function(expect_user_error err)
    execute_process(COMMAND "${ISLHLS}" ${ARGN}
                    WORKING_DIRECTORY "${WORK}"
                    RESULT_VARIABLE code
                    OUTPUT_QUIET
                    ERROR_VARIABLE stderr)
    if(NOT code EQUAL 2)
        list(JOIN ARGN " " command)
        message(SEND_ERROR "islhls ${command} exited ${code}, expected 2: ${stderr}")
    endif()
    set(${err} "${stderr}" PARENT_SCOPE)
endfunction()

expect_user_error(err sweep --kernels heat --format Q20.-4)
file(WRITE "${WORK}/ok.req" "request\nkernels heat\niterations 2\nframe 64x48\nend\n")
expect_user_error(err serve --requests ok.req --deadline-ms -1)
expect_user_error(err serve --requests ok.req --retries 11)
file(WRITE "${WORK}/neg_threads.req" "request\nkernels heat\nthreads -1\nend\n")
expect_user_error(err serve --requests neg_threads.req)
expect_user_error(err sweep --kernels heat --threads 257)
expect_user_error(err builtin:heat --threads 257)
foreach(target nan -inf)
    expect_user_error(err sweep --kernels heat --search-formats --psnr ${target}
                      --frame 64x48 --iterations 2)
endforeach()

foreach(line "format Q20.-4" "threads abc" "psnr inf")
    file(WRITE "${WORK}/bad_value.req" "request\nkernels heat\n${line}\nend\n")
    expect_user_error(err serve --requests bad_value.req)
    if(NOT err MATCHES "bad_value\\.req:3:")
        message(SEND_ERROR "no file:line in the error for '${line}': ${err}")
    endif()
endforeach()
