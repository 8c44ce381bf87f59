# Shared by the CLI test scripts: each runs the built islhls (ISLHLS) inside
# its own work directory (WORK), wiped at start, so the scripts can run side
# by side under `ctest -j`.
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs islhls with the remaining arguments inside WORK and sets `out` to its
# stdout; a non-zero exit fails the test.
function(run_islhls out)
    execute_process(COMMAND "${ISLHLS}" ${ARGN}
                    WORKING_DIRECTORY "${WORK}"
                    RESULT_VARIABLE code
                    OUTPUT_VARIABLE stdout
                    ERROR_VARIABLE stderr)
    if(NOT code EQUAL 0)
        list(JOIN ARGN " " command)
        message(SEND_ERROR "islhls ${command} exited ${code}: ${stderr}")
    endif()
    set(${out} "${stdout}" PARENT_SCOPE)
endfunction()
