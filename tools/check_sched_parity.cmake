# Test driver: the compiled (default) scheduler must be byte-exact
# against the single-step oracle on the full fault campaign. The
# campaign runs once per scheduler; each run must write one report per
# scenario plus the healthy reference (run totals, stitch plan, stats
# dump), the two report sets must be equal, and every pair must
# compare equal byte for byte. Invoked by sched_parity_is_exact with
# -DFAULT_CAMPAIGN=... -DOUT_DIR=...

foreach(sched step compiled)
    set(dir "${OUT_DIR}/sched_parity_${sched}")
    file(REMOVE_RECURSE "${dir}")
    execute_process(
        COMMAND "${FAULT_CAMPAIGN}" "--scheduler=${sched}" "--out=${dir}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
    if(NOT rc EQUAL 0 OR NOT out MATCHES "\n([0-9]+) scenarios;")
        message(FATAL_ERROR "fault_campaign --scheduler=${sched} failed "
                            "(status ${rc}) or printed no scenario count")
    endif()
    math(EXPR want "${CMAKE_MATCH_1} + 1") # + the healthy reference
    file(GLOB reports_${sched} RELATIVE "${dir}" "${dir}/*.json")
    list(LENGTH reports_${sched} count)
    if(NOT count EQUAL want)
        message(FATAL_ERROR "the ${sched} campaign wrote ${count} "
                            "reports, expected ${want}")
    endif()
endforeach()

if(NOT reports_step STREQUAL reports_compiled)
    message(FATAL_ERROR "step and compiled wrote different report sets:"
                        "\n  ${reports_step}\n  ${reports_compiled}")
endif()

foreach(name IN LISTS reports_step)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${OUT_DIR}/sched_parity_step/${name}"
                "${OUT_DIR}/sched_parity_compiled/${name}"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "scheduler parity violated: ${name} differs between "
                "--scheduler=step and --scheduler=compiled")
    endif()
endforeach()

message(STATUS "${count} scenario reports byte-identical across "
               "step/compiled schedulers")
