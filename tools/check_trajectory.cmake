# Test driver: the fast end of the bench-trajectory harness. Three
# cheap benches emit --json metric documents, trajectory merges them,
# and the aggregate must be a valid stitch-bench-trajectory document
# naming every contributing bench. Invoked by
# bench_trajectory_aggregates with -DTABLE3=... -DTABLE4=...
# -DFIG13=... -DTRAJECTORY=... -DPYTHON=... -DOUT_DIR=...

set(traj "${OUT_DIR}/trajectory_subset.json")
set(inputs "")
foreach(pair IN ITEMS
        "TABLE3:table3_accel_area" "TABLE4:table4_noc_timing"
        "FIG13:fig13_power_area")
    string(REPLACE ":" ";" pair "${pair}")
    list(GET pair 0 var)
    list(GET pair 1 name)
    set(out "${OUT_DIR}/traj_${name}.json")
    execute_process(
        COMMAND "${${var}}" "--json=${out}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} failed with status ${rc}")
    endif()
    if(NOT EXISTS "${out}")
        message(FATAL_ERROR "${name} wrote no --json document")
    endif()
    list(APPEND inputs "${out}")
endforeach()

execute_process(
    COMMAND "${TRAJECTORY}" "${traj}" ${inputs}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trajectory failed with status ${rc}")
endif()

execute_process(
    COMMAND "${PYTHON}" -c "
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc['schema'] == 'stitch-bench-trajectory', doc['schema']
for bench in ('table3_accel_area', 'table4_noc_timing',
              'fig13_power_area'):
    assert bench in doc['benches'], bench
    assert doc['benches'][bench], bench + ' has no metrics'
" "${traj}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trajectory aggregate failed validation")
endif()

# A flag the bench does not use exits 2 naming it, never ignored.
execute_process(COMMAND "${TABLE3}" "--jsn=typo" RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--jsn=typo")
    message(FATAL_ERROR "table3_accel_area --jsn=typo: ${rc} ${err}")
endif()
