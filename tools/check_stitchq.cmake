# Test driver for the stitchq batch front-end (acceptance gate of the
# simulation-as-a-service tentpole):
#
#  1. A mixed JSONL batch drained with --jobs=4 must exit 0 and write
#     a per-job report that is byte-identical to a serial
#     `smoke_app APP1-gesture --report=...` of the same spec.
#  2. A duplicate spec in the same batch coalesces: its report file is
#     byte-identical to the first occurrence's.
#  3. Re-running the batch against the warm on-disk cache must perform
#     ZERO simulations (service counters: simulated == 0, every job a
#     cache hit) and reproduce every report byte for byte.
#  4. `--scheduler=` is not a front-end flag: stitchq and stitchd both
#     reject it with a usage error (exit 2) that names the job
#     document's "scheduler" key.
#  5. No front-end accepts a flag it would then ignore: stitchq
#     `--json=`, stitchd `--json=`/`--out=`, and smoke_app
#     `--json=`/`--out=`/`--jobs=` or a misspelled flag each exit 2
#     naming the flag, and smoke_app `--scheduler=slice` exits 2
#     naming the schedulers that exist.
#  6. A job document asking for a "slice" scheduler (exact slices
#     are only the compiled scheduler's fallback) is a typed config
#     rejection, not a crash and not a silent default.
#
# Invoked by stitchq_batch_smoke with -DSTITCHQ=... -DSTITCHD=...
# -DSMOKE_APP=... -DOUT_DIR=...

set(work "${OUT_DIR}/stitchq_smoke")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")

# The batch: one spec matching smoke_app's defaults, a baseline run,
# a comment, and a duplicate of the first spec at another priority
# (priority is presentation-only, so it must coalesce).
file(WRITE "${work}/batch.jsonl"
"{\"schema\":\"stitch-job\",\"version\":1,\"name\":\"gesture\",\"app\":\"APP1-gesture\",\"mode\":\"stitch\"}
{\"schema\":\"stitch-job\",\"version\":1,\"name\":\"gesture-base\",\"app\":\"APP1-gesture\",\"mode\":\"baseline\"}
# comment lines and blank lines are skipped

{\"schema\":\"stitch-job\",\"version\":1,\"name\":\"gesture-again\",\"priority\":9,\"app\":\"APP1-gesture\",\"mode\":\"stitch\"}
")

# 4. A parsed-then-ignored --scheduler= would silently run the default;
# both front-ends must refuse it before doing any work.
foreach(tool STITCHQ STITCHD)
    execute_process(
        COMMAND "${${tool}}" "${work}/batch.jsonl" "--scheduler=step"
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
                "${tool} --scheduler=step: expected usage error 2, "
                "got ${rc}")
    endif()
    if(NOT err MATCHES "\"scheduler\" key")
        message(FATAL_ERROR
                "${tool} --scheduler=step rejection does not name "
                "the job document's \"scheduler\" key: ${err}")
    endif()
endforeach()

# 5. Flags a front-end does not use are usage errors, not no-ops.
foreach(case
        "STITCHQ;--json=${work}/ignored.json"
        "STITCHD;--json=${work}/ignored.json"
        "STITCHD;--out=${work}/ignored"
        "SMOKE_APP;--json=${work}/ignored.json"
        "SMOKE_APP;--out=${work}/ignored"
        "SMOKE_APP;--jobs=4"
        "SMOKE_APP;--jsn=oops")
    list(GET case 0 tool)
    list(GET case 1 flag)
    execute_process(
        COMMAND "${${tool}}" "${work}/batch.jsonl" "${flag}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    string(FIND "${err}" "${flag}" at)
    if(NOT rc EQUAL 2 OR at LESS 0 OR NOT out STREQUAL "")
        message(FATAL_ERROR "${tool} ${flag}: expected exit 2 naming "
                            "the flag before any work, got ${rc}: ${err}")
    endif()
endforeach()
execute_process(
    COMMAND "${SMOKE_APP}" APP1-gesture "--scheduler=slice"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "step\\|compiled")
    message(FATAL_ERROR "smoke_app --scheduler=slice: expected exit 2 "
                        "naming step|compiled, got ${rc}: ${err}")
endif()

# 6. "scheduler":"slice" in a job document: a typed config rejection.
file(WRITE "${work}/slice.jsonl" "{\"schema\":\"stitch-job\",\"version\":1,\"app\":\"APP1\",\"scheduler\":\"slice\"}\n")
execute_process(
    COMMAND "${STITCHQ}" "${work}/slice.jsonl"
            "--summary=${work}/slice_summary.json"
    RESULT_VARIABLE rc OUTPUT_QUIET)
file(READ "${work}/slice_summary.json" summary)
string(JSON kind GET "${summary}" jobs 0 error_kind)
string(JSON error GET "${summary}" jobs 0 error)
if(NOT rc EQUAL 1 OR NOT kind STREQUAL "config" OR
   NOT error MATCHES "step\\|compiled")
    message(FATAL_ERROR "a \"slice\" job must be a config rejection "
                        "naming step|compiled, got ${rc}/${kind}: ${error}")
endif()

# The serial reference: smoke_app's --report of the same application
# is built by the same svc::appReportJson, so equality must be exact.
execute_process(
    COMMAND "${SMOKE_APP}" APP1-gesture
            "--report=${work}/serial_report.json"
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smoke_app reference run failed: ${rc}")
endif()

foreach(pass cold warm)
    execute_process(
        COMMAND "${STITCHQ}" "${work}/batch.jsonl" "--jobs=4"
                "--cache=${work}/cache" "--out=${work}/${pass}"
                "--summary=${work}/${pass}_summary.json"
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "stitchq ${pass} pass failed: ${rc}")
    endif()
endforeach()

# 1. Batch report == serial smoke_app report, byte for byte.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${work}/cold/job000.json" "${work}/serial_report.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "stitchq job000 report differs from the "
                        "serial smoke_app report")
endif()

# 2. The duplicate spec produced the identical report.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${work}/cold/job000.json" "${work}/cold/job002.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "duplicate spec did not coalesce to an "
                        "identical report")
endif()

# 3a. Warm pass reproduced every report.
foreach(job job000 job001 job002)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${work}/cold/${job}.json" "${work}/warm/${job}.json"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "warm-cache report ${job} differs from "
                            "the cold run")
    endif()
endforeach()

# 3b. ...without simulating anything: all three jobs were cache hits.
file(READ "${work}/warm_summary.json" summary)
string(JSON simulated GET "${summary}"
       service counters svc jobs simulated)
string(JSON hits GET "${summary}"
       service counters svc jobs cache_hits)
if(NOT simulated EQUAL 0 OR NOT hits EQUAL 3)
    message(FATAL_ERROR "warm batch expected 0 simulated / 3 cache "
                        "hits, got ${simulated} / ${hits}")
endif()

message(STATUS "stitchq batch matches serial reports; warm cache "
               "re-ran 0 simulations; --scheduler= and unused flags "
               "rejected; \"slice\" jobs are config errors")
