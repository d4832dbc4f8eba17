# Event-trace gate, run as `cmake -P` from CTest.
#
# Proves, end to end through the real binaries:
#   1. `c4bench --trace` writes per-trial JSONL traces that are
#      byte-identical between --threads 1 and --threads 4;
#   2. the golden smoke CSV is unchanged with tracing enabled;
#   3. `c4trace summary`, `timeline`, and `diff` all work on the
#      output, `diff` flags an injected divergence, and refuses
#      directories with exit 2.
#
# Inputs: BENCH (c4bench path), TRACE_TOOL (c4trace path), SCENARIO,
# GOLDEN (committed CSV), WORK_DIR (scratch).

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_or_die label)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${label}: exited with ${rc}")
    endif()
endfunction()

# --- 1. thread-count byte-equality -----------------------------------
run_or_die("trace run (--threads 1)"
    "${BENCH}" "${SCENARIO}" --smoke --trials 2 --threads 1
    --trace "${WORK_DIR}/t1")
run_or_die("trace run (--threads 4)"
    "${BENCH}" "${SCENARIO}" --smoke --trials 2 --threads 4
    --trace "${WORK_DIR}/t4")

file(GLOB_RECURSE t1_files RELATIVE "${WORK_DIR}/t1"
    "${WORK_DIR}/t1/*.jsonl")
list(SORT t1_files)
if(NOT t1_files)
    message(FATAL_ERROR "no JSONL traces under ${WORK_DIR}/t1")
endif()
set(total_bytes 0)
foreach(rel IN LISTS t1_files)
    if(NOT EXISTS "${WORK_DIR}/t4/${rel}")
        message(FATAL_ERROR
            "--threads 4 run is missing trace file ${rel}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/t1/${rel}" "${WORK_DIR}/t4/${rel}"
        RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
        message(FATAL_ERROR
            "trace ${rel} differs between --threads 1 and "
            "--threads 4 — the determinism contract is broken")
    endif()
    file(SIZE "${WORK_DIR}/t1/${rel}" sz)
    math(EXPR total_bytes "${total_bytes} + ${sz}")
endforeach()
if(total_bytes EQUAL 0)
    message(FATAL_ERROR
        "every ${SCENARIO} trace is empty; instrumentation lost")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/t1/${SCENARIO}.trace.json"
        "${WORK_DIR}/t4/${SCENARIO}.trace.json"
    RESULT_VARIABLE chrome_rc)
if(NOT chrome_rc EQUAL 0)
    message(FATAL_ERROR "Chrome trace differs between thread counts")
endif()

# --- 2. golden CSV unchanged with tracing enabled --------------------
run_or_die("traced golden run"
    "${BENCH}" "${SCENARIO}" --smoke --trials 1
    --trace "${WORK_DIR}/tg" --csv "${WORK_DIR}/with_trace.csv")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/with_trace.csv" "${GOLDEN}"
    RESULT_VARIABLE golden_rc)
if(NOT golden_rc EQUAL 0)
    execute_process(COMMAND diff -u "${GOLDEN}"
        "${WORK_DIR}/with_trace.csv")
    message(FATAL_ERROR
        "${SCENARIO}: smoke CSV changed when tracing was enabled")
endif()

# --- 3. c4trace summary / timeline / diff ----------------------------
execute_process(
    COMMAND "${TRACE_TOOL}" summary "${WORK_DIR}/t1"
    RESULT_VARIABLE rc OUTPUT_VARIABLE summary_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "c4trace summary: exited with ${rc}")
endif()
if(NOT summary_out MATCHES "event")
    message(FATAL_ERROR
        "c4trace summary output looks empty:\n${summary_out}")
endif()

list(GET t1_files 0 first_rel)
run_or_die("c4trace timeline"
    "${TRACE_TOOL}" timeline "${WORK_DIR}/t1/${first_rel}")

run_or_die("c4trace diff (identical)"
    "${TRACE_TOOL}" diff
    "${WORK_DIR}/t1/${first_rel}" "${WORK_DIR}/t4/${first_rel}")

# Mutate a copy; diff must exit 1 and nothing else.
configure_file("${WORK_DIR}/t1/${first_rel}"
    "${WORK_DIR}/mutated.jsonl" COPYONLY)
file(APPEND "${WORK_DIR}/mutated.jsonl"
    "{\"t\":1,\"k\":\"fault_injected\",\"d\":\"injected-divergence\"}\n")
execute_process(
    COMMAND "${TRACE_TOOL}" diff
        "${WORK_DIR}/t1/${first_rel}" "${WORK_DIR}/mutated.jsonl"
    RESULT_VARIABLE diff_rc OUTPUT_QUIET)
if(NOT diff_rc EQUAL 1)
    message(FATAL_ERROR
        "c4trace diff missed an injected divergence (exit "
        "${diff_rc}, expected 1)")
endif()

# Directories are not traces: diff must refuse them with exit 2
# instead of comparing zero lines as identical.
execute_process(
    COMMAND "${TRACE_TOOL}" diff "${WORK_DIR}/t1" "${WORK_DIR}/t4"
    RESULT_VARIABLE dir_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT dir_rc EQUAL 2)
    message(FATAL_ERROR
        "c4trace diff accepted two directories (exit ${dir_rc}, "
        "expected 2)")
endif()
