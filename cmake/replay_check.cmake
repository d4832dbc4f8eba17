# Offline-replay gate, run as `cmake -P` from CTest.
#
# Proves, through the real c4replay binary, that the committed incident
# corpus still diagnoses correctly:
#   1. `score` over tests/incidents/ passes the precision/recall floors
#      (both 0.9) AND byte-matches the committed golden verdicts;
#   2. scoring is reproducible: a second run writes byte-identical
#      verdicts (replay-same-incident-twice, via --write-golden);
#   3. a mutated golden makes `score --golden` fail (the gate can
#      actually catch a detector change);
#   4. `summary` and `run --label` work on the corpus;
#   5. the corpus is current: `capture` re-records all incidents from
#      live simulations and the result byte-matches tests/incidents/.
#
# Inputs: REPLAY_TOOL (c4replay path), CORPUS (tests/incidents),
# WORK_DIR (scratch).

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_or_die label)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${label}: exited with ${rc}")
    endif()
endfunction()

# --- 1. score against floors + committed golden ----------------------
execute_process(
    COMMAND "${REPLAY_TOOL}" score "${CORPUS}"
        --min-precision 0.9 --min-recall 0.9
        --golden "${CORPUS}/golden_verdicts.jsonl"
        --report "${WORK_DIR}/score_report.txt"
        --write-golden "${WORK_DIR}/verdicts_a.jsonl"
    RESULT_VARIABLE rc OUTPUT_VARIABLE score_out
    ERROR_VARIABLE score_err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "c4replay score failed (exit ${rc}):\n"
        "${score_out}${score_err}")
endif()
if(NOT score_out MATCHES "aggregate: ")
    message(FATAL_ERROR
        "score output is missing the aggregate line:\n${score_out}")
endif()

# --- 2. second run is byte-identical ---------------------------------
run_or_die("c4replay score (rerun)"
    "${REPLAY_TOOL}" score "${CORPUS}"
    --write-golden "${WORK_DIR}/verdicts_b.jsonl")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/verdicts_a.jsonl" "${WORK_DIR}/verdicts_b.jsonl"
    RESULT_VARIABLE same_rc)
if(NOT same_rc EQUAL 0)
    message(FATAL_ERROR
        "two replays of the same corpus produced different verdicts — "
        "the analyzer is not deterministic")
endif()

# --- 3. a mutated golden must be flagged -----------------------------
configure_file("${CORPUS}/golden_verdicts.jsonl"
    "${WORK_DIR}/mutated_golden.jsonl" COPYONLY)
file(APPEND "${WORK_DIR}/mutated_golden.jsonl"
    "{\"incident\":\"injected\",\"verdicts\":0}\n")
execute_process(
    COMMAND "${REPLAY_TOOL}" score "${CORPUS}"
        --golden "${WORK_DIR}/mutated_golden.jsonl"
    RESULT_VARIABLE mut_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT mut_rc EQUAL 1)
    message(FATAL_ERROR
        "score --golden missed a mutated golden (exit ${mut_rc}, "
        "expected 1)")
endif()

# --- 4. summary + single-incident run --------------------------------
execute_process(
    COMMAND "${REPLAY_TOOL}" summary "${CORPUS}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE summary_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "c4replay summary: exited with ${rc}")
endif()
if(NOT summary_out MATCHES "link_failure_single")
    message(FATAL_ERROR
        "summary does not list the corpus:\n${summary_out}")
endif()

run_or_die("c4replay run (labeled)"
    "${REPLAY_TOOL}" run
    "${CORPUS}/link_failure_single.trace.jsonl"
    --label "${CORPUS}/link_failure_single.label.json")

# --- 5. live capture reproduces the committed corpus -----------------
run_or_die("c4replay capture"
    "${REPLAY_TOOL}" capture "${WORK_DIR}/capture")
file(GLOB committed RELATIVE "${CORPUS}" "${CORPUS}/*")
file(GLOB captured RELATIVE "${WORK_DIR}/capture" "${WORK_DIR}/capture/*")
list(SORT committed)
list(SORT captured)
if(NOT committed STREQUAL captured)
    message(FATAL_ERROR
        "capture wrote a different file set than the corpus:\n"
        "  committed: ${committed}\n  captured:  ${captured}")
endif()
foreach(name IN LISTS committed)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            "${CORPUS}/${name}" "${WORK_DIR}/capture/${name}"
        RESULT_VARIABLE same_rc)
    if(NOT same_rc EQUAL 0)
        message(FATAL_ERROR
            "tests/incidents/${name} is stale: a live capture differs. "
            "Regenerate with `c4replay capture tests/incidents/` after "
            "a deliberate model change.")
    endif()
endforeach()
