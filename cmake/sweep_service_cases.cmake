# CLI contract tests for the sweep service layer: strict option parsing
# (--profiler/--jobs/--indices/--shard reject junk, repeats and overflow
# instead of silently truncating), verbatim flag forwarding through the
# cmd launcher, the --merge coverage/gap heuristics, duplicate
# shard rejection, torn-last-line --resume, injected-failure recovery
# through the coordinator with retry counters in the summary JSON, the
# --shards N = --launcher fork --workers N alias, and the summary
# schema_version.
# Invoked by ctest (label sweep-service) as
#   cmake -DSWEEP_CLI=... -DWORK_DIR=... -P this_file
foreach(var SWEEP_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sweep_service_cases: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{UNIMEM_BENCH_SMOKE} 1)
set(SPEC fig12)

# Run the CLI expecting a specific exit code; exports last_stdout /
# last_stderr for content checks.
function(cli_expect expected_rc label)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR
            "sweep_service_cases [${label}]: expected exit ${expected_rc}, "
            "got '${rc}'\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  set(last_stdout "${stdout}" PARENT_SCOPE)
  set(last_stderr "${stderr}" PARENT_SCOPE)
endfunction()

function(expect_contains text needle label)
  string(FIND "${text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "sweep_service_cases [${label}]: expected '${needle}' in:\n${text}")
  endif()
endfunction()

function(expect_not_contains text needle label)
  string(FIND "${text}" "${needle}" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR
            "sweep_service_cases [${label}]: did not expect '${needle}' "
            "in:\n${text}")
  endif()
endfunction()

function(expect_same a b label)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "sweep_service_cases [${label}]: ${a} and ${b} differ")
  endif()
endfunction()

# ---- strict option parsing (satellite: no atoi truncation) -----------------

cli_expect(1 "profiler trailing garbage"
           "${SWEEP_CLI}" --spec ${SPEC} --profiler 16x --points)
expect_contains("${last_stderr}" "--profiler wants" "profiler trailing garbage")
cli_expect(1 "profiler overflow"
           "${SWEEP_CLI}" --spec ${SPEC} --profiler 18446744073709551616 --points)
cli_expect(1 "profiler zero period"
           "${SWEEP_CLI}" --spec ${SPEC} --profiler 0 --points)
cli_expect(0 "profiler exact accepted"
           "${SWEEP_CLI}" --spec ${SPEC} --profiler exact --points)

cli_expect(1 "jobs trailing garbage"
           "${SWEEP_CLI}" --spec ${SPEC} --jobs 4x --points)
expect_contains("${last_stderr}" "--jobs wants" "jobs trailing garbage")
cli_expect(1 "jobs negative" "${SWEEP_CLI}" --spec ${SPEC} --jobs -2 --points)

cli_expect(1 "indices trailing garbage"
           "${SWEEP_CLI}" --spec ${SPEC} --indices 1,2x --points)
cli_expect(1 "indices out of range"
           "${SWEEP_CLI}" --spec ${SPEC} --indices 0,99 --points)
expect_contains("${last_stderr}" "does not contain" "indices out of range")
# A repeated index would run the point twice and write an artifact that
# --merge then rejects as a duplicate.
cli_expect(1 "indices repeated"
           "${SWEEP_CLI}" --spec ${SPEC} --indices 0,0 --points)
expect_contains("${last_stderr}" "repeats index 0" "indices repeated")

# --shard I/N parses both sides strictly: no leading space or '+', no
# 32-bit wrap of either side.
foreach(bad " 0/2" "+0/2" "0/ 2" "0/4294967298" "4294967296/2")
  cli_expect(1 "shard '${bad}'"
             "${SWEEP_CLI}" --spec ${SPEC} --shard "${bad}" --points)
  expect_contains("${last_stderr}" "--shard wants" "shard '${bad}'")
endforeach()

cli_expect(1 "unknown launcher"
           "${SWEEP_CLI}" --spec ${SPEC} --launcher bogus --points)
cli_expect(1 "launcher excludes shards"
           "${SWEEP_CLI}" --spec ${SPEC} --launcher fork --shard 0/2)
cli_expect(1 "resume needs jsonl" "${SWEEP_CLI}" --spec ${SPEC} --resume)

# ---- merge heuristics ------------------------------------------------------

cli_expect(0 "shard 0" "${SWEEP_CLI}" --spec ${SPEC} --shard 0/2 --quiet
           --jsonl "${WORK_DIR}/s0.jsonl")
cli_expect(0 "shard 1" "${SWEEP_CLI}" --spec ${SPEC} --shard 1/2 --quiet
           --jsonl "${WORK_DIR}/s1.jsonl")

# Overlapping shard inputs are a mistake, not a merge.
cli_expect(1 "duplicate shards rejected"
           "${SWEEP_CLI}" --merge "${WORK_DIR}/s0.jsonl" "${WORK_DIR}/s0.jsonl"
           --quiet --csv "${WORK_DIR}/dup.csv")

# A lone shard without --spec merges fine (filtered/partial sweeps are
# legitimate) but the index-gap heuristic must flag it on stderr.
cli_expect(0 "gap heuristic warns"
           "${SWEEP_CLI}" --merge "${WORK_DIR}/s0.jsonl" --quiet
           --csv "${WORK_DIR}/half.csv")
expect_contains("${last_stderr}" "unfilled" "gap heuristic warns")

# With --spec the same gap is a hard coverage error...
cli_expect(1 "spec coverage enforced"
           "${SWEEP_CLI}" --merge "${WORK_DIR}/s0.jsonl" --spec ${SPEC} --quiet
           --csv "${WORK_DIR}/half2.csv")
expect_contains("${last_stderr}" "do not cover" "spec coverage enforced")

# ...and a complete partition passes both checks silently.
cli_expect(0 "full merge clean"
           "${SWEEP_CLI}" --merge "${WORK_DIR}/s0.jsonl" "${WORK_DIR}/s1.jsonl"
           --spec ${SPEC} --quiet --csv "${WORK_DIR}/merged.csv")
expect_not_contains("${last_stderr}" "unfilled" "full merge clean")

# ---- torn-last-line resume -------------------------------------------------

cli_expect(0 "reference run" "${SWEEP_CLI}" --spec ${SPEC} --jobs 1 --quiet
           --csv "${WORK_DIR}/j1.csv" --jsonl "${WORK_DIR}/j1.jsonl")

# Fabricate a crash artifact: three complete rows plus a torn tail.
file(STRINGS "${WORK_DIR}/j1.jsonl" j1_lines)
list(SUBLIST j1_lines 0 3 crash_lines)
list(JOIN crash_lines "\n" crash_text)
string(APPEND crash_text "\n{\"index\":3,\"label\":\"torn-mid-wri")
file(WRITE "${WORK_DIR}/resumed.jsonl" "${crash_text}")

cli_expect(0 "torn resume" "${SWEEP_CLI}" --spec ${SPEC} --jobs 1 --resume
           --quiet --csv "${WORK_DIR}/resumed.csv"
           --jsonl "${WORK_DIR}/resumed.jsonl")
expect_contains("${last_stderr}" "torn trailing line" "torn resume")
expect_contains("${last_stdout}" "3 resumed" "torn resume")
expect_same("${WORK_DIR}/j1.csv" "${WORK_DIR}/resumed.csv" "torn resume csv")
expect_same("${WORK_DIR}/j1.jsonl" "${WORK_DIR}/resumed.jsonl"
            "torn resume jsonl")

# ---- injected-failure recovery through the coordinator ---------------------

# Seeded transient faults on (almost) every point's first attempt; the
# retry layer must recover the campaign to zero failed rows, count its
# work in the summary JSON, and still emit byte-identical artifacts.
cli_expect(0 "service recovery"
           "${SWEEP_CLI}" --spec ${SPEC} --launcher fork --workers 2 --steal
           --retries 3 --inject-fail 0.9:7 --backoff-base 0.001 --quiet
           --csv "${WORK_DIR}/svc.csv" --jsonl "${WORK_DIR}/svc.jsonl"
           --summary-json "${WORK_DIR}/svc.json")
file(READ "${WORK_DIR}/svc.json" summary)
expect_contains("${summary}" "\"failed\":0" "service recovery summary")
expect_contains("${summary}" "\"complete\":true" "service recovery summary")
expect_contains("${summary}" "\"launcher\":\"fork\"" "service recovery summary")
expect_not_contains("${summary}" "\"retries\":0," "service recovery summary")
expect_same("${WORK_DIR}/j1.csv" "${WORK_DIR}/svc.csv" "service recovery csv")
expect_same("${WORK_DIR}/j1.jsonl" "${WORK_DIR}/svc.jsonl"
            "service recovery jsonl")

# The cmd launcher forwards the flags the user typed verbatim: a PREFIX
# script logs each child's argv, which must carry "1e-7" and "0.1234567:9"
# as typed (printing the parsed doubles back would round them), and the
# artifacts must still match the --jobs 1 run.
file(WRITE "${WORK_DIR}/argv_log.sh"
     "#!/bin/sh\nprintf '%s\\n' \"$*\" >> '${WORK_DIR}/argv.log'\nexec \"$@\"\n")
file(CHMOD "${WORK_DIR}/argv_log.sh" PERMISSIONS OWNER_READ OWNER_WRITE
     OWNER_EXECUTE)
cli_expect(0 "cmd forwards raw flags"
           "${SWEEP_CLI}" --spec ${SPEC} --launcher "cmd:${WORK_DIR}/argv_log.sh"
           --workers 2 --retries 3 --backoff-base 1e-7
           --inject-fail 0.1234567:9 --quiet
           --csv "${WORK_DIR}/cmd.csv" --jsonl "${WORK_DIR}/cmd.jsonl")
file(READ "${WORK_DIR}/argv.log" argv_log)
expect_contains("${argv_log}" "--backoff-base 1e-7 " "cmd forwards raw flags")
expect_contains("${argv_log}" "--inject-fail 0.1234567:9 "
                "cmd forwards raw flags")
expect_same("${WORK_DIR}/j1.csv" "${WORK_DIR}/cmd.csv" "cmd forwarding csv")
expect_same("${WORK_DIR}/j1.jsonl" "${WORK_DIR}/cmd.jsonl"
            "cmd forwarding jsonl")

# The 10k-point stress spec is registered and sized as documented.
cli_expect(0 "stress spec listed" "${SWEEP_CLI}" --list)
expect_contains("${last_stdout}" "service_stress" "stress spec listed")
expect_contains("${last_stdout}" "10000" "stress spec listed")

# ---- --shards N is the fork coordinator ------------------------------------

# --shards N means exactly --launcher fork --workers N: combining it with
# either option is a contradiction, and N must be at least 1.
cli_expect(1 "shards with launcher"
           "${SWEEP_CLI}" --spec ${SPEC} --shards 2 --launcher inproc --points)
expect_contains("${last_stderr}" "--shards N means" "shards with launcher")
cli_expect(1 "shards with workers"
           "${SWEEP_CLI}" --spec ${SPEC} --shards 2 --workers 3 --points)
expect_contains("${last_stderr}" "--shards N means" "shards with workers")
cli_expect(1 "shards zero" "${SWEEP_CLI}" --spec ${SPEC} --shards 0 --points)
expect_contains("${last_stderr}" "--shards wants" "shards zero")

# The alias runs the coordinator, so its summary is the service summary.
cli_expect(0 "shards alias" "${SWEEP_CLI}" --spec ${SPEC} --shards 2 --quiet
           --summary-json "${WORK_DIR}/shards.json")
file(READ "${WORK_DIR}/shards.json" summary)
expect_contains("${summary}" "\"launcher\":\"fork\"" "shards alias summary")
expect_contains("${summary}" "\"workers\":2," "shards alias summary")
expect_contains("${summary}" "\"schema_version\":3," "service summary schema")

# ---- summary schema version (README "Summary JSON schema") -----------------

cli_expect(0 "engine summary" "${SWEEP_CLI}" --spec ${SPEC} --jobs 1
           --indices 0,1 --quiet --summary-json "${WORK_DIR}/engine.json")
file(READ "${WORK_DIR}/engine.json" summary)
expect_contains("${summary}" "\"schema_version\":3," "engine summary schema")
expect_not_contains("${summary}" "\"shards\"" "engine summary schema")

message(STATUS "sweep_service_cases: all CLI service-layer cases passed")
