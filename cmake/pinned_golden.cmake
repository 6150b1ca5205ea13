# Absolute golden pin: runs SPEC single-process (--jobs 1) at SCALE
# (smoke = UNIMEM_BENCH_SMOKE set, full = unset) and asserts its CSV is
# byte-identical to the checked-in GOLDEN_DIR/<SPEC>.<SCALE>.csv.  The
# other goldens compare two runs of the same build with each other; this
# one catches a change that moves every run alike (a mistyped model
# constant, a dropped charge).  Regenerate a pin only in a change that
# means to move artifacts, and say why in CHANGES.md:
#   UNIMEM_BENCH_SMOKE=1 unimem_sweep --spec SPEC --jobs 1 --quiet \
#       --csv tests/golden/SPEC.smoke.csv
# Invoked by ctest as
#   cmake -DSWEEP_CLI=... -DWORK_DIR=... -DGOLDEN_DIR=... -DSPEC=fig13
#         -DSCALE=smoke|full -P this_file
foreach(var SWEEP_CLI WORK_DIR GOLDEN_DIR SPEC SCALE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pinned_golden: -D${var}=... is required")
  endif()
endforeach()

if(SCALE STREQUAL "smoke")
  set(ENV{UNIMEM_BENCH_SMOKE} 1)
elseif(SCALE STREQUAL "full")
  unset(ENV{UNIMEM_BENCH_SMOKE})
else()
  message(FATAL_ERROR "pinned_golden: SCALE must be smoke or full")
endif()

set(golden "${GOLDEN_DIR}/${SPEC}.${SCALE}.csv")
set(out "${WORK_DIR}/${SPEC}.${SCALE}.csv")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(REMOVE "${out}")

execute_process(COMMAND "${SWEEP_CLI}" --spec ${SPEC} --jobs 1 --quiet
                        --csv "${out}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pinned_golden: unimem_sweep --spec ${SPEC} exited ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${golden}" "${out}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pinned_golden: ${out} differs from the pin ${golden}")
endif()
message(STATUS "pinned_golden: ${SPEC} (${SCALE}) matches ${golden}")
