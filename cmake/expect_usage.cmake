# Usage-error contract: the command must exit 2 and print a "usage:" line
# on stderr (a bad argument is refused, not run or crashed on).
# Invoked by ctest as
#   cmake -P expect_usage.cmake <program> [args...]
# Each argument is passed through as is, an empty one included.
set(cmd)
set(quoted)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 3 ${last})
  list(APPEND cmd "${CMAKE_ARGV${i}}")
  string(APPEND quoted " [==[${CMAKE_ARGV${i}}]==]")
endforeach()
# A list expansion would drop empty arguments; bracket-quoted ones survive.
cmake_language(EVAL CODE "
  execute_process(COMMAND ${quoted} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expect_usage [${cmd}]: expected exit 2, got '${rc}'"
                      "\nstdout:\n${stdout}\nstderr:\n${stderr}")
endif()
string(FIND "${stderr}" "usage:" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "expect_usage [${cmd}]: no usage text in:\n${stderr}")
endif()
