# One scenario_runner case: run the runner on a scenario and check its exit
# code (a crash never matches) and, optionally, its combined output.
#
#   cmake -DRUNNER=<scenario_runner> -DEXPECT_CODE=<n>
#         (-DSCENARIO=<file> | -DLINE=<one scenario line>)
#         [-DEXPECT_OUTPUT=<regex>] -P scenario_case.cmake
#
# LINE is written to a scenario file in the working directory, named after
# the line so concurrent cases never share one.
if(DEFINED LINE)
  string(MAKE_C_IDENTIFIER "${LINE}" stem)
  set(SCENARIO "${CMAKE_CURRENT_BINARY_DIR}/scenario_case_${stem}.scn")
  file(WRITE "${SCENARIO}" "${LINE}\n")
endif()

execute_process(COMMAND "${RUNNER}" "${SCENARIO}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "scenario_runner exited with '${code}', expected "
                      "${EXPECT_CODE}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "scenario_runner output does not match "
                      "'${EXPECT_OUTPUT}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
