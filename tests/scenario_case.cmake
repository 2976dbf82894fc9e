# One tool case: run a tool (scenario_runner, or any tool on a plain
# argument list) and check its exit code (a crash never matches) and,
# optionally, its combined output.
#
#   cmake -DRUNNER=<tool> -DEXPECT_CODE=<n>
#         (-DSCENARIO=<file> | -DLINE=<one scenario line> | -DARGS=<;-list>)
#         [-DEXPECT_OUTPUT=<regex>] -P scenario_case.cmake
#
# LINE is written to a scenario file in the working directory, named after
# the line so concurrent cases never share one. ARGS is passed to the tool
# as its command-line arguments instead of a scenario file.
if(DEFINED ARGS)
  set(command "${RUNNER}" ${ARGS})
else()
  if(DEFINED LINE)
    string(MAKE_C_IDENTIFIER "${LINE}" stem)
    set(SCENARIO "${CMAKE_CURRENT_BINARY_DIR}/scenario_case_${stem}.scn")
    file(WRITE "${SCENARIO}" "${LINE}\n")
  endif()
  set(command "${RUNNER}" "${SCENARIO}")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "${RUNNER} exited with '${code}', expected "
                      "${EXPECT_CODE}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "${RUNNER} output does not match "
                      "'${EXPECT_OUTPUT}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
