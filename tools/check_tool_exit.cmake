# Asserts a CLI tool's exit contract: run TOOL with ARGS and require a
# specific exit code, plus optionally a stderr and/or stdout matching a
# regex. Registered by the top-level CMakeLists as ctest entries: label
# "tools" keeps the tools' usage errors — unknown flags, malformed numeric
# values — hard exits with diagnostics instead of silent acceptance or
# uncaught std::sto* exceptions (std::terminate shows up here as a wrong
# exit code); label "pinned" matches trajectory_dump's combined hash
# against a recorded value.
#
# Usage:
#   cmake -DTOOL=<binary> -DARGS="<space-separated args>"
#         -DEXPECT_EXIT=<code> [-DEXPECT_STDERR=<regex>]
#         [-DEXPECT_STDOUT=<regex>] -P check_tool_exit.cmake

if(NOT DEFINED TOOL OR NOT DEFINED EXPECT_EXIT)
  message(FATAL_ERROR "check_tool_exit: TOOL and EXPECT_EXIT are required")
endif()

separate_arguments(tool_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${TOOL}" ${tool_args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

# execute_process reports abnormal termination (e.g. an uncaught exception
# aborting the process) as a non-numeric string, which also fails here.
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
      "check_tool_exit: '${TOOL} ${ARGS}' exited with '${rc}', "
      "expected ${EXPECT_EXIT}\nstderr:\n${err}")
endif()

if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
      "check_tool_exit: stderr of '${TOOL} ${ARGS}' does not match "
      "'${EXPECT_STDERR}'\nstderr:\n${err}")
endif()

if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR
      "check_tool_exit: stdout of '${TOOL} ${ARGS}' does not match "
      "'${EXPECT_STDOUT}'\nstdout:\n${out}")
endif()
