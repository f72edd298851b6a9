# Command-line contract of bench_report and paper_figures, run as tier-1
# ctest entries (tools/CMakeLists.txt, bench/CMakeLists.txt):
#
#   cmake -DEXE=<exe> -DARGS="<space-separated args>"
#         -DEXPECT_RC=<exit code> -DEXPECT_STDERR=<regex>
#         [-DWRITE_FILE=<path> -DWRITE_TEXT=<text>]  # input written first
#         [-DMUST_NOT_EXIST=<path>]                  # removed first, then
#         -P bench_report_cli.cmake                  # must stay absent
#
# Fails unless the run exits with EXPECT_RC and its stderr matches
# EXPECT_STDERR.
if(DEFINED MUST_NOT_EXIST)
  file(REMOVE "${MUST_NOT_EXIST}")
endif()
if(DEFINED WRITE_FILE)
  file(WRITE "${WRITE_FILE}" "${WRITE_TEXT}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${rc}, expected "
                      "${EXPECT_RC}\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${EXE} ${ARGS}: stderr does not match "
                      "'${EXPECT_STDERR}'\nstderr: ${err}")
endif()
if(DEFINED MUST_NOT_EXIST AND EXISTS "${MUST_NOT_EXIST}")
  message(FATAL_ERROR "${EXE} ${ARGS}: wrote ${MUST_NOT_EXIST}")
endif()
