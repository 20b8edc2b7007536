# Runs BIN with ARGS and fails unless its stdout equals GOLDEN byte for
# byte.  The output is left in OUT, so a failure can be read with
# `diff GOLDEN OUT`.
#
#   cmake -DBIN=<exe> "-DARGS=<args>" -DGOLDEN=<file> -DOUT=<file> \
#         -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}"
                        "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from the golden: "
                      "diff ${GOLDEN} ${OUT}")
endif()
