# Runs BIN with ARGS and fails unless its stdout equals GOLDEN byte for
# byte.  The output is left in OUT, so a failure can be read with
# `diff GOLDEN OUT`.  With JSON set, ARGS should make BIN write a
# BENCH_*.json report there ({benchmark, units, machine, method, results,
# notes}); the file must then parse, with a non-empty results array.
#
#   cmake -DBIN=<exe> "-DARGS=<args>" -DGOLDEN=<file> -DOUT=<file> \
#         [-DJSON=<file>] -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(JSON)
  file(REMOVE "${JSON}")
endif()
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
if(JSON)
  if(NOT EXISTS "${JSON}")
    message(FATAL_ERROR "${BIN} ${ARGS} wrote no ${JSON}")
  endif()
  file(READ "${JSON}" doc)
  string(JSON results ERROR_VARIABLE err LENGTH "${doc}" results)
  if(err OR results EQUAL 0)
    message(FATAL_ERROR "${JSON} is not a report with results: ${err}")
  endif()
endif()
