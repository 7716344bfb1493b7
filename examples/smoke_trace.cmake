# Smoke test for an example that prints a job's typed lifecycle trace:
# passes only if the binary exits 0 and the last line of its
# "lifecycle trace" block is the job's `completed` event.
#
#   cmake -DEXAMPLE=<binary> [-DARGS="<arguments>"] -P smoke_trace.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXAMPLE}" ${args}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}\n${out}${err}")
endif()
string(FIND "${out}" "lifecycle trace" start)
if(start EQUAL -1)
  message(FATAL_ERROR "${EXAMPLE} printed no lifecycle trace:\n${out}")
endif()
string(SUBSTRING "${out}" ${start} -1 trail)
# The trace block ends at the first blank line, or with the output.
string(FIND "${trail}" "\n\n" end)
if(NOT end EQUAL -1)
  string(SUBSTRING "${trail}" 0 ${end} trail)
endif()
string(STRIP "${trail}" trail)
string(REGEX MATCH "[^\n]*$" last "${trail}")
if(NOT last MATCHES "^ *\\+[0-9.]+s completed( |$)")
  message(FATAL_ERROR "${EXAMPLE}: the lifecycle trace does not end with a "
                      "completed event (last line: '${last}')\n${out}")
endif()
message(STATUS "final trace line: ${last}")
