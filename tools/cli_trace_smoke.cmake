# ctest smoke check: sadp_route_cli --trace/--metrics produces a Chrome
# trace and a metrics report that contain the expected sections.
# Invoked as:
#   cmake -DCLI=<path-to-sadp_route_cli> -DOUT_DIR=<scratch dir>
#         -P cli_trace_smoke.cmake
if(NOT CLI OR NOT OUT_DIR)
  message(FATAL_ERROR "pass -DCLI=<binary> and -DOUT_DIR=<dir>")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(TRACE_FILE "${OUT_DIR}/smoke_trace.json")
set(METRICS_FILE "${OUT_DIR}/smoke_metrics.json")

execute_process(
  COMMAND "${CLI}" --seed-demo 40 --width 120 --height 120
          --trace "${TRACE_FILE}" --metrics "${METRICS_FILE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
# Exit 3 means residual physical conflicts, which is a legal routing
# outcome for the demo instance; anything else is a harness failure.
if(NOT rc EQUAL 0 AND NOT rc EQUAL 3)
  message(FATAL_ERROR "cli exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

foreach(pair "${TRACE_FILE};traceEvents" "${METRICS_FILE};counters")
  list(GET pair 0 file)
  list(GET pair 1 want)
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "${file} was not written")
  endif()
  file(READ "${file}" contents)
  if(NOT contents MATCHES "\"${want}\"")
    message(FATAL_ERROR "${file} lacks \"${want}\" section")
  endif()
endforeach()

file(READ "${METRICS_FILE}" metrics)
foreach(counter astar.expansions router.ripups router.cut_rejects
        router.flips)
  if(NOT metrics MATCHES "\"${counter}\"")
    message(FATAL_ERROR "metrics report lacks counter ${counter}")
  endif()
endforeach()
message(STATUS "cli trace smoke OK")
