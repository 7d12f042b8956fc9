# ctest smoke check: sadp_route_cli --batch/--jobs routes two designs
# concurrently and every artifact (mask planes, CSV rows) comes out
# byte-identical to running the same jobs one at a time.
# Invoked as:
#   cmake -DCLI=<path-to-sadp_route_cli> -DOUT_DIR=<scratch dir>
#         -P cli_batch_smoke.cmake
if(NOT CLI OR NOT OUT_DIR)
  message(FATAL_ERROR "pass -DCLI=<binary> and -DOUT_DIR=<dir>")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# Two demo designs, each with mask + CSV output. Exit 3 (residual physical
# conflicts) is a legal routing outcome for demo instances.
set(JOB_A "--seed-demo 30 --width 100 --height 100")
set(JOB_B "--seed-demo 24 --width 90 --height 90")

foreach(job A B)
  separate_arguments(argv UNIX_COMMAND
      "${JOB_${job}} --masks ${OUT_DIR}/serial${job}_ --csv ${OUT_DIR}/serial${job}.csv")
  execute_process(COMMAND "${CLI}" ${argv}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 AND NOT rc EQUAL 3)
    message(FATAL_ERROR "serial job ${job} exited ${rc}\n${out}\n${err}")
  endif()
endforeach()

file(WRITE "${OUT_DIR}/jobs.list"
  "# batch smoke: same designs as the serial reference runs\n"
  "${JOB_A} --masks ${OUT_DIR}/batchA_ --csv ${OUT_DIR}/batchA.csv\n"
  "\n"
  "${JOB_B} --masks ${OUT_DIR}/batchB_ --csv ${OUT_DIR}/batchB.csv\n")
execute_process(COMMAND "${CLI}" --batch "${OUT_DIR}/jobs.list" --jobs 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 AND NOT rc EQUAL 3)
  message(FATAL_ERROR "batch run exited ${rc}\n${out}\n${err}")
endif()
if(NOT out MATCHES "=== job 0" OR NOT out MATCHES "=== job 1")
  message(FATAL_ERROR "batch stdout lacks per-job summaries:\n${out}")
endif()

# Every serial artifact must exist and match its batch twin byte for byte.
file(GLOB serial_files RELATIVE "${OUT_DIR}" "${OUT_DIR}/serial*")
list(LENGTH serial_files nfiles)
if(nfiles LESS 4)  # >=1 mask plane file + 1 csv per job
  message(FATAL_ERROR "expected serial artifacts, found: ${serial_files}")
endif()
foreach(f ${serial_files})
  string(REPLACE "serial" "batch" twin "${f}")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  "${OUT_DIR}/${f}" "${OUT_DIR}/${twin}"
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "batch artifact ${twin} differs from serial ${f}")
  endif()
endforeach()
message(STATUS "cli batch smoke OK (${nfiles} artifacts byte-identical)")

# Malformed --jobs values must be rejected up front with the usage text --
# zero, negative, and the atoi-style silent truncation ("2x" read as 2).
foreach(bad "0" "-2" "2x")
  execute_process(COMMAND "${CLI}" --batch "${OUT_DIR}/jobs.list" --jobs "${bad}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--jobs ${bad} exited ${rc}, want usage error 2\n${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "--jobs ${bad} stderr lacks usage text:\n${err}")
  endif()
endforeach()
message(STATUS "cli batch smoke OK (bad --jobs values rejected)")

# The timing/negotiation knobs parse strictly too: --negotiate-iters wants an
# integer in 1..10000, --history-cost a decimal in 0..10000 with no trailing
# junk (strtod would silently read "1.5x" as 1.5). An optional third field
# is the range the error message must name; 4294967297 does not fit an int
# and must not wrap to 1.
foreach(pair "--negotiate-iters;0;1..10000" "--negotiate-iters;3x"
             "--negotiate-iters;10001;1..10000" "--negotiate-iters;4294967297"
             "--history-cost;-1;0..10000" "--history-cost;1.5x"
             "--history-cost;nan" "--history-cost;10000.5;0..10000"
             "--history-cost;10000000000000;0..10000")
  list(GET pair 0 flag)
  list(GET pair 1 bad)
  execute_process(COMMAND "${CLI}" --negotiate "${flag}" "${bad}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} ${bad} exited ${rc}, want usage error 2\n${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "${flag} ${bad} stderr lacks usage text:\n${err}")
  endif()
  list(LENGTH pair fields)
  if(fields GREATER 2)
    list(GET pair 2 range)
    string(FIND "${err}" "${range}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${flag} ${bad} stderr does not name ${range}:\n${err}")
    endif()
  endif()
endforeach()
message(STATUS "cli batch smoke OK (bad timing option values rejected)")

# Removed options are usage errors that say why, not silently ignored
# knobs: decomposition always runs over the whole window (the old
# band-tiling options), nets always route one at a time (the old
# wave-parallel option), and a run always uses one thread (the old
# per-layer worker count).
foreach(case "--tile-words;2;decomposition always runs whole-window"
        "--schedule;dynamic;decomposition always runs whole-window"
        "--route-jobs;4;nets always route sequentially"
        "--threads;2;a run always uses one thread")
  list(GET case 0 flag)
  list(GET case 1 val)
  list(GET case 2 hint)
  execute_process(COMMAND "${CLI}" --seed-demo 10 --width 40 --height 40
                          "${flag}" "${val}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} ${val} exited ${rc}, want usage error 2\n${err}")
  endif()
  if(NOT err MATCHES "usage:" OR NOT err MATCHES "${flag} was removed: ${hint}")
    message(FATAL_ERROR "${flag} ${val} stderr lacks the removed-option hint:\n${err}")
  endif()
endforeach()
message(STATUS "cli batch smoke OK (removed options rejected)")

# Oversized designs are usage errors before anything is allocated: a grid
# above 2^24 nodes (width*height*layers), or more demo nets than
# width*height/2. The message names the limit.
foreach(case "200000;200000;5;16777216 grid nodes"
        "40;40;801;width*height/2 = 800")
  list(GET case 0 w)
  list(GET case 1 h)
  list(GET case 2 nets)
  list(GET case 3 limit)
  execute_process(COMMAND "${CLI}" --seed-demo "${nets}" --width "${w}"
                          --height "${h}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${w}x${h} with ${nets} nets exited ${rc}, want usage error 2\n${err}")
  endif()
  string(FIND "${err}" "${limit}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${w}x${h} with ${nets} nets: stderr does not name '${limit}':\n${err}")
  endif()
endforeach()
message(STATUS "cli batch smoke OK (oversized designs rejected)")
