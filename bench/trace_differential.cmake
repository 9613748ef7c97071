# Tracing-on vs tracing-off differential (ctest, label bench-smoke).
#
# The obs determinism contract: enabling tracing at any level must leave
# bench stdout byte-identical — tracing is record-only. This script runs
# bench_chaos_soak over two seeds and bench_join_latency with and
# without --trace, compares stdout byte-for-byte, and checks the shape of
# the exported files: each chaos-soak trace is Chrome trace_event JSON
# whose first event carries the six keys viewers need, and the --json
# BENCH report written alongside it has its four top-level keys.
#
# Invoked as:
#   cmake -DCHAOS_SOAK=<path> -DJOIN_LATENCY=<path> -DWORK_DIR=<dir>
#         -P trace_differential.cmake

foreach(var CHAOS_SOAK JOIN_LATENCY WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_and_capture out_var exit_var)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr  # discarded: trace/json status goes to stderr
    RESULT_VARIABLE code)
  set(${out_var} "${stdout}" PARENT_SCOPE)
  set(${exit_var} "${code}" PARENT_SCOPE)
endfunction()

function(expect_json_keys label json)
  foreach(key ${ARGN})
    string(JSON ignored ERROR_VARIABLE err TYPE "${json}" ${key})
    if(err)
      message(FATAL_ERROR "${label}: missing key ${key}")
    endif()
  endforeach()
endfunction()

# --- chaos soak, two seeds, small scaling-mode run ---------------------
foreach(seed 1 2)
  set(flags --seed ${seed} --events 6 --routers 9 --csv)
  run_and_capture(plain_out plain_code ${CHAOS_SOAK} ${flags})
  set(trace_file "${WORK_DIR}/chaos_soak_seed${seed}.trace.json")
  set(report_file "${WORK_DIR}/chaos_soak_seed${seed}.report.json")
  run_and_capture(traced_out traced_code
    ${CHAOS_SOAK} ${flags} --trace ${trace_file} --json ${report_file})
  if(NOT plain_code STREQUAL traced_code)
    message(FATAL_ERROR
      "chaos_soak seed ${seed}: exit ${plain_code} (plain) vs "
      "${traced_code} (traced)")
  endif()
  if(NOT plain_out STREQUAL traced_out)
    file(WRITE "${WORK_DIR}/chaos_soak_seed${seed}.plain.txt" "${plain_out}")
    file(WRITE "${WORK_DIR}/chaos_soak_seed${seed}.traced.txt" "${traced_out}")
    message(FATAL_ERROR
      "chaos_soak seed ${seed}: stdout differs with tracing enabled "
      "(dumps in ${WORK_DIR})")
  endif()
  message(STATUS "chaos_soak seed ${seed}: traced stdout byte-identical")
  file(READ "${trace_file}" trace_json)
  string(JSON first_event ERROR_VARIABLE err GET "${trace_json}" traceEvents 0)
  if(err)
    message(FATAL_ERROR "${trace_file}: no traceEvents[0] (${err})")
  endif()
  expect_json_keys("${trace_file} event 0" "${first_event}"
    name cat ph ts pid tid)
  file(READ "${report_file}" report_json)
  expect_json_keys("${report_file}" "${report_json}"
    bench schema_version params series)
endforeach()

# --- join latency ------------------------------------------------------
run_and_capture(jl_plain jl_plain_code ${JOIN_LATENCY})
set(jl_trace_file "${WORK_DIR}/join_latency.trace.json")
run_and_capture(jl_traced jl_traced_code
  ${JOIN_LATENCY} --trace ${jl_trace_file})
if(NOT jl_plain STREQUAL jl_traced)
  message(FATAL_ERROR "join_latency: stdout differs with tracing enabled")
endif()
message(STATUS "join_latency: traced stdout byte-identical")

# --- exported trace sanity --------------------------------------------
if(NOT EXISTS "${jl_trace_file}")
  message(FATAL_ERROR "join_latency --trace wrote no file")
endif()
file(READ "${jl_trace_file}" trace_json)
if(NOT trace_json MATCHES "\"traceEvents\"")
  message(FATAL_ERROR "${jl_trace_file} is not Chrome trace_event JSON")
endif()
string(LENGTH "${trace_json}" trace_len)
message(STATUS "join_latency trace: valid Chrome trace, ${trace_len} bytes")
