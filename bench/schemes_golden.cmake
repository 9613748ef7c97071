# Scheme-comparator goldens (ctest, label bench-smoke).
#
# E1 (bench_state_scaling), E6 (bench_control_overhead), E4
# (bench_traffic_concentration) and examples/scheme_comparison run one
# workload over CBT and the DVMRP, MOSPF and RP-tree baselines. Their
# stdout is deterministic, so each must match its golden under
# bench/golden/ byte for byte: a harness or router change that moves any
# scheme's state, control or link-load figure fails here.
#
# Invoked as:
#   cmake -DSTATE_SCALING=<path> -DCONTROL_OVERHEAD=<path>
#         -DTRAFFIC_CONCENTRATION=<path> -DSCHEME_COMPARISON=<path>
#         -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir> -P schemes_golden.cmake

foreach(var STATE_SCALING CONTROL_OVERHEAD TRAFFIC_CONCENTRATION
            SCHEME_COMPARISON GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

function(check_golden binary golden)
  set(actual "${WORK_DIR}/${golden}")
  execute_process(
    COMMAND ${binary}
    WORKING_DIRECTORY "${WORK_DIR}"  # benches drop BENCH_exec.json here
    OUTPUT_FILE "${actual}"
    ERROR_VARIABLE stderr
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${binary}: exit ${code}\n${stderr}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      "${GOLDEN_DIR}/${golden}" "${actual}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
      "${golden}: stdout differs from the golden; compare "
      "${GOLDEN_DIR}/${golden} with ${actual}")
  endif()
  message(STATUS "${golden}: byte-identical to the golden")
endfunction()

check_golden(${STATE_SCALING} bench_state_scaling.txt)
check_golden(${CONTROL_OVERHEAD} bench_control_overhead.txt)
check_golden(${TRAFFIC_CONCENTRATION} bench_traffic_concentration.txt)
check_golden(${SCHEME_COMPARISON} scheme_comparison.txt)
