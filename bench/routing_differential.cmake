# Soak determinism and lazy-vs-eager routing differential (ctest, label
# bench-smoke).
#
# bench_chaos_soak times recovery to the first clean InvariantAuditor
# audit, so its stdout is also the auditor's byte contract. Checks, each
# run exiting 0 with byte-identical stdout:
#   * the default soak (--events 25) run twice;
#   * the same soak under --routing eager, the historical recompute-all
#     route strategy, against the lazy scoped-invalidation default;
#   * 5 seeds x 40 events on 16 routers, lazy vs eager (--csv);
#   * bench_join_latency --csv, lazy vs eager.
#
# Invoked as:
#   cmake -DCHAOS_SOAK=<path> -DJOIN_LATENCY=<path> -DWORK_DIR=<dir>
#         -P routing_differential.cmake

foreach(var CHAOS_SOAK JOIN_LATENCY WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs one bench invocation in WORK_DIR (benches drop BENCH_*.json in
# their working directory); fails unless it exits 0.
function(run_clean out_var)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr  # discarded: json/exec-report status goes to stderr
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "${command}: exit ${code}\n${stderr}")
  endif()
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()

function(expect_same name a b)
  if(NOT a STREQUAL b)
    file(WRITE "${WORK_DIR}/${name}.a.txt" "${a}")
    file(WRITE "${WORK_DIR}/${name}.b.txt" "${b}")
    message(FATAL_ERROR
      "${name}: stdout differs (dumps ${name}.a.txt / ${name}.b.txt in "
      "${WORK_DIR})")
  endif()
  message(STATUS "${name}: byte-identical")
endfunction()

run_clean(soak_a ${CHAOS_SOAK} --events 25)
run_clean(soak_b ${CHAOS_SOAK} --events 25)
expect_same(soak_rerun "${soak_a}" "${soak_b}")
run_clean(soak_eager ${CHAOS_SOAK} --events 25 --routing eager)
expect_same(soak_lazy_vs_eager "${soak_a}" "${soak_eager}")

foreach(seed 1 7 23 51 97)
  set(args --seed ${seed} --events 40 --routers 16 --csv)
  run_clean(lazy ${CHAOS_SOAK} ${args})
  run_clean(eager ${CHAOS_SOAK} ${args} --routing eager)
  expect_same(soak_seed${seed}_lazy_vs_eager "${lazy}" "${eager}")
endforeach()

run_clean(jl_lazy ${JOIN_LATENCY} --csv)
run_clean(jl_eager ${JOIN_LATENCY} --csv --routing eager)
expect_same(join_latency_lazy_vs_eager "${jl_lazy}" "${jl_eager}")
