# End-to-end check of the observability pipeline, run by ctest:
#   1. spe_cli train -> model bundle (same tiny set as the serve test)
#   2. pipe 4 score lines + `!stats` through `spe_serve --stdio
#      --metrics-dump`
#   3. assert the exposition covers the serve and process metric
#      families with the exact values this session implies: 5 requests
#      parsed, 4 scored rows, nothing shed, queue drained
#   4. assert the --metrics-dump file was written and is a superset
#      snapshot (same families, taken at drain, event-loop counters
#      included)
# Driven with `cmake -P` so it needs no shell beyond what CMake provides.

foreach(var SPE_CLI SPE_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

set(dir ${WORK_DIR}/obs_pipeline_test)
file(MAKE_DIRECTORY ${dir})

set(csv "")
foreach(i RANGE 0 39)
  math(EXPR parity "${i} % 5")
  math(EXPR a "${i} % 7")
  math(EXPR b "${i} % 3")
  if(parity EQUAL 0)
    string(APPEND csv "${a}.5,${b}.25,1\n")
  else()
    string(APPEND csv "-${a}.5,-${b}.75,0\n")
  endif()
endforeach()
file(WRITE ${dir}/train.csv "${csv}")

execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/train.csv --n 5 --model ${dir}/m.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spe_cli train failed (${rc}): ${out} ${err}")
endif()

# 4 score requests, then the metrics exposition. `!stats` renders only
# once every earlier response is formatted, so all 4 scores are recorded
# — requests_total must read exactly 4 with zero shed.
file(WRITE ${dir}/requests.txt
  "1.5,0.25\n-2.5,-1.75\n{\"id\":7,\"features\":[1.5,0.25]}\n0.5,0.5\n!stats\n")

execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --stdio
          --metrics-dump ${dir}/metrics_dump.txt
  INPUT_FILE ${dir}/requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spe_serve --stdio failed (${rc}): ${err}")
endif()

# --- the !stats exposition -------------------------------------------
# Serve family: exact counters for this session.
foreach(expected
    "spe_serve_requests_total 4"
    "spe_serve_shed_total 0"
    "spe_serve_deadline_expired_total 0"
    "spe_serve_degraded_batches_total 0"
    "spe_serve_queue_depth 0"
    "spe_serve_latency_us_count 4"
    "spe_serve_batch_rows_total 4")
  if(NOT out MATCHES "${expected}\n")
    message(FATAL_ERROR "exposition missing '${expected}':\n${out}")
  endif()
endforeach()
# Process family: thread-pool gauges/counters and the span aggregates.
foreach(family
    "# TYPE spe_serve_requests_total counter"
    "# TYPE spe_serve_latency_us histogram"
    "spe_serve_latency_us_bucket"
    "spe_threads "
    "spe_parallel_loops_total"
    "spe_spans_total"
    "spe_span_count{span=\"serve.score_batch\"}"
    "# EOF")
  if(NOT out MATCHES "${family}")
    message(FATAL_ERROR "exposition missing '${family}':\n${out}")
  endif()
endforeach()

# --- the drain-time dump ---------------------------------------------
if(NOT EXISTS ${dir}/metrics_dump.txt)
  message(FATAL_ERROR "--metrics-dump did not write ${dir}/metrics_dump.txt")
endif()
file(READ ${dir}/metrics_dump.txt dump)
foreach(expected
    "spe_serve_requests_total 4"
    "spe_serve_shed_total 0"
    "spe_serve_loop_text_requests_total 4"
    "# EOF")
  if(NOT dump MATCHES "${expected}")
    message(FATAL_ERROR "metrics dump missing '${expected}':\n${dump}")
  endif()
endforeach()

message(STATUS "obs pipeline ok: requests_total=4, zero shed, dump written")
