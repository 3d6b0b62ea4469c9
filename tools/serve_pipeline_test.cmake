# End-to-end check of the offline->online pipeline, run by ctest:
#   1. write a tiny CSV training set
#   2. spe_cli train -> model bundle
#   3. pipe CSV + JSON request lines, plus the retired `STATS` command,
#      through `spe_serve --stdio`
#   4. assert one response line per request and sane shapes: `STATS`
#      is an ordinary malformed row now, and the row after it is scored
# Driven with `cmake -P` so it needs no shell beyond what CMake provides.

foreach(var SPE_CLI SPE_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

set(dir ${WORK_DIR}/serve_pipeline_test)
file(MAKE_DIRECTORY ${dir})

# Two interleaved Gaussian-ish blobs, 1 minority : 4 majority — small
# but enough for a depth-limited tree ensemble to fit something real.
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

file(WRITE ${dir}/requests.txt
  "1.5,0.25\n-2.5,-1.75\n{\"id\":7,\"features\":[1.5,0.25]}\nSTATS\n0.5,0.5\nnot,a,number\n")

execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --stdio
  INPUT_FILE ${dir}/requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spe_serve --stdio failed (${rc}): ${err}")
endif()

string(REGEX REPLACE "\n$" "" trimmed "${out}")
string(REPLACE "\n" ";" lines "${trimmed}")
list(LENGTH lines n)
if(NOT n EQUAL 6)
  message(FATAL_ERROR "expected 6 response lines, got ${n}: ${out}")
endif()
list(GET lines 0 l0)
list(GET lines 2 l2)
list(GET lines 3 l3)
list(GET lines 4 l4)
list(GET lines 5 l5)
if(NOT l0 MATCHES "^[0-9.eE+-]+$")
  message(FATAL_ERROR "bad CSV score response: ${l0}")
endif()
if(NOT l2 MATCHES "^\\{\"id\":7,\"proba\":")
  message(FATAL_ERROR "bad JSON score response: ${l2}")
endif()
if(NOT l3 STREQUAL "ERR bad number at column 1")
  message(FATAL_ERROR "retired STATS not refused as a bad row: ${l3}")
endif()
if(NOT l4 MATCHES "^[0-9.eE+-]+$")
  message(FATAL_ERROR "row after STATS not scored: ${l4}")
endif()
if(NOT l5 MATCHES "^ERR ")
  message(FATAL_ERROR "bad error response: ${l5}")
endif()
message(STATUS "serve pipeline ok: ${trimmed}")
