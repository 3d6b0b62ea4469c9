# Fault-injected end-to-end checks of the serving robustness features,
# run by ctest (`cmake -P`, no shell needed):
#   1. train a tiny model bundle with spe_cli
#   2. corrupted / truncated artifacts must be rejected with a clear error
#      and the corrupt-artifact exit code (4, spe/common/exit_codes.h)
#   3. a legacy (headerless) artifact is refused with the corrupt-artifact
#      exit code and the reason, and so is a hand-made bundle whose
#      payload passes its CRC but splits on a feature past the row
#   4. SPE_FAULTS=score_delay_ms + --default-deadline-ms: every request
#      expires in the queue and comes back DEADLINE_EXCEEDED, unscored,
#      and the --metrics-dump exposition counts the expirations
#   5. SPE_FAULTS=score_delay_ms + watermark flags: backlog builds behind
#      the slowed worker, responses are marked "degraded":true and the
#      dump counts degraded batches
#   6. flag-parsing hardening: duplicate flags, unknown flags and
#      garbage values are usage errors, not silently misread config;
#      the retired --stats-interval-ms accepts only 0

foreach(var SPE_CLI SPE_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

set(dir ${WORK_DIR}/serve_fault_test)
file(MAKE_DIRECTORY ${dir})

# ---- 1. train a model bundle ------------------------------------------
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

file(READ ${dir}/m.model artifact)
file(WRITE ${dir}/one_row.txt "1.5,0.25\n")

# ---- 2a. bit-flipped payload is rejected ------------------------------
# The bundle is text; swapping the final payload byte keeps the length
# (so only the checksum can notice) and must trip the CRC verification.
string(LENGTH "${artifact}" len)
math(EXPR head_len "${len} - 1")
string(SUBSTRING "${artifact}" 0 ${head_len} head)
string(SUBSTRING "${artifact}" ${head_len} 1 last_char)
if(last_char STREQUAL "0")
  file(WRITE ${dir}/corrupt.model "${head}1")
else()
  file(WRITE ${dir}/corrupt.model "${head}0")
endif()

execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/corrupt.model --stdio
  INPUT_FILE ${dir}/one_row.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR
    "corrupted artifact must exit 4 (corrupt artifact), got ${rc}: ${out}")
endif()
if(NOT err MATCHES "model artifact corrupted")
  message(FATAL_ERROR "corruption not reported clearly: ${err}")
endif()

# ---- 2b. truncated payload is rejected --------------------------------
math(EXPR trunc_len "${len} - 20")
string(SUBSTRING "${artifact}" 0 ${trunc_len} truncated)
file(WRITE ${dir}/truncated.model "${truncated}")

execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/truncated.model --stdio
  INPUT_FILE ${dir}/one_row.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR
    "truncated artifact must exit 4 (corrupt artifact), got ${rc}: ${out}")
endif()
if(NOT err MATCHES "model artifact truncated")
  message(FATAL_ERROR "truncation not reported clearly: ${err}")
endif()

# ---- 3. legacy headerless artifact is refused -------------------------
# Stripping the header lines (the bundle header plus the v3
# hardness_histogram line) leaves a bare spe-model stream, the
# pre-bundle artifact shape. Nothing writes it any more, and it carries
# neither a checksum nor a row width, so the server refuses it.
string(FIND "${artifact}" "\n" eol)
math(EXPR after_header "${eol} + 1")
string(SUBSTRING "${artifact}" ${after_header} -1 tail)
string(FIND "${tail}" "\n" eol2)
math(EXPR payload_start "${after_header} + ${eol2} + 1")
string(SUBSTRING "${artifact}" ${payload_start} -1 legacy)
file(WRITE ${dir}/legacy.model "${legacy}")

execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/legacy.model --stdio
  INPUT_FILE ${dir}/one_row.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR
    "legacy artifact must exit 4 (corrupt artifact), got ${rc}: ${out}")
endif()
if(NOT err MATCHES "not an spe model stream")
  message(FATAL_ERROR "legacy refusal does not name the reason: ${err}")
endif()

# ---- 3b. a CRC-valid hand-made payload is still decoded, not trusted --
# The tree splits on feature 9 of a 2-wide row: scoring it would read
# past the row. 8b64db8e is the CRC-32 of exactly this payload.
set(payload "spe-model 1 DecisionTree\nnodes 3\n9 0.5 1 2 0.5\n-1 0 -1 -1 0\n-1 0 -1 -1 0.7\n")
string(LENGTH "${payload}" payload_len)
file(WRITE ${dir}/hand_made.model
  "spe-bundle 2 num_features 2 payload_bytes ${payload_len} crc32 8b64db8e\n${payload}")
execute_process(
  COMMAND ${SPE_CLI} predict --data ${dir}/train.csv --model ${dir}/hand_made.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR
    "hand-made payload must make spe_cli exit 4, got ${rc}: ${out} ${err}")
endif()
if(NOT err MATCHES "malformed model artifact payload")
  message(FATAL_ERROR "hand-made payload refusal does not name the reason: ${err}")
endif()
execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/hand_made.model --stdio
  INPUT_FILE ${dir}/one_row.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR
    "hand-made payload must make spe_serve exit 4, got ${rc}: ${out} ${err}")
endif()

# ---- 4. injected scoring delay expires queued deadlines ---------------
# The worker sleeps 200ms after popping each batch (before deadline
# triage), so a 20ms default deadline is guaranteed to have expired by
# the time the request is triaged — no timing luck involved.
file(WRITE ${dir}/deadline_requests.txt
  "1.5,0.25\n-2.5,-1.75\n{\"id\":9,\"features\":[1.5,0.25]}\n")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SPE_FAULTS=score_delay_ms=200
    ${SPE_SERVE} --model ${dir}/m.model --stdio --default-deadline-ms 20
    --metrics-dump ${dir}/deadline_metrics.txt
  INPUT_FILE ${dir}/deadline_requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "deadline run failed (${rc}): ${err}")
endif()
string(REGEX REPLACE "\n$" "" trimmed "${out}")
string(REPLACE "\n" ";" lines "${trimmed}")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "DEADLINE_EXCEEDED")
    message(FATAL_ERROR "expected every response to expire, got: ${line}")
  endif()
endforeach()
list(LENGTH lines n)
if(NOT n EQUAL 3)
  message(FATAL_ERROR "expected 3 responses, got ${n}: ${out}")
endif()
file(READ ${dir}/deadline_metrics.txt dump)
if(NOT dump MATCHES "spe_serve_deadline_expired_total 3\n")
  message(FATAL_ERROR "metrics did not count expirations: ${dump}")
endif()

# ---- 5. backlog behind a slowed worker engages degradation ------------
# One worker, one row per batch, 50ms injected delay per batch: the
# remaining requests are all queued before the first sleep ends, so
# every pop after the first sees a backlog over the high watermark.
set(json_requests "")
foreach(i RANGE 0 9)
  string(APPEND json_requests "{\"id\":${i},\"features\":[1.5,0.25]}\n")
endforeach()
file(WRITE ${dir}/degrade_requests.txt "${json_requests}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SPE_FAULTS=score_delay_ms=50
    ${SPE_SERVE} --model ${dir}/m.model --stdio
    --workers 1 --max-batch 1 --max-delay-us 0
    --degrade-high 2 --degrade-low 1 --degrade-prefix 1
    --metrics-dump ${dir}/degrade_metrics.txt
  INPUT_FILE ${dir}/degrade_requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "degrade run failed (${rc}): ${err}")
endif()
if(NOT out MATCHES "\"degraded\":true")
  message(FATAL_ERROR "no response was marked degraded: ${out}")
endif()
file(READ ${dir}/degrade_metrics.txt dump)
if(NOT dump MATCHES "spe_serve_degraded_batches_total [1-9]")
  message(FATAL_ERROR "metrics did not count degraded batches: ${dump}")
endif()

# ---- 6. flag-parsing hardening ----------------------------------------
# Usage errors are exit code 2, distinct from I/O (3) and corrupt
# artifacts (4) so a supervisor can tell a typo from a bad deploy.
execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --model ${dir}/m.model --stdio
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "duplicate flag --model")
  message(FATAL_ERROR "duplicate flag not rejected with exit 2: rc=${rc} ${err}")
endif()

# An unknown flag is the same hazard as a duplicate: a flag that no
# longer exists (the scoring-mode switch) must fail loudly, not be
# silently ignored.
file(WRITE ${dir}/empty.txt "")
execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --stdio --kernel-mode f64
  INPUT_FILE ${dir}/empty.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag --kernel-mode")
  message(FATAL_ERROR "unknown serve flag not rejected with exit 2: rc=${rc} ${err}")
endif()

# Likewise the legacy-artifact row width: bundles carry their own.
execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --stdio --num-features 2
  INPUT_FILE ${dir}/empty.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag --num-features")
  message(FATAL_ERROR "--num-features not rejected with exit 2: rc=${rc} ${err}")
endif()

execute_process(
  COMMAND ${SPE_CLI} predict --data ${dir}/train.csv --model ${dir}/m.model
    --bogus 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag --bogus")
  message(FATAL_ERROR "unknown cli flag not rejected with exit 2: rc=${rc} ${err}")
endif()

# --stats-interval-ms is retired: the exposition (`!stats`,
# --metrics-dump) is the one stats surface. 0 still starts, so command
# lines that switched the periodic JSON line off keep working; any
# other value is a usage error that points at the exposition.
execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --stdio --stats-interval-ms 5
  INPUT_FILE ${dir}/empty.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "!stats" OR
   NOT err MATCHES "--metrics-dump")
  message(FATAL_ERROR "--stats-interval-ms 5 not refused with exit 2 "
                      "pointing at the exposition: rc=${rc} ${err}")
endif()
file(WRITE ${dir}/one_row.txt "1.5,0.25\n")
execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --stdio --stats-interval-ms 0
  INPUT_FILE ${dir}/one_row.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "^[0-9.eE+-]+\n$")
  message(FATAL_ERROR "--stats-interval-ms 0 did not serve: rc=${rc} ${out} ${err}")
endif()

execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --port banana
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--port expects an integer")
  message(FATAL_ERROR "garbage --port not rejected with exit 2: rc=${rc} ${err}")
endif()

execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/train.csv --n 10abc
    --model ${dir}/ignored.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--n expects an integer")
  message(FATAL_ERROR "garbage --n not rejected with exit 2: rc=${rc} ${err}")
endif()

# A negative --label-column is a usage error, not "the last column".
execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/train.csv --label-column -7
    --model ${dir}/ignored.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--label-column expects an integer >= 0")
  message(FATAL_ERROR
    "negative --label-column not rejected by train with exit 2: rc=${rc} ${err}")
endif()
execute_process(
  COMMAND ${SPE_CLI} inspect --data ${dir}/train.csv --label-column -7
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--label-column expects an integer >= 0")
  message(FATAL_ERROR
    "negative --label-column not rejected by inspect with exit 2: rc=${rc} ${err}")
endif()

# Missing data file: an I/O failure (3), not a generic crash.
execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/no_such_file.csv --n 5
    --model ${dir}/ignored.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 3 OR NOT err MATCHES "cannot open")
  message(FATAL_ERROR "missing data must exit 3 (I/O): rc=${rc} ${err}")
endif()

message(STATUS "serve fault-injection pipeline ok")
