# End-to-end lifecycle pipeline, run by ctest (`cmake -P`, no shell):
#   1. train two model bundles A and B with spe_cli
#   2. spe_cli inspect prints the v3 manifest (format, checksum,
#      hardness histogram) for a bundle
#   3. record standalone truth: serve A alone and B alone over the same
#      rows
#   4. one serving session scores rows on A, hot-swaps to B with
#      `!reload` mid-stream, scores the same rows again: zero errors,
#      responses before the swap byte-identical to A standalone and
#      after it to B standalone, and the metrics dump shows the version
#      flip, the reload count, and populated shadow/drift counters
#   5. an unwritable --metrics-dump path is a startup usage error, not a
#      drain-time surprise

foreach(var SPE_CLI SPE_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

set(dir ${WORK_DIR}/lifecycle_pipeline_test)
file(MAKE_DIRECTORY ${dir})

# ---- 1. train bundles A and B -----------------------------------------
# Same schema, different seeds. The classes overlap (positives and
# negatives share coordinates), so leaf purities — and therefore scores —
# depend on which majority subset the seed sampled: the two models
# disagree on most rows, and a response tells us unambiguously which
# version scored it.
set(csv "")
foreach(i RANGE 0 59)
  math(EXPR parity "${i} % 5")
  math(EXPR a "${i} % 7")
  math(EXPR b "${i} % 3")
  if(parity EQUAL 0)
    string(APPEND csv "${a}.5,${b}.25,1\n")
  else()
    string(APPEND csv "${a}.5,${b}.25,0\n")
  endif()
endforeach()
file(WRITE ${dir}/train.csv "${csv}")

foreach(pair "a;1" "b;2")
  list(GET pair 0 name)
  list(GET pair 1 seed)
  execute_process(
    COMMAND ${SPE_CLI} train --data ${dir}/train.csv --n 5 --seed ${seed}
      --model ${dir}/${name}.model
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "spe_cli train ${name} failed (${rc}): ${out} ${err}")
  endif()
endforeach()

# ---- 2. inspect prints the v3 manifest --------------------------------
execute_process(
  COMMAND ${SPE_CLI} inspect --model ${dir}/a.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spe_cli inspect failed (${rc}): ${err}")
endif()
foreach(want "spe-bundle v3" "crc32" "verified" "hardness_histogram")
  if(NOT out MATCHES "${want}")
    message(FATAL_ERROR "inspect output missing \"${want}\": ${out}")
  endif()
endforeach()

# ---- 3. standalone truth per version ----------------------------------
set(rows "")
foreach(i RANGE 0 11)
  math(EXPR a "${i} % 7")
  math(EXPR b "${i} % 3")
  string(APPEND rows "${a}.5,-${b}.75\n")
endforeach()
file(WRITE ${dir}/rows.txt "${rows}")

foreach(name a b)
  execute_process(
    COMMAND ${SPE_SERVE} --model ${dir}/${name}.model --stdio --workers 1
    INPUT_FILE ${dir}/rows.txt
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "standalone serve of ${name} failed (${rc}): ${err}")
  endif()
  set(truth_${name} "${out}")
endforeach()
if(truth_a STREQUAL truth_b)
  message(FATAL_ERROR "models a and b score identically; swap is untestable")
endif()

# ---- 4. hot-swap mid-stream -------------------------------------------
# Version numbering inside the session: 1 = a.model (startup), 2 =
# b.model (shadow), 3 = b.model (the reload). Shadowing samples every
# batch so the diff counters must populate even in a short run.
file(WRITE ${dir}/session.txt
  "${rows}!reload ${dir}/b.model\n${rows}")
execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/a.model --stdio --workers 1
    --shadow ${dir}/b.model --shadow-sample 1
    --metrics-dump ${dir}/metrics.txt
  INPUT_FILE ${dir}/session.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hot-swap session failed (${rc}): ${err}")
endif()
if(out MATCHES "ERR")
  message(FATAL_ERROR "hot-swap session answered an error: ${out}")
endif()

string(REGEX REPLACE "\n$" "" trimmed "${out}")
string(REPLACE "\n" ";" lines "${trimmed}")
list(LENGTH lines n)
if(NOT n EQUAL 25)  # 12 rows + reload ack + 12 rows
  message(FATAL_ERROR "expected 25 response lines, got ${n}: ${out}")
endif()

list(GET lines 12 ack)
if(NOT ack MATCHES "^OK reloaded version 3 from .*b\\.model")
  message(FATAL_ERROR "unexpected reload ack: ${ack}")
endif()

# Responses before the swap must be byte-identical to A standalone, and
# after it to B standalone — each batch is scored entirely by one
# version, never a blend.
list(SUBLIST lines 0 12 first_half)
list(SUBLIST lines 13 12 second_half)
string(REPLACE ";" "\n" first_half "${first_half}")
string(REPLACE ";" "\n" second_half "${second_half}")
if(NOT "${first_half}\n" STREQUAL "${truth_a}")
  message(FATAL_ERROR "pre-swap responses differ from model a standalone:\n${first_half}\nvs\n${truth_a}")
endif()
if(NOT "${second_half}\n" STREQUAL "${truth_b}")
  message(FATAL_ERROR "post-swap responses differ from model b standalone:\n${second_half}\nvs\n${truth_b}")
endif()

file(READ ${dir}/metrics.txt metrics)
foreach(want
    "spe_lifecycle_active_version 3"
    "spe_lifecycle_reloads_total 1"
    "spe_lifecycle_loads_total 3"
    "spe_lifecycle_load_failures_total 0"
    "spe_lifecycle_shadow_version 2"
    "spe_lifecycle_shadow_batches_total [1-9]"
    "spe_lifecycle_shadow_rows_total [1-9]"
    "spe_lifecycle_drift_observed [1-9]"
    "spe_lifecycle_drift_alert 0"
    "spe_serve_requests_total 24")
  if(NOT metrics MATCHES "${want}")
    message(FATAL_ERROR "metrics dump missing \"${want}\":\n${metrics}")
  endif()
endforeach()

# A refused reload must answer ERR and keep serving: once for a file that
# is not a model, once for a real bundle whose header claims ~1 PB of
# payload (refused as truncated before anything that size is allocated),
# and once for one whose hardness_histogram line claims ~10^18 bins
# (refused as a malformed header before anything is sized from it).
file(WRITE ${dir}/broken.model "not a model\n")
file(READ ${dir}/a.model bundle)
string(REGEX REPLACE "payload_bytes [0-9]+" "payload_bytes 999999999999999"
  lie "${bundle}")
file(WRITE ${dir}/lie.model "${lie}")
string(REGEX REPLACE "hardness_histogram [0-9]+"
  "hardness_histogram 999999999999999999" hist "${bundle}")
file(WRITE ${dir}/hist.model "${hist}")
set(reason_broken "not an spe model stream")
set(reason_lie "truncated")
set(reason_hist "malformed bundle header")
foreach(candidate broken lie hist)
  file(WRITE ${dir}/refused.txt
    "1.5,-0.75\n!reload ${dir}/${candidate}.model\n1.5,-0.75\n")
  execute_process(
    COMMAND ${SPE_SERVE} --model ${dir}/a.model --stdio --workers 1
    INPUT_FILE ${dir}/refused.txt
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "refused-reload session (${candidate}) failed (${rc}): ${err}")
  endif()
  string(REGEX REPLACE "\n$" "" trimmed "${out}")
  string(REPLACE "\n" ";" lines "${trimmed}")
  list(LENGTH lines n)
  if(NOT n EQUAL 3)
    message(FATAL_ERROR
      "expected 3 response lines (${candidate}), got ${n}: ${out}")
  endif()
  list(GET lines 1 refusal)
  if(NOT refusal MATCHES "^ERR reload.*${reason_${candidate}}")
    message(FATAL_ERROR "${candidate} candidate not refused as "
      "\"${reason_${candidate}}\": ${refusal}")
  endif()
  list(GET lines 0 before)
  list(GET lines 2 after)
  if(NOT before STREQUAL after)
    message(FATAL_ERROR
      "refused reload (${candidate}) changed the serving model: ${before} vs ${after}")
  endif()
endforeach()

# The offline view of the same candidate: inspect exits 4 (corrupt
# artifact) with the reason, not with a crash.
execute_process(
  COMMAND ${SPE_CLI} inspect --model ${dir}/hist.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4 OR NOT err MATCHES "malformed bundle header")
  message(FATAL_ERROR
    "inspect of the false histogram count must exit 4: rc=${rc} ${err}")
endif()

# ---- 5. unwritable --metrics-dump is a startup usage error ------------
execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/a.model --stdio
    --metrics-dump ${dir}/no_such_dir/metrics.txt
  INPUT_FILE ${dir}/rows.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--metrics-dump path is not writable")
  message(FATAL_ERROR
    "unwritable dump path not rejected with exit 2: rc=${rc} ${err}")
endif()
if(out MATCHES "^[0-9]")
  message(FATAL_ERROR "server scored rows despite the usage error: ${out}")
endif()

message(STATUS "lifecycle pipeline ok")
