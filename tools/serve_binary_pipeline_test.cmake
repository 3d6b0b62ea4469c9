# End-to-end check of the binary wire protocol against the TCP event
# loop, run by ctest:
#   1. train a tiny model
#   2. score rows through `spe_serve --stdio` (text protocol) — the truth,
#      itself checked against `spe_cli predict`, which scores offline
#      without the event loop
#   3. serve the same model over --port; spe_wire_client scores the same
#      rows over binary frames — the outputs must be byte-identical
#   4. an oversized frame must be refused with the usage exit code while
#      the connection (and every row sent after it) keeps working
#   5. SIGTERM must drain the TCP server to exit 0

foreach(var SPE_CLI SPE_SERVE SPE_WIRE_CLIENT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

find_program(BASH_PROGRAM bash)
if(NOT BASH_PROGRAM)
  message(FATAL_ERROR "bash is required for the binary pipeline test")
endif()

set(dir ${WORK_DIR}/serve_binary_pipeline_test)
file(REMOVE_RECURSE ${dir})
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
  COMMAND ${SPE_CLI} train --data ${dir}/train.csv --n 5
          --model ${dir}/m.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spe_cli train failed (${rc}): ${out} ${err}")
endif()

# Rows with spread-out values; one row of the wrong width to check the
# error taxonomy crosses the protocols identically.
file(WRITE ${dir}/rows.csv
  "1.5,0.25\n-2.5,-1.75\n0.0,0.0\n6.5,2.25\n-0.5,-0.75\n1,2,3\n")

file(WRITE ${dir}/binary.sh
[=[#!/bin/bash
set -u
serve="$1"; client="$2"; dir="$3"; cli="$4"
cd "$dir" || exit 90

# ---- text-protocol truth over stdio --------------------------------
"$serve" --model m.model --stdio < rows.csv > truth.txt 2>/dev/null
if [ $? -ne 0 ]; then echo "stdio truth run failed" >&2; exit 91; fi

# ---- the truth agrees with offline scoring -------------------------
# spe_cli predict reads a labelled CSV with a header line and prints
# %.6f; the five well-formed rows get a dummy label.
{ echo "f0,f1,label"; head -5 rows.csv | sed 's/$/,0/'; } > predict.csv
"$cli" predict --data predict.csv --model m.model --scores-only \
  > predicted.txt
if [ $? -ne 0 ]; then echo "spe_cli predict failed" >&2; exit 101; fi
head -5 truth.txt | awk '{ printf "%.6f\n", $1 }' > truth6.txt
if ! cmp -s predicted.txt truth6.txt; then
  echo "stdio scores differ from spe_cli predict:" >&2
  diff truth6.txt predicted.txt >&2
  exit 102
fi

# ---- start the TCP server (retry across candidate ports) -----------
pid=""
for try in 1 2 3 4 5; do
  port=$((20000 + RANDOM % 30000))
  "$serve" --model m.model --port "$port" 2> err.txt &
  pid=$!
  for _ in $(seq 1 50); do
    grep -q "listening on" err.txt 2>/dev/null && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  grep -q "listening on" err.txt 2>/dev/null && break
  wait "$pid" 2>/dev/null
  pid=""
done
if [ -z "$pid" ]; then echo "server never came up" >&2; exit 92; fi
( sleep 120; kill -9 "$pid" 2>/dev/null ) < /dev/null > /dev/null 2>&1 &
watchdog=$!

# ---- binary scores must be byte-identical to the text truth --------
"$client" --port "$port" < rows.csv > binary.txt
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "wire client failed ($rc)" >&2; kill -9 "$pid"; exit 93
fi
if ! cmp -s binary.txt truth.txt; then
  echo "binary responses differ from text truth:" >&2
  diff truth.txt binary.txt >&2
  kill -9 "$pid"; exit 94
fi

# ---- oversized frame: refused with exit 2, connection survives -----
"$client" --port "$port" --oversize < rows.csv > oversize.txt
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "oversize probe exited $rc (wanted 2)" >&2; kill -9 "$pid"; exit 95
fi
if ! head -1 oversize.txt | grep -q "^ERR frame payload exceeds"; then
  echo "oversize refusal missing: $(head -1 oversize.txt)" >&2
  kill -9 "$pid"; exit 96
fi
if ! cmp -s <(tail -n +2 oversize.txt) truth.txt; then
  echo "rows after the oversize refusal were not scored identically" >&2
  kill -9 "$pid"; exit 97
fi

# ---- f32 frames score (values may differ: features are rounded) ----
"$client" --port "$port" --f32 --stats < rows.csv > f32.txt
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "f32 client failed ($rc)" >&2; kill -9 "$pid"; exit 98
fi
if ! grep -q "rows_per_sec" f32.txt; then
  echo "binary STATS response missing" >&2; kill -9 "$pid"; exit 99
fi

# ---- SIGTERM drains the TCP server to exit 0 -----------------------
kill -TERM "$pid"
wait "$pid"; rc=$?
kill "$watchdog" 2>/dev/null
if [ "$rc" -ne 0 ]; then
  echo "TCP server exited $rc after SIGTERM (wanted 0)" >&2
  cat err.txt >&2
  exit 100
fi
exit 0
]=])

execute_process(
  COMMAND ${BASH_PROGRAM} ${dir}/binary.sh ${SPE_SERVE} ${SPE_WIRE_CLIENT}
          ${dir} ${SPE_CLI}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "binary pipeline failed (${rc}): ${out} ${err}")
endif()

message(STATUS "binary pipeline ok: binary scores byte-identical to the "
               "text protocol, oversize refused, drain clean")
