# SIGTERM drain check for spe_serve --stdio, run by ctest. An
# orchestrator stops a service with SIGTERM, not Ctrl-C; both must get
# the same graceful drain. The scenario needs a live process to signal,
# so the session runs under bash with the server's stdin on a fifo that
# is *held open* the whole time — the only way the server can exit is
# the signal, never EOF:
#
#   1. train a tiny model, start spe_serve --stdio --metrics-dump reading
#      the fifo
#   2. write one scoring request, wait for its response
#   3. kill -TERM the server while its stdin is still open
#   4. the server must exit 0, announce the drain on stderr, and publish
#      a metrics dump counting the answered request; stderr carries logs
#      only, never a counter snapshot
#   5. a dump that cannot be written at drain (a 1 KiB file-size limit)
#      must exit 3, name the path, and leave no partial exposition

foreach(var SPE_CLI SPE_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

find_program(BASH_PROGRAM bash)
if(NOT BASH_PROGRAM)
  message(FATAL_ERROR "bash is required for the SIGTERM drain test")
endif()

set(dir ${WORK_DIR}/sigterm_drain_test)
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

file(WRITE ${dir}/drain.sh
[=[#!/bin/bash
set -u
serve="$1"; dir="$2"
cd "$dir" || exit 90
rm -f in.fifo
mkfifo in.fifo || exit 90

"$serve" --model m.model --stdio --workers 1 --metrics-dump metrics.txt \
  < in.fifo > out.txt 2> err.txt &
pid=$!
# Watchdog: a hung drain must fail the test, not wedge ctest. The
# redirections detach it from the harness pipes — an orphaned sleep
# holding stdout open would make cmake wait out the full timeout.
( sleep 60; kill -9 "$pid" 2>/dev/null ) < /dev/null > /dev/null 2>&1 &
watchdog=$!

# Opening the write end unblocks the server's open of the read end;
# keeping fd 3 open for the rest of the script is what guarantees the
# server never sees EOF — only the signal can stop it.
exec 3> in.fifo
echo "1.5,0.25" >&3

for _ in $(seq 1 300); do
  [ -s out.txt ] && break
  sleep 0.1
done
if ! [ -s out.txt ]; then
  kill -9 "$pid" 2>/dev/null
  echo "server never answered the request" >&2
  exit 91
fi

kill -TERM "$pid"
wait "$pid"; rc=$?
kill "$watchdog" 2>/dev/null
exec 3>&-

if [ "$rc" -ne 0 ]; then
  echo "server exited $rc after SIGTERM (wanted 0)" >&2
  cat err.txt >&2
  exit 92
fi
if ! grep -q "received SIGTERM, draining" err.txt; then
  echo "no drain announcement on stderr:" >&2
  cat err.txt >&2
  exit 93
fi
if ! grep -qx "spe_serve_requests_total 1" metrics.txt; then
  echo "metrics dump missing the answered request:" >&2
  cat metrics.txt >&2
  exit 94
fi
if grep -q '{"rows"' err.txt; then
  echo "stderr carries a stats snapshot:" >&2
  cat err.txt >&2
  exit 95
fi

# A failed dump write: with SIGXFSZ ignored, a write past the 1 KiB
# limit fails with EFBIG instead of killing the process. The startup
# writability probe passes; the multi-KiB exposition at drain does not.
rm -f dump.txt dump.txt.tmp
echo "1.5,0.25" > one.csv
( trap '' XFSZ; ulimit -f 1
  exec "$serve" --model m.model --stdio --metrics-dump dump.txt \
    < one.csv > dump_out.txt 2> dump_err.txt )
rc=$?
if [ "$rc" -ne 3 ]; then
  echo "failed --metrics-dump write exited $rc (wanted 3)" >&2
  cat dump_err.txt >&2
  exit 96
fi
if ! grep -q "metrics-dump dump.txt" dump_err.txt; then
  echo "dump failure does not name the path:" >&2
  cat dump_err.txt >&2
  exit 97
fi
if [ -s dump.txt ] || [ -e dump.txt.tmp ]; then
  echo "a partial exposition was left behind" >&2
  exit 98
fi
exit 0
]=])

execute_process(
  COMMAND ${BASH_PROGRAM} ${dir}/drain.sh ${SPE_SERVE} ${dir}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "SIGTERM drain scenario failed (${rc}): ${out} ${err}")
endif()

message(STATUS "SIGTERM drain ok: stdio server drained and exited 0 "
               "with its stdin still open; a failed dump exits 3")
