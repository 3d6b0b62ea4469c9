# Chaos harness for crash-safe training, run by ctest (`cmake -P`).
# The process under test is *really* killed — SPE_FAULTS=
# crash_at_iteration=N raises SIGKILL inside the trainer right after
# iteration N's checkpoint publishes, so no destructor, flush or
# atexit hook can paper over a torn state. The contract under test
# (docs/robustness.md):
#
#   1. truth: train straight through, no checkpointing involved
#   2. kill chain: SIGKILL the trainer at three distinct iterations
#      (2, 5, 8 of 10), resuming from the checkpoint each time; every
#      kill leaves exactly one file, spe_train.ckpt, the final resumed
#      run's artifact must be BYTE-IDENTICAL to truth, and the
#      checkpoint must be retired once the artifact publishes, leaving
#      the checkpoint directory empty
#   3. same chain under SPE_THREADS=8 with --checkpoint-every 2, so a
#      resume replays an uncheckpointed iteration — still byte-identical
#   4. a corrupted checkpoint and a checkpoint from a different trainer
#      configuration are refused with exit 4 (corrupt artifact)
#   5. injected artifact-write and data-read faults exhaust the retry
#      budget and exit 5 (injected fault); a 50% flaky data read
#      recovers via backoff and exits 0
#   6. --resume without --checkpoint-dir is a usage error (exit 2)

foreach(var SPE_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

set(dir ${WORK_DIR}/chaos_train_test)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

# Same deterministic integer-arithmetic dataset as the determinism test:
# 800 rows, 1 minority : 7 majority, learnable but overlapping.
set(csv "")
foreach(i RANGE 0 799)
  math(EXPR parity "${i} % 8")
  math(EXPR a "(${i} * 37) % 83")
  math(EXPR b "(${i} * 53) % 97")
  math(EXPR frac_a "(${i} * 29) % 10")
  math(EXPR frac_b "(${i} * 31) % 10")
  if(parity EQUAL 0)
    string(APPEND csv "${a}.${frac_a},${b}.${frac_b},1\n")
  else()
    math(EXPR a "${a} - 20")
    math(EXPR b "${b} - 30")
    string(APPEND csv "${a}.${frac_a},${b}.${frac_b},0\n")
  endif()
endforeach()
file(WRITE ${dir}/train.csv "${csv}")

# Runs spe_cli expecting a clean exit; FATAL otherwise.
function(run_ok threads faults)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SPE_THREADS=${threads}
            "SPE_FAULTS=${faults}" ${SPE_CLI} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "spe_cli ${ARGN} failed (threads=${threads} faults='${faults}', "
      "rc=${rc}): ${out} ${err}")
  endif()
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

# Runs spe_cli expecting the process to die by SIGKILL at iteration
# `at`; asserts the fault announced itself and that the checkpoint, one
# file, survived alone.
function(run_killed threads at ckpt_dir)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SPE_THREADS=${threads}
            "SPE_FAULTS=crash_at_iteration=${at}" ${SPE_CLI} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR
      "trainer survived crash_at_iteration=${at}: ${out} ${err}")
  endif()
  if(NOT err MATCHES "crash_at_iteration=${at}: killing process")
    message(FATAL_ERROR "kill at ${at} not announced: ${err}")
  endif()
  if(NOT EXISTS ${ckpt_dir}/spe_train.ckpt)
    message(FATAL_ERROR
      "no checkpoint survived the SIGKILL at iteration ${at}")
  endif()
  file(GLOB left RELATIVE ${ckpt_dir} ${ckpt_dir}/*)
  if(NOT left STREQUAL "spe_train.ckpt")
    message(FATAL_ERROR
      "the SIGKILL at iteration ${at} left '${left}' in ${ckpt_dir}, not "
      "just spe_train.ckpt")
  endif()
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

# ---- 1. straight-through truth ----------------------------------------
run_ok(1 "" train --data ${dir}/train.csv --n 10 --seed 3
       --model ${dir}/truth.model)

# ---- 2. kill chain at iterations 2, 5, 8 ------------------------------
set(train_args train --data ${dir}/train.csv --n 10 --seed 3
    --model ${dir}/chain.model --checkpoint-dir ${dir}/ckpt --resume)

run_killed(1 2 ${dir}/ckpt ${train_args})
if(NOT last_err MATCHES "training from scratch")
  message(FATAL_ERROR "first run did not start from scratch: ${last_err}")
endif()

run_killed(1 5 ${dir}/ckpt ${train_args})
if(NOT last_err MATCHES "resumed from .* at iteration 3/10")
  message(FATAL_ERROR "second run did not resume at iteration 3: ${last_err}")
endif()

run_killed(1 8 ${dir}/ckpt ${train_args})
if(NOT last_err MATCHES "resumed from .* at iteration 6/10")
  message(FATAL_ERROR "third run did not resume at iteration 6: ${last_err}")
endif()

run_ok(1 "" ${train_args})
if(NOT last_err MATCHES "resumed from .* at iteration 9/10")
  message(FATAL_ERROR "final run did not resume at iteration 9: ${last_err}")
endif()
if(NOT last_err MATCHES "checkpoint .* retired")
  message(FATAL_ERROR "checkpoint not retired after publish: ${last_err}")
endif()
if(EXISTS ${dir}/ckpt/spe_train.ckpt)
  message(FATAL_ERROR "retired checkpoint still on disk")
endif()
file(GLOB left ${dir}/ckpt/*)
if(left)
  message(FATAL_ERROR "retirement left files behind: ${left}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${dir}/truth.model
          ${dir}/chain.model
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
    "artifact after 3 SIGKILLs + resumes differs from the "
    "straight-through run — the resume determinism contract is broken")
endif()

# ---- 3. SPE_THREADS=8 with --checkpoint-every 2 -----------------------
# Kills at 3 and 7 land one iteration past a checkpoint (2, 6), so each
# resume must *replay* the killed iteration from restored RNG state.
set(train8_args train --data ${dir}/train.csv --n 10 --seed 3
    --model ${dir}/chain8.model --checkpoint-dir ${dir}/ckpt8
    --checkpoint-every 2 --resume)
run_killed(8 3 ${dir}/ckpt8 ${train8_args})
run_killed(8 7 ${dir}/ckpt8 ${train8_args})
if(NOT last_err MATCHES "resumed from .* at iteration 3/10")
  message(FATAL_ERROR
    "kill-at-7 run should have resumed from the iteration-2 checkpoint: "
    "${last_err}")
endif()
run_ok(8 "" ${train8_args})
if(NOT last_err MATCHES "resumed from .* at iteration 7/10")
  message(FATAL_ERROR
    "final run should have resumed from the iteration-6 checkpoint and "
    "replayed iteration 7: ${last_err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${dir}/truth.model
          ${dir}/chain8.model
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
    "8-thread kill/resume chain with --checkpoint-every 2 diverged "
    "from the straight-through artifact")
endif()

# ---- 4a. corrupted checkpoint is refused with exit 4 ------------------
run_killed(1 2 ${dir}/ckpt_corrupt train --data ${dir}/train.csv --n 5
           --seed 3 --model ${dir}/c.model
           --checkpoint-dir ${dir}/ckpt_corrupt)
# Length-preserving bit rot at the byte level, via dd: overwrite the
# third-from-last byte with NUL. The payload is text and ends with the
# last member's record, so that byte is member text, never NUL, and
# always changes; the CRC-32 over the payload must catch it.
execute_process(
  COMMAND bash -c "f='${dir}/ckpt_corrupt/spe_train.ckpt'; \
    pos=$(( $(stat -c %s \"$f\") - 3 )); \
    printf '\\x00' | dd of=\"$f\" bs=1 seek=$pos conv=notrunc status=none"
  RESULT_VARIABLE fliprc)
if(NOT fliprc EQUAL 0)
  message(FATAL_ERROR "byte-flip helper failed: ${fliprc}")
endif()

execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/train.csv --n 5 --seed 3
          --model ${dir}/c.model --checkpoint-dir ${dir}/ckpt_corrupt
          --resume
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4 OR NOT err MATCHES "crc32 mismatch")
  message(FATAL_ERROR
    "corrupt checkpoint must exit 4 with a crc error: rc=${rc} ${err}")
endif()

# ---- 4b. checkpoint from a different config is refused with exit 4 ----
run_killed(1 2 ${dir}/ckpt_mismatch train --data ${dir}/train.csv --n 5
           --seed 3 --model ${dir}/c.model
           --checkpoint-dir ${dir}/ckpt_mismatch)
execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/train.csv --n 5 --seed 4
          --model ${dir}/c.model --checkpoint-dir ${dir}/ckpt_mismatch
          --resume
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4 OR NOT err MATCHES "different trainer configuration")
  message(FATAL_ERROR
    "config-mismatch resume must exit 4: rc=${rc} ${err}")
endif()

# ---- 5. injected I/O faults: exhausted retries exit 5, a flaky read
#         recovers ------------------------------------------------------
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SPE_FAULTS=artifact_write_fail_rate=1
          ${SPE_CLI} train --data ${dir}/train.csv --n 3 --seed 3
          --model ${dir}/w.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 5 OR NOT err MATCHES "injected fault: transient artifact write")
  message(FATAL_ERROR
    "always-failing artifact write must exit 5: rc=${rc} ${err}")
endif()
if(NOT err MATCHES "retrying in")
  message(FATAL_ERROR "write fault was not retried before giving up: ${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SPE_FAULTS=data_io_fail_rate=1
          ${SPE_CLI} train --data ${dir}/train.csv --n 3 --seed 3
          --model ${dir}/w.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 5 OR NOT err MATCHES "injected fault: transient data read")
  message(FATAL_ERROR
    "always-failing data read must exit 5: rc=${rc} ${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "SPE_FAULTS=data_io_fail_rate=0.5,seed=3"
          ${SPE_CLI} train --data ${dir}/train.csv --n 3 --seed 3
          --model ${dir}/flaky.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "50% flaky data read should recover via backoff: rc=${rc} ${err}")
endif()
if(NOT EXISTS ${dir}/flaky.model)
  message(FATAL_ERROR "flaky run exited 0 but published no artifact")
endif()

# ---- 6. --resume without --checkpoint-dir is a usage error ------------
execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/train.csv --n 3
          --model ${dir}/u.model --resume
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "checkpoint-dir")
  message(FATAL_ERROR
    "--resume without --checkpoint-dir must be a usage error: "
    "rc=${rc} ${err}")
endif()

message(STATUS
  "chaos train pipeline ok: 5 SIGKILLs across two chains, every resume "
  "deterministic, final artifacts byte-identical to straight-through")
