# Cross-process check of the training determinism contract, run by
# ctest: the model artifact and the prediction output must be
# byte-identical whether the process trains with SPE_THREADS=1 or
# SPE_THREADS=8, and whichever way the CSV was loaded.
#
#   1. write a ~800-row imbalanced CSV (big enough that scoring and the
#      hardness updates actually fan out at 8 threads)
#   2. spe_cli train under SPE_THREADS=1 with no sidecar (parse, then
#      publish <csv>.spmc; inspect must call it valid), under
#      SPE_THREADS=8 (mmap of that sidecar) and under SPE_THREADS=1 with
#      --no-cache (parse only)
#   3. byte-compare the three model bundles
#   4. spe_cli predict --scores-only with each artifact under each
#      thread count; byte-compare all score files
#   5. the boosted path: EasyEnsemble (AdaBoost10 members) and SPE over
#      an AdaBoost10 base, each trained and scored under SPE_THREADS=1
#      and 8; byte-compare their artifacts and score files
#   6. --method Easy with no --base is EasyEnsemble: its artifact equals
#      the --base AdaBoost10 one, and inspect reads AdaBoost10 members

foreach(var SPE_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

set(dir ${WORK_DIR}/train_determinism_test)
file(MAKE_DIRECTORY ${dir})

# Deterministic pseudo-random-looking features from integer arithmetic
# (cmake -P has no RNG): x = (i*37 % 83), y = (i*53 % 97), shifted per
# class so the classes overlap but are learnable. 1 minority : 7
# majority over 800 rows.
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
file(REMOVE ${dir}/train.csv.spmc)  # a rerun's first train is cold again

function(run_cli threads)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SPE_THREADS=${threads}
            ${SPE_CLI} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "spe_cli ${ARGN} failed under SPE_THREADS=${threads} (${rc}): "
      "${out} ${err}")
  endif()
endfunction()

run_cli(1 train --data ${dir}/train.csv --n 10 --seed 3
        --model ${dir}/m_1t.model)
execute_process(
  COMMAND ${SPE_CLI} inspect --data ${dir}/train.csv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "sidecar_state: valid")
  message(FATAL_ERROR
    "the cold train did not publish a valid sidecar (${rc}): ${out} ${err}")
endif()
run_cli(8 train --data ${dir}/train.csv --n 10 --seed 3
        --model ${dir}/m_8t.model)
run_cli(1 train --data ${dir}/train.csv --n 10 --seed 3 --no-cache
        --model ${dir}/m_nocache.model)

foreach(other m_8t m_nocache)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${dir}/m_1t.model
            ${dir}/${other}.model
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
      "model artifact ${other} differs from the cold SPE_THREADS=1 run — "
      "the training determinism contract is broken across thread counts "
      "or load paths")
  endif()
endforeach()

# Scoring: every (artifact, thread count) combination must emit the same
# bytes. spe_cli predict prints scores with %.6f, so equal score files
# mean scores equal to 6 decimals; the artifact comparison above is the
# bit-level check.
function(run_predict threads model out)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SPE_THREADS=${threads}
            ${SPE_CLI} predict --data ${dir}/train.csv --model ${model}
            --scores-only
    RESULT_VARIABLE rc OUTPUT_FILE ${out} ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "predict failed under SPE_THREADS=${threads}: ${err}")
  endif()
endfunction()

run_predict(1 ${dir}/m_1t.model ${dir}/scores_1t.txt)
run_predict(8 ${dir}/m_1t.model ${dir}/scores_8t.txt)
run_predict(8 ${dir}/m_8t.model ${dir}/scores_8t_model8.txt)

foreach(other scores_8t scores_8t_model8)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${dir}/scores_1t.txt
            ${dir}/${other}.txt
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
      "prediction output ${other} differs from the single-threaded run — "
      "the scoring determinism contract is broken")
  endif()
endforeach()

# Trains `name` with the given method flags under SPE_THREADS=1 and 8,
# scores each artifact under the thread count that trained it, and
# byte-compares the two artifacts and the two score files.
function(check_threads_agree name)
  foreach(threads 1 8)
    run_cli(${threads} train --data ${dir}/train.csv ${ARGN} --seed 3
            --model ${dir}/${name}_${threads}t.model)
    run_predict(${threads} ${dir}/${name}_${threads}t.model
                ${dir}/${name}_scores_${threads}t.txt)
  endforeach()
  foreach(one ${name}_1t.model ${name}_scores_1t.txt)
    string(REPLACE "_1t." "_8t." eight ${one})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${dir}/${one} ${dir}/${eight}
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR
        "${eight} differs from ${one} (${ARGN}) — the determinism contract "
        "is broken across thread counts")
    endif()
  endforeach()
endfunction()

check_threads_agree(easy --method Easy --base AdaBoost10 --n 4)
check_threads_agree(spe_adaboost --method SPE --base AdaBoost10 --n 5)

run_cli(1 train --data ${dir}/train.csv --method Easy --n 4 --seed 3
        --model ${dir}/easy_default.model)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${dir}/easy_1t.model
          ${dir}/easy_default.model
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
    "--method Easy without --base differs from --base AdaBoost10: Easy "
    "must default to EasyEnsemble's AdaBoost10 bags")
endif()
execute_process(
  COMMAND ${SPE_CLI} inspect --model ${dir}/easy_default.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "4 x AdaBoost10")
  message(FATAL_ERROR
    "inspect of the default Easy artifact must read 4 x AdaBoost10 (${rc}): "
    "${out} ${err}")
endif()

message(STATUS "train determinism ok: artifacts and scores byte-identical "
               "for SPE_THREADS=1 vs 8 and for cold, warm and uncached loads, "
               "for SPE over DT, Easy and SPE over AdaBoost10; Easy defaults "
               "to AdaBoost10 bags")
