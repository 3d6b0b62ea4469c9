// data_pipeline — copy-traffic and load-path numbers for the columnar
// data layer (docs/performance.md, "Data layout").
//
// Three measurements, one JSON report (BENCH_data.json):
//
//  1. Load path: cold CSV parse (sidecar published) vs warm mmap reuse
//     of the `.spmc` sidecar, with a value-identity check between the
//     two — the cache may only ever change the speed, never a byte.
//  2. Copy meter around one SPE fit: materialize bytes/ops and scratch
//     bytes the fit adds (subsets are index views, so materialize
//     traffic should be near zero).
//  3. Row-copy baseline: the bytes the pre-columnar trainer moved for
//     the same fit — one balanced subset Dataset materialized per
//     ensemble iteration — measured by doing exactly those copies.
//
// The report carries copy_reduction_ratio = baseline / fit. The run
// exits nonzero if the ratio drops below --min-ratio (default 5): that
// is the regression guard CI runs (ctest label "data"), so a change
// that quietly reintroduces per-iteration row copies fails the build.
//
//   data_pipeline [--minority P] [--majority M] [--n-estimators E]
//                 [--min-ratio R] [--out FILE]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "spe/classifiers/decision_tree.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/data/csv.h"
#include "spe/data/dataset.h"
#include "spe/data/matrix.h"
#include "spe/data/mmap_cache.h"
#include "spe/data/synthetic.h"

namespace {

using spe::bench::FlagValue;
using spe::bench::StringFlag;

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool SameValues(const spe::Dataset& a, const spe::Dataset& b) {
  if (a.num_rows() != b.num_rows() || a.num_features() != b.num_features()) {
    return false;
  }
  for (std::size_t j = 0; j < a.num_features(); ++j) {
    const std::span<const double> ca = a.Column(j).values;
    const std::span<const double> cb = b.Column(j).values;
    if (std::memcmp(ca.data(), cb.data(), ca.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.num_rows(); ++i) {
    if (a.Label(i) != b.Label(i)) return false;
  }
  return true;
}

spe::DataCopyStats Delta(const spe::DataCopyStats& before) {
  const spe::DataCopyStats now = spe::GetDataCopyStats();
  return {now.materialize_bytes - before.materialize_bytes,
          now.materialize_ops - before.materialize_ops,
          now.scratch_bytes - before.scratch_bytes};
}

}  // namespace

int main(int argc, char** argv) {
  const long minority = FlagValue(argc, argv, "--minority", 1'000);
  const long majority = FlagValue(argc, argv, "--majority", 20'000);
  const long n_estimators = FlagValue(argc, argv, "--n-estimators", 10);
  const double min_ratio =
      static_cast<double>(FlagValue(argc, argv, "--min-ratio", 5));
  const std::string out_path =
      StringFlag(argc, argv, "--out", "BENCH_data.json");

  spe::CheckerboardConfig config;
  config.num_minority = static_cast<std::size_t>(minority);
  config.num_majority = static_cast<std::size_t>(majority);
  spe::Rng rng(42);
  const spe::Dataset source = spe::MakeCheckerboard(config, rng);

  // --- 1. Load path: cold parse (publishes sidecar) vs warm mmap. ---
  const auto dir =
      std::filesystem::temp_directory_path() / "spe_bench_data_pipeline";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string csv_path = (dir / "train.csv").string();
  spe::SaveCsv(source, csv_path);
  const std::size_t label_column = source.num_features();

  const auto cold_start = std::chrono::steady_clock::now();
  const spe::Dataset cold = spe::LoadCsvCached(csv_path, label_column);
  const double load_cold_s = Seconds(cold_start);
  const spe::SidecarInfo sidecar = spe::InspectSidecar(csv_path, label_column);

  const auto warm_start = std::chrono::steady_clock::now();
  const spe::Dataset warm = spe::LoadCsvCached(csv_path, label_column);
  const double load_warm_s = Seconds(warm_start);

  const bool loads_identical = SameValues(cold, warm);

  // --- 2. Copy meter around one SPE fit over views. ---
  const auto make_spe = [&] {
    spe::SelfPacedEnsembleConfig spe_config;
    spe_config.n_estimators = static_cast<std::size_t>(n_estimators);
    spe_config.seed = 7;
    return std::make_unique<spe::SelfPacedEnsemble>(
        spe_config,
        std::make_unique<spe::DecisionTree>(spe::DecisionTreeConfig{}));
  };
  const spe::DataCopyStats before_fit = spe::GetDataCopyStats();
  auto model = make_spe();
  const auto fit_start = std::chrono::steady_clock::now();
  model->Fit(warm);
  const double fit_s = Seconds(fit_start);
  const spe::DataCopyStats fit = Delta(before_fit);

  // --- 3. Row-copy baseline: the subset Datasets the pre-columnar
  // trainer materialized — one balanced subset per iteration. ---
  const std::vector<std::size_t> pos = warm.PositiveIndices();
  const std::vector<std::size_t> neg = warm.NegativeIndices();
  std::vector<std::size_t> balanced = pos;
  for (std::size_t i = 0; i < pos.size() && i < neg.size(); ++i) {
    balanced.push_back(neg[i]);
  }
  const spe::DataCopyStats before_baseline = spe::GetDataCopyStats();
  for (long k = 0; k < n_estimators; ++k) {
    const spe::Dataset subset = warm.Subset(balanced);
    // Touch the copy so the loop cannot be optimized away.
    if (subset.num_rows() == 0) return 2;
  }
  const spe::DataCopyStats baseline = Delta(before_baseline);

  const double ratio =
      static_cast<double>(baseline.materialize_bytes) /
      static_cast<double>(fit.materialize_bytes > 0 ? fit.materialize_bytes
                                                    : 1);
  const bool pass = loads_identical && ratio >= min_ratio;

  std::ostringstream json;
  json.precision(6);
  json << "{\"bench\":\"data_pipeline\""
       << ",\"rows\":" << warm.num_rows()
       << ",\"features\":" << warm.num_features()
       << ",\"n_estimators\":" << n_estimators
       << ",\"load\":{\"cold_parse_s\":" << load_cold_s
       << ",\"warm_mmap_s\":" << load_warm_s << ",\"sidecar\":\""
       << spe::SidecarStatusName(sidecar.status) << "\""
       << ",\"identical\":" << (loads_identical ? "true" : "false") << "}"
       << ",\"spe_fit\":{\"seconds\":" << fit_s
       << ",\"materialize_bytes\":" << fit.materialize_bytes
       << ",\"materialize_ops\":" << fit.materialize_ops
       << ",\"scratch_bytes\":" << fit.scratch_bytes << "}"
       << ",\"rowmajor_baseline\":{\"materialize_bytes\":"
       << baseline.materialize_bytes
       << ",\"materialize_ops\":" << baseline.materialize_ops << "}"
       << ",\"copy_reduction_ratio\":" << ratio
       << ",\"min_ratio\":" << min_ratio
       << ",\"pass\":" << (pass ? "true" : "false") << "}";

  const std::string report = json.str();
  std::printf("%s\n", report.c_str());
  std::fprintf(stderr,
               "load cold %.3fs warm %.3fs (%s)  fit materialize %llu B / "
               "%llu ops, scratch %llu B  baseline %llu B  ratio %.1fx "
               "(min %.0fx)  %s\n",
               load_cold_s, load_warm_s,
               spe::SidecarStatusName(sidecar.status),
               static_cast<unsigned long long>(fit.materialize_bytes),
               static_cast<unsigned long long>(fit.materialize_ops),
               static_cast<unsigned long long>(fit.scratch_bytes),
               static_cast<unsigned long long>(baseline.materialize_bytes),
               ratio, min_ratio, pass ? "PASS" : "FAIL");
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", report.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  std::filesystem::remove_all(dir);
  return pass ? 0 : 1;
}
