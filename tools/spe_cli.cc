// spe_cli — command-line front end for the library.
//
//   spe_cli train    --data train.csv [--format csv|libsvm]
//                    [--label-column K] [--method SPE|Easy|Cascade]
//                    [--base DT|GBDT10|...] [--n 10] [--bins 20]
//                    [--hardness AE|SE|CE] [--seed 0] --model out.model
//                    [--checkpoint-dir DIR [--checkpoint-every N] [--resume]]
//   spe_cli predict  --data rows.csv --model in.model [--threshold 0.5]
//                    [--scores-only]
//   spe_cli evaluate --data test.csv --model in.model [--threshold 0.5]
//   spe_cli cv       --data train.csv [--folds 5] [--method ...] [...]
//   spe_cli inspect  --model in.model
//
// CSV input: all columns numeric; the label column (default: last)
// holds 0/1. LIBSVM input: standard sparse format.
//
// Everything the subcommands do is plain public API — the tool exists
// so a dataset can be tried without writing C++.
//
// Exit codes follow spe/common/exit_codes.h: 0 ok, 1 runtime error,
// 2 usage (including a flag the command does not read, or a repeated
// one), 3 I/O failure, 4 corrupt artifact/checkpoint, 5 injected fault
// (docs/robustness.md).

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "spe/checkpoint/checkpoint.h"
#include "spe/classifiers/factory.h"
#include "spe/common/exit_codes.h"
#include "spe/common/parse.h"
#include "spe/common/retry.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/data/csv.h"
#include "spe/data/libsvm.h"
#include "spe/data/mmap_cache.h"
#include "spe/eval/cross_validation.h"
#include "spe/imbalance/balance_cascade.h"
#include "spe/imbalance/under_bagging.h"
#include "spe/io/model_io.h"
#include "spe/kernels/flat_forest.h"
#include "spe/metrics/metrics.h"
#include "spe/serve/batch_scorer.h"

namespace {

[[noreturn]] void Usage(const char* message);

struct Options {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  // Numeric accessors reject what strtol/strtod used to swallow: a
  // `--seed banana` or `--n 10abc` is a usage error, not a silent 0.
  long GetInt(const std::string& key, long fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const auto v = spe::ParseInt64(it->second);
    if (!v || *v < std::numeric_limits<long>::min() ||
        *v > std::numeric_limits<long>::max()) {
      const std::string message =
          "--" + key + " expects an integer, got '" + it->second + "'";
      Usage(message.c_str());
    }
    return static_cast<long>(*v);
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const auto v = spe::ParseFiniteDouble(it->second);
    if (!v) {
      const std::string message =
          "--" + key + " expects a finite number, got '" + it->second + "'";
      Usage(message.c_str());
    }
    return *v;
  }
};

[[noreturn]] void Usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: spe_cli <train|predict|evaluate|cv|inspect> "
               "[--data FILE] [options]\n"
               "  common     --format csv|libsvm (default csv), "
               "--label-column K (csv; default: last)\n"
               "  train      --method SPE|Easy|Cascade (default SPE), "
               "--base NAME (default DT),\n"
               "             --n N (default 10), --bins K (default 20), "
               "--hardness AE|SE|CE,\n"
               "             --seed S, --model OUT (required),\n"
               "             --checkpoint-dir DIR (crash-safe training; "
               "SPE only),\n"
               "             --checkpoint-every N (default 1), --resume\n"
               "  predict    --model IN, --threshold T (default 0.5), "
               "--scores-only\n"
               "  evaluate   --model IN, --threshold T (default 0.5)\n"
               "  cv         --folds F (default 5) + the train options\n"
               "  inspect    --model IN — print the artifact manifest\n"
               "             (format version, schema width, payload bytes,\n"
               "             checksum, members, training hardness "
               "histogram);\n"
               "             --data FILE — report the CSV sidecar cache "
               "state\n"
               "             (valid / stale / corrupt / absent)\n"
               "  csv loads  are cached in a <data>.spmc mmap sidecar; "
               "--no-cache\n"
               "             forces a plain parse\n"
               "unknown and repeated flags are usage errors (exit 2)\n");
  std::exit(2);
}

// The flags each command reads. Anything else is a usage error: a typo
// silently ignored runs with a default nobody asked for.
const std::set<std::string>& KnownFlags(const std::string& command) {
  static const std::map<std::string, std::set<std::string>> kFlags = {
      {"train",
       {"data", "format", "label-column", "no-cache", "method", "base", "n",
        "bins", "hardness", "seed", "model", "checkpoint-dir",
        "checkpoint-every", "resume"}},
      {"predict",
       {"data", "format", "label-column", "no-cache", "model", "threshold",
        "scores-only"}},
      {"evaluate",
       {"data", "format", "label-column", "no-cache", "model", "threshold"}},
      {"cv",
       {"data", "format", "label-column", "no-cache", "folds", "method",
        "base", "n", "bins", "hardness", "seed"}},
      {"inspect", {"model", "data", "label-column"}},
  };
  const auto it = kFlags.find(command);
  if (it == kFlags.end()) {
    const std::string message = "unknown command: " + command;
    Usage(message.c_str());
  }
  return it->second;
}

Options Parse(int argc, char** argv) {
  if (argc < 2) Usage("missing command");
  Options options;
  options.command = argv[1];
  const std::set<std::string>& known = KnownFlags(options.command);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      const std::string message = "unexpected argument: " + arg;
      Usage(message.c_str());
    }
    const std::string key = arg.substr(2);
    if (known.count(key) == 0) {
      const std::string message = "unknown flag --" + key;
      Usage(message.c_str());
    }
    std::string value = "1";
    if (key != "scores-only" && key != "resume" && key != "no-cache") {
      if (i + 1 >= argc) {
        const std::string message = "missing value for --" + key;
        Usage(message.c_str());
      }
      value = argv[++i];
    }
    if (!options.flags.emplace(key, value).second) {
      const std::string message = "duplicate flag --" + key;
      Usage(message.c_str());
    }
  }
  return options;
}

spe::Dataset LoadData(const Options& options) {
  const std::string path = options.Get("data", "");
  if (path.empty()) Usage("--data is required");
  // An unreadable data file is an I/O failure (exit 3), not a usage
  // error: the invocation was fine, the filesystem was not. Checked
  // here, before the loaders, whose missing-file path aborts.
  {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) throw spe::TransientIoError("cannot open " + path);
    std::fclose(f);
  }
  if (options.Get("format", "csv") == "libsvm") {
    return spe::RetryWithBackoff(spe::RetryPolicy{}, "load " + path,
                                 [&] { return spe::LoadLibsvm(path); });
  }
  // Default label column: the last one. Peek at the header row width by
  // loading with column 0 would be wasteful; LoadCsv needs the index up
  // front, so resolve "last" via a tiny pre-scan.
  long label_column = options.GetInt("label-column", -1);
  if (label_column < 0) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) throw spe::TransientIoError("cannot open " + path);
    int c = 0;
    long columns = 1;
    while ((c = std::fgetc(f)) != EOF && c != '\n') columns += (c == ',');
    std::fclose(f);
    label_column = columns - 1;
  }
  // CSV goes through the sidecar cache: first load parses and publishes
  // `<path>.spmc`, repeat loads mmap it (same values, no re-parse).
  // --no-cache forces a plain parse and touches no sidecar.
  if (options.flags.count("no-cache") > 0) {
    return spe::RetryWithBackoff(spe::RetryPolicy{}, "load " + path, [&] {
      return spe::LoadCsv(path, static_cast<std::size_t>(label_column));
    });
  }
  return spe::RetryWithBackoff(spe::RetryPolicy{}, "load " + path, [&] {
    return spe::LoadCsvCached(path, static_cast<std::size_t>(label_column));
  });
}

spe::HardnessKind ParseHardness(const std::string& name) {
  if (name == "AE") return spe::HardnessKind::kAbsoluteError;
  if (name == "SE") return spe::HardnessKind::kSquaredError;
  if (name == "CE") return spe::HardnessKind::kCrossEntropy;
  const std::string message = "unknown hardness: " + name;
  Usage(message.c_str());
}

std::unique_ptr<spe::Classifier> BuildMethod(const Options& options) {
  const std::string method = options.Get("method", "SPE");
  const std::string base = options.Get("base", "DT");
  const auto n = static_cast<std::size_t>(options.GetInt("n", 10));
  const auto seed = static_cast<std::uint64_t>(options.GetInt("seed", 0));

  if (method == "SPE") {
    spe::SelfPacedEnsembleConfig config;
    config.n_estimators = n;
    config.num_bins = static_cast<std::size_t>(options.GetInt("bins", 20));
    config.hardness = ParseHardness(options.Get("hardness", "AE"));
    config.seed = seed;
    return std::make_unique<spe::SelfPacedEnsemble>(
        config, spe::MakeClassifier(base, seed));
  }
  if (method == "Easy") {
    spe::UnderBaggingConfig config;
    config.n_estimators = n;
    config.seed = seed;
    return std::make_unique<spe::UnderBagging>(config,
                                               spe::MakeClassifier(base, seed));
  }
  if (method == "Cascade") {
    spe::BalanceCascadeConfig config;
    config.n_estimators = n;
    config.seed = seed;
    return std::make_unique<spe::BalanceCascade>(
        config, spe::MakeClassifier(base, seed));
  }
  const std::string message = "unknown method: " + options.Get("method", "");
  Usage(message.c_str());
}

void PrintScores(const char* title, const spe::ScoreSummary& s) {
  std::printf("%s: AUCPRC %.4f  F1 %.4f  G-mean %.4f  MCC %.4f\n", title,
              s.aucprc, s.f1, s.gmean, s.mcc);
}

int Train(const Options& options) {
  const std::string model_path = options.Get("model", "");
  if (model_path.empty()) Usage("train requires --model");
  const spe::Dataset data = LoadData(options);
  std::fprintf(stderr, "training on %s\n", data.Summary().c_str());
  auto model = BuildMethod(options);

  // Crash-safe training (docs/robustness.md): --checkpoint-dir makes
  // Fit publish resumable state every --checkpoint-every iterations;
  // --resume continues from it after a crash.
  const std::string checkpoint_dir = options.Get("checkpoint-dir", "");
  std::string checkpoint_file;
  if (!checkpoint_dir.empty()) {
    auto* spe_model = dynamic_cast<spe::SelfPacedEnsemble*>(model.get());
    if (spe_model == nullptr) {
      Usage("--checkpoint-dir requires --method SPE");
    }
    spe::FitCheckpointOptions checkpoint;
    checkpoint.directory = checkpoint_dir;
    const long every = options.GetInt("checkpoint-every", 1);
    if (every < 1) Usage("--checkpoint-every expects an integer >= 1");
    checkpoint.every = static_cast<std::size_t>(every);
    checkpoint.resume = options.flags.count("resume") > 0;
    ::mkdir(checkpoint_dir.c_str(), 0777);  // EEXIST is the common case
    spe_model->set_checkpoint_options(checkpoint);
    checkpoint_file = spe::checkpoint::CheckpointPath(checkpoint_dir);
    if (checkpoint.resume) {
      // Preflight so a corrupt or mismatched checkpoint maps onto the
      // exit taxonomy instead of aborting inside Fit.
      const std::string reason = spe_model->CheckResumable(data);
      if (!reason.empty()) {
        std::fprintf(stderr, "error: cannot resume: %s\n", reason.c_str());
        return spe::kExitCorruptArtifact;
      }
    }
  } else if (options.flags.count("resume") > 0 ||
             options.flags.count("checkpoint-every") > 0) {
    Usage("--resume and --checkpoint-every require --checkpoint-dir");
  }

  model->Fit(data);
  spe::RetryWithBackoff(spe::RetryPolicy{}, "write " + model_path, [&] {
    spe::SaveModelBundleToFile(*model, data.num_features(), model_path);
  });
  std::fprintf(stderr, "model written to %s\n", model_path.c_str());
  if (!checkpoint_file.empty() && std::remove(checkpoint_file.c_str()) == 0) {
    // The published artifact supersedes the checkpoint; retiring it
    // (manifest first, then its member log) keeps a later run with the
    // same directory from resuming stale state after a config change.
    std::remove(spe::checkpoint::MemberLogPath(checkpoint_file).c_str());
    std::fprintf(stderr, "checkpoint %s retired\n", checkpoint_file.c_str());
  }
  return 0;
}

// Decodes the artifact at `path` once (injected transient read faults
// retried). A broken artifact prints its reason and returns its
// taxonomy exit code, so commands exit classified instead of aborting.
int DecodeArtifact(const std::string& path, spe::ModelBundle* bundle) {
  const spe::frame::Error error = spe::RetryWithBackoff(
      spe::RetryPolicy{}, "load " + path,
      [&] { return spe::DecodeModelBundleFromFile(path, bundle); });
  if (error.ok()) return 0;
  std::fprintf(stderr, "error: %s\n", error.message.c_str());
  return spe::ClassifyArtifactErrorExit(error.cls);
}

int Predict(const Options& options) {
  const std::string model_path = options.Get("model", "");
  if (model_path.empty()) Usage("predict requires --model");
  spe::ModelBundle bundle;
  if (const int rc = DecodeArtifact(model_path, &bundle)) return rc;
  const spe::Dataset data = LoadData(options);
  // Offline scoring goes through the same batching engine as spe_serve,
  // so there is exactly one dispatch path to keep bit-identical.
  spe::BatchScorer scorer(std::move(bundle.model), data.num_features());
  const std::vector<double> probs = scorer.ScoreBatch(data);
  const bool scores_only = options.flags.count("scores-only") > 0;
  const double threshold = options.GetDouble("threshold", 0.5);
  for (double p : probs) {
    if (scores_only) {
      std::printf("%.6f\n", p);
    } else {
      std::printf("%d,%.6f\n", p >= threshold ? 1 : 0, p);
    }
  }
  return 0;
}

int EvaluateCommand(const Options& options) {
  const std::string model_path = options.Get("model", "");
  if (model_path.empty()) Usage("evaluate requires --model");
  spe::ModelBundle bundle;
  if (const int rc = DecodeArtifact(model_path, &bundle)) return rc;
  const spe::Dataset data = LoadData(options);
  const std::vector<double> probs = bundle.model->PredictProba(data);
  PrintScores("test", spe::Evaluate(data.labels(), probs,
                                    options.GetDouble("threshold", 0.5)));
  const spe::ThresholdSearchResult best =
      spe::BestF1Threshold(data.labels(), probs);
  std::printf("best F1 threshold on this data: %.4f (F1 %.4f)\n",
              best.threshold, best.value);
  return 0;
}

int CrossValidateCommand(const Options& options) {
  const spe::Dataset data = LoadData(options);
  const auto folds = static_cast<std::size_t>(options.GetInt("folds", 5));
  const auto model = BuildMethod(options);
  spe::Rng rng(static_cast<std::uint64_t>(options.GetInt("seed", 0)) + 1);
  const spe::CrossValidationResult result =
      spe::CrossValidate(*model, data, folds, rng);
  for (std::size_t f = 0; f < result.folds.size(); ++f) {
    std::printf("fold %zu", f);
    PrintScores("", result.folds[f]);
  }
  const spe::AggregateScores agg = result.aggregate();
  std::printf("mean: AUCPRC %.4f±%.4f  F1 %.4f±%.4f  G-mean %.4f±%.4f  "
              "MCC %.4f±%.4f\n",
              agg.aucprc.mean, agg.aucprc.std, agg.f1.mean, agg.f1.std,
              agg.gmean.mean, agg.gmean.std, agg.mcc.mean, agg.mcc.std);
  return 0;
}

// Reports the CSV sidecar cache state for --data: whether `<data>.spmc`
// is valid (mmap-reusable), stale (source changed), corrupt, or absent.
int InspectSidecarReport(const Options& options) {
  const std::string path = options.Get("data", "");
  long label_column = options.GetInt("label-column", -1);
  if (label_column < 0) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) throw spe::TransientIoError("cannot open " + path);
    int c = 0;
    long columns = 1;
    while ((c = std::fgetc(f)) != EOF && c != '\n') columns += (c == ',');
    std::fclose(f);
    label_column = columns - 1;
  }
  const spe::SidecarInfo info =
      spe::InspectSidecar(path, static_cast<std::size_t>(label_column));
  std::printf("data:          %s\n", path.c_str());
  std::printf("sidecar:       %s\n", info.sidecar_path.c_str());
  std::printf("sidecar_state: %s (%s)\n", spe::SidecarStatusName(info.status),
              info.detail.c_str());
  if (info.status == spe::SidecarStatus::kValid) {
    std::printf("sidecar_shape: %zu rows x %zu features\n", info.num_rows,
                info.num_features);
  }
  return 0;
}

int InspectCommand(const Options& options) {
  const std::string model_path = options.Get("model", "");
  if (model_path.empty() && options.flags.count("data") > 0) {
    return InspectSidecarReport(options);
  }
  if (model_path.empty()) Usage("inspect requires --model or --data");
  // inspect must describe a broken artifact (that is when an operator
  // reaches for it), not abort on it.
  spe::ModelBundle bundle;
  if (const int rc = DecodeArtifact(model_path, &bundle)) return rc;
  std::printf("artifact:      %s\n", model_path.c_str());
  std::printf("format:        spe-bundle v%d\n", bundle.format_version);
  std::printf("model:         %s\n", bundle.model->Name().c_str());
  std::printf("num_features:  %zu\n", bundle.num_features);
  std::printf("payload_bytes: %zu\n", bundle.payload_bytes);
  std::printf("crc32:         %s (verified)\n", bundle.crc32_hex.c_str());
  std::printf("kernel:        %s\n", spe::kernels::ActiveKernel(*bundle.model));
  if (const auto* voting =
          dynamic_cast<const spe::VotingEnsembleModel*>(bundle.model.get())) {
    const spe::VotingEnsemble& members = voting->members();
    std::map<std::string, std::size_t> by_type;
    for (std::size_t i = 0; i < members.size(); ++i) {
      ++by_type[members.member(i).Name()];
    }
    std::printf("members:       %zu (", members.size());
    bool first = true;
    for (const auto& [name, count] : by_type) {
      std::printf("%s%zu x %s", first ? "" : ", ", count, name.c_str());
      first = false;
    }
    std::printf(")\n");
  }
  const spe::HardnessHistogram& histogram = bundle.hardness_histogram;
  if (histogram.empty()) {
    std::printf("hardness_histogram: none\n");
  } else {
    std::printf("hardness_histogram: %zu bins, kind %s, range [%g, %g], "
                "%llu samples\n",
                histogram.counts.size(), histogram.kind.c_str(),
                histogram.min, histogram.max,
                static_cast<unsigned long long>(histogram.total()));
    std::printf("  counts:");
    for (const std::uint64_t c : histogram.counts) {
      std::printf(" %llu", static_cast<unsigned long long>(c));
    }
    std::printf("\n");
  }
  if (options.flags.count("data") > 0) return InspectSidecarReport(options);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Parse(argc, argv);
  try {
    if (options.command == "train") return Train(options);
    if (options.command == "predict") return Predict(options);
    if (options.command == "evaluate") return EvaluateCommand(options);
    if (options.command == "cv") return CrossValidateCommand(options);
    if (options.command == "inspect") return InspectCommand(options);
  } catch (const spe::TransientIoError& error) {
    // Retries already happened (and were logged) wherever the error
    // arose; reaching main means the condition outlived the backoff.
    std::fprintf(stderr, "error: %s\n", error.what());
    return error.injected() ? spe::kExitFault : spe::kExitIo;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return spe::kExitRuntime;
  }
  const std::string message = "unknown command: " + options.command;
  Usage(message.c_str());
}
