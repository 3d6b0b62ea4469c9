#include "spe/io/model_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "spe/classifiers/adaboost.h"
#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/classifiers/logistic_regression.h"
#include "spe/common/check.h"
#include "spe/common/fault.h"
#include "spe/common/parse.h"
#include "spe/common/retry.h"
#include "spe/kernels/flat_forest.h"

namespace spe {
namespace {

constexpr char kMagic[] = "spe-model";
constexpr int kFormatVersion = 1;
// Version 2 added "payload_bytes B crc32 HHHHHHHH" to the header so
// loaders detect truncated / bit-flipped artifacts. Version 3 added the
// "hardness_histogram" line — the training-time drift baseline for the
// lifecycle layer. Version 2 loads unchanged (no histogram).
constexpr frame::Format kBundleFormat = {
    "spe-bundle", 2, 3, "not an spe model stream", "malformed bundle header",
    "unsupported bundle version", "model artifact"};

// "hardness_histogram K [KIND MIN MAX C0 .. C(K-1)]\n". Doubles print
// with max_digits10 so a parse-and-reprint reproduces the exact bytes.
std::string HistogramLine(const HardnessHistogram* histogram) {
  std::string line = "hardness_histogram ";
  if (histogram == nullptr || histogram->empty()) return line + "0\n";
  line += std::to_string(histogram->counts.size());
  line += ' ';
  line += histogram->kind;
  char num[64];
  std::snprintf(num, sizeof(num), " %.17g %.17g", histogram->min,
                histogram->max);
  line += num;
  for (const std::uint64_t c : histogram->counts) {
    line += ' ';
    line += std::to_string(c);
  }
  line += '\n';
  return line;
}

// Parses the histogram line (newline excluded). The CRC does not cover
// it, so its shape is checked instead: the bin count against the
// separators actually on the line before anything is sized from it, a
// kind the drift detector can rebuild, whole numbers, a nonzero total.
bool ParseHistogramLine(std::string_view line, HardnessHistogram* out) {
  const std::vector<std::string_view> head = frame::Tokens(line, 3);
  std::uint64_t bins = 0;
  if (head.size() < 2 || head[0] != "hardness_histogram" ||
      !frame::ParseU64(head[1], &bins)) {
    return false;
  }
  if (bins == 0) return head.size() == 2;  // the model carries none
  // KIND MIN MAX C0 .. C(K-1): K + 3 tokens, K + 2 separators.
  if (head.size() != 3 || bins > head[2].size() ||
      std::count(head[2].begin(), head[2].end(), ' ') !=
          static_cast<std::ptrdiff_t>(bins + 2)) {
    return false;
  }
  const std::vector<std::string_view> fields = frame::Tokens(head[2]);
  const std::optional<double> min = ParseFiniteDouble(fields[1]);
  const std::optional<double> max = ParseFiniteDouble(fields[2]);
  HardnessHistogram histogram{std::string(fields[0]), min.value_or(0.0),
                              max.value_or(0.0),
                              std::vector<std::uint64_t>(bins)};
  HardnessKind kind{};
  bool ok = HardnessKindFromName(histogram.kind, &kind) && min && max;
  std::uint64_t total = 0;
  for (std::size_t b = 0; ok && b < bins; ++b) {
    ok = frame::ParseU64(fields[3 + b], &histogram.counts[b]) &&
         !__builtin_add_overflow(total, histogram.counts[b], &total);
  }
  if (!ok || total == 0) return false;
  *out = std::move(histogram);
  return true;
}

// The rest of `is`, read in chunks so nothing is sized from a claim.
std::string ReadAll(std::istream& is) {
  std::string bytes;
  char chunk[1 << 16];
  while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  return bytes;
}

void SaveEnsembleMembers(const VotingEnsemble& members, std::ostream& os) {
  os << "members " << members.size() << "\n";
  for (std::size_t i = 0; i < members.size(); ++i) {
    SaveClassifier(members.member(i), os);
  }
}

}  // namespace

VotingEnsembleModel::VotingEnsembleModel(VotingEnsemble members)
    : VotingClassifier(std::move(members)) {
  SPE_CHECK(!ensemble_.empty());
}

void VotingEnsembleModel::Fit(const DatasetView& /*train*/) {
  SPE_CHECK(false) << "VotingEnsembleModel is an inference-only artifact; "
                      "retrain with the original ensemble trainer";
}

std::unique_ptr<Classifier> VotingEnsembleModel::Clone() const {
  SPE_CHECK(false) << "VotingEnsembleModel cannot be cloned untrained";
  return nullptr;  // unreachable
}

void SaveClassifier(const Classifier& model, std::ostream& os) {
  os << kMagic << " " << kFormatVersion << " ";
  if (const auto* tree = dynamic_cast<const DecisionTree*>(&model)) {
    os << "DecisionTree\n";
    tree->SaveModel(os);
    return;
  }
  if (const auto* gbdt = dynamic_cast<const Gbdt*>(&model)) {
    os << "Gbdt\n";
    gbdt->SaveModel(os);
    return;
  }
  if (const auto* lr = dynamic_cast<const LogisticRegression*>(&model)) {
    os << "LogisticRegression\n";
    lr->SaveModel(os);
    return;
  }
  if (const auto* boost = dynamic_cast<const AdaBoost*>(&model)) {
    SPE_CHECK_GT(boost->NumStages(), 0u) << "cannot save an unfitted booster";
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "AdaBoost\n";
    os << "learning_rate " << boost->learning_rate() << "\n";
    os << "stages " << boost->NumStages() << "\n";
    for (std::size_t i = 0; i < boost->NumStages(); ++i) {
      SaveClassifier(boost->stage(i), os);
    }
    return;
  }

  // Every mean-vote ensemble persists as its member list.
  const auto* voting = dynamic_cast<const VotingClassifier*>(&model);
  SPE_CHECK(voting != nullptr)
      << model.Name() << " does not support persistence";
  SPE_CHECK(!voting->members().empty()) << "cannot save an unfitted ensemble";
  os << "VotingEnsemble\n";
  SaveEnsembleMembers(voting->members(), os);
}

namespace {

std::unique_ptr<Classifier> ReadClassifier(std::istream& is,
                                           std::size_t num_features);

/// Restores a model whose "spe-model VERSION TAG" preamble has already
/// been consumed. Throws MalformedPayload on anything SaveClassifier
/// could not have written; no count sizes anything before it is bounded
/// by the bytes left.
std::unique_ptr<Classifier> ReadTagged(int version, const std::string& tag,
                                       std::istream& is,
                                       std::size_t num_features) {
  PayloadCheck(version == kFormatVersion, "unsupported model payload version");

  if (tag == "DecisionTree") {
    return std::make_unique<DecisionTree>(
        DecisionTree::LoadModel(is, num_features));
  }
  if (tag == "Gbdt") {
    return std::make_unique<Gbdt>(Gbdt::LoadModel(is, num_features));
  }
  if (tag == "LogisticRegression") {
    return std::make_unique<LogisticRegression>(
        LogisticRegression::LoadModel(is, num_features));
  }
  // A nested model takes at least 16 bytes: "spe-model 1 Gbdt" alone does.
  constexpr std::size_t kMinModelBytes = 16;
  std::string keyword;
  std::size_t count = 0;
  if (tag == "AdaBoost") {
    AdaBoostConfig config;
    is >> keyword >> config.learning_rate;
    PayloadCheck(is.good() && keyword == "learning_rate", "malformed AdaBoost");
    is >> keyword >> count;
    PayloadCheck(is.good() && keyword == "stages" && count > 0 &&
                     count <= BytesLeft(is) / kMinModelBytes,
                 "malformed AdaBoost");
    config.n_estimators = count;
    std::vector<std::unique_ptr<Classifier>> stages;
    stages.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      stages.push_back(ReadClassifier(is, num_features));
    }
    return AdaBoost::FromTrainedStages(config, std::move(stages));
  }
  if (tag == "VotingEnsemble") {
    is >> keyword >> count;
    PayloadCheck(is.good() && keyword == "members" && count > 0 &&
                     count <= BytesLeft(is) / kMinModelBytes,
                 "malformed ensemble model");
    VotingEnsemble members;
    for (std::size_t i = 0; i < count; ++i) {
      members.Add(ReadClassifier(is, num_features));
    }
    return std::make_unique<VotingEnsembleModel>(std::move(members));
  }
  throw MalformedPayload("unknown model tag: " + tag);
}

std::unique_ptr<Classifier> ReadClassifier(std::istream& is,
                                           std::size_t num_features) {
  std::string magic;
  int version = 0;
  std::string tag;
  is >> magic >> version >> tag;
  PayloadCheck(is.good() && magic == kMagic, "not an spe model stream");
  return ReadTagged(version, tag, is, num_features);
}

}  // namespace

frame::Error DecodeClassifier(std::istream& is, std::size_t num_features,
                              std::unique_ptr<Classifier>* model) {
  try {
    *model = ReadClassifier(is, num_features);
  } catch (const MalformedPayload& error) {
    return {frame::ErrorClass::kMalformed, error.what()};
  }
  return {};
}

std::unique_ptr<Classifier> LoadClassifier(std::istream& is) {
  std::unique_ptr<Classifier> model;
  const frame::Error error = DecodeClassifier(is, kAnyWidth, &model);
  SPE_CHECK(error.ok()) << error.message;
  return model;
}

std::unique_ptr<Classifier> LoadClassifierFromFile(const std::string& path) {
  return LoadModelBundleFromFile(path).model;
}

namespace {

std::string EncodeBundle(const Classifier& model, std::size_t num_features,
                         const HardnessHistogram* histogram) {
  SPE_CHECK_GT(num_features, 0u);
  if (histogram == nullptr) {
    if (const auto* profiled = dynamic_cast<const HardnessProfiled*>(&model)) {
      histogram = profiled->training_hardness();
    }
  }
  // Serialize the model first so the header can promise the exact
  // payload size and checksum the loader will verify.
  std::ostringstream payload_stream;
  SaveClassifier(model, payload_stream);
  const std::string payload = std::move(payload_stream).str();
  return frame::EncodeHeader(kBundleFormat,
                             "num_features " + std::to_string(num_features),
                             payload) +
         HistogramLine(histogram) + payload;
}

}  // namespace

void SaveModelBundle(const Classifier& model, std::size_t num_features,
                     std::ostream& os, const HardnessHistogram* histogram) {
  os << EncodeBundle(model, num_features, histogram);
}

void SaveModelBundleToFile(const Classifier& model, std::size_t num_features,
                           const std::string& path) {
  // Transient fault point: a recoverable write failure (disk full, EIO)
  // before any side effect. Thrown, not aborted, so callers can retry
  // under spe/common/retry — unlike the model_io_fail_rate point below,
  // which keeps its historical abort semantics.
  if (Faults().ShouldFailArtifactWrite()) {
    throw TransientIoError(
        "injected fault: transient artifact write failed for " + path,
        /*injected=*/true);
  }
  const std::string bytes = EncodeBundle(model, num_features, nullptr);
  // Fault point: an injected failure here models a crash mid-save;
  // `path` keeps its previous, intact content.
  SPE_CHECK(!Faults().ShouldFailModelIo())
      << "injected fault: model artifact write failed before publishing "
      << path;
  const frame::Error error = frame::PublishAtomically(path, bytes);
  SPE_CHECK(error.ok()) << error.message;
}

frame::Error DecodeModelBundle(std::string_view bytes, ModelBundle* bundle) {
  if (bytes.empty()) {
    return {frame::ErrorClass::kTruncated, "empty or unreadable model stream"};
  }
  const frame::Error malformed = {frame::ErrorClass::kMalformed,
                                  std::string(kBundleFormat.malformed)};
  frame::Header header;
  frame::Error error = frame::DecodeHeader(bytes, kBundleFormat, &header);
  if (!error.ok()) return error;
  const std::vector<std::string_view> fields = frame::Tokens(header.fields, 3);
  std::uint64_t num_features = 0;
  if (fields.size() != 2 || fields[0] != "num_features" ||
      !frame::ParseU64(fields[1], &num_features) || num_features == 0) {
    return malformed;
  }
  HardnessHistogram histogram;
  std::string_view rest = bytes.substr(header.size);
  if (header.version >= 3) {
    const std::size_t eol = rest.find('\n');
    if (eol == std::string_view::npos) {
      return {frame::ErrorClass::kTruncated,
              "model artifact truncated: hardness_histogram line has no end"};
    }
    if (!ParseHistogramLine(rest.substr(0, eol), &histogram)) return malformed;
    rest.remove_prefix(eol + 1);
  }
  // Length and checksum are verified before a single payload byte is
  // parsed, so a refusal names the real problem, not a downstream parse
  // confusion.
  error = frame::CheckPayload(header, rest, kBundleFormat);
  if (!error.ok()) return error;

  std::istringstream payload_is(
      std::string(rest.substr(0, header.payload_bytes)));
  // A payload that passes its CRC can still be hand-made: it is parsed
  // against the header's row width and refused, not trusted.
  error = DecodeClassifier(payload_is, static_cast<std::size_t>(num_features),
                           &bundle->model);
  if (!error.ok()) {
    return {error.cls, "malformed model artifact payload: " + error.message};
  }
  bundle->num_features = static_cast<std::size_t>(num_features);
  bundle->format_version = header.version;
  bundle->payload_bytes = static_cast<std::size_t>(header.payload_bytes);
  bundle->crc32_hex = frame::CrcHex(header.crc32);
  auto* voting = dynamic_cast<VotingEnsembleModel*>(bundle->model.get());
  if (voting != nullptr && !histogram.empty()) {
    voting->set_training_hardness(histogram);
  }
  bundle->hardness_histogram = std::move(histogram);
  // Compile-on-load: ActiveKernel triggers the lazy flat-inference
  // compile, so a serving process pays it at startup rather than on the
  // first scored batch. Models that cannot lower (non-tree members)
  // simply stay on the reference path.
  (void)kernels::ActiveKernel(*bundle->model);
  return {};
}

frame::Error DecodeModelBundleFromFile(const std::string& path,
                                       ModelBundle* bundle) {
  // Transient fault point: a recoverable read failure, retryable by the
  // caller (ModelRegistry::LoadFromFile does exactly that).
  if (Faults().ShouldFailArtifactRead()) {
    throw TransientIoError(
        "injected fault: transient artifact read failed for " + path,
        /*injected=*/true);
  }
  // Fault point: simulates an unreadable artifact (bad disk, lost
  // mount) so startup failure paths are testable.
  if (Faults().ShouldFailModelIo()) {
    return {frame::ErrorClass::kInjectedFault,
            "injected fault: model artifact read failed for " + path};
  }
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return {frame::ErrorClass::kIo, "cannot open " + path};
  const std::string bytes = ReadAll(is);
  if (is.bad()) return {frame::ErrorClass::kIo, "cannot read " + path};
  return DecodeModelBundle(bytes, bundle);
}

ModelBundle LoadModelBundle(std::istream& is) {
  ModelBundle bundle;
  const frame::Error error = DecodeModelBundle(ReadAll(is), &bundle);
  SPE_CHECK(error.ok()) << error.message;
  return bundle;
}

ModelBundle LoadModelBundleFromFile(const std::string& path) {
  ModelBundle bundle;
  const frame::Error error = DecodeModelBundleFromFile(path, &bundle);
  SPE_CHECK(error.ok()) << error.message;
  return bundle;
}

}  // namespace spe
