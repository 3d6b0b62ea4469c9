#include "spe/io/model_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "spe/classifiers/adaboost.h"
#include "spe/classifiers/bagging.h"
#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/classifiers/logistic_regression.h"
#include "spe/classifiers/random_forest.h"
#include "spe/common/check.h"
#include "spe/common/crc32.h"
#include "spe/common/fault.h"
#include "spe/common/retry.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/imbalance/balance_cascade.h"
#include "spe/kernels/flat_forest.h"
#include "spe/imbalance/smote_bagging.h"
#include "spe/imbalance/under_bagging.h"

namespace spe {
namespace {

constexpr char kMagic[] = "spe-model";
constexpr int kFormatVersion = 1;
constexpr char kBundleMagic[] = "spe-bundle";
// Version 2 added "payload_bytes B crc32 HHHHHHHH" to the header so
// loaders detect truncated / bit-flipped artifacts. Version 3 added the
// "hardness_histogram" line — the training-time drift baseline for the
// lifecycle layer. Version 2 loads unchanged (no histogram); version 1
// (schema only) and bare spe-model streams load with a warning.
constexpr int kBundleVersion = 3;

// "hardness_histogram K [KIND MIN MAX C0 .. C(K-1)]". Doubles print
// with max_digits10 so a parse-and-reprint reproduces the exact bytes.
void WriteHistogramLine(const HardnessHistogram* histogram, std::ostream& os) {
  if (histogram == nullptr || histogram->empty()) {
    os << "hardness_histogram 0\n";
    return;
  }
  char num[40];
  os << "hardness_histogram " << histogram->counts.size() << " "
     << histogram->kind;
  std::snprintf(num, sizeof(num), "%.17g", histogram->min);
  os << " " << num;
  std::snprintf(num, sizeof(num), "%.17g", histogram->max);
  os << " " << num;
  for (const std::uint64_t c : histogram->counts) os << " " << c;
  os << "\n";
}

// Consumes the histogram line's fields (the leading "hardness_histogram"
// keyword included). Returns false on malformed input.
bool ReadHistogramFields(std::istream& is, HardnessHistogram* out) {
  std::string keyword;
  std::size_t num_bins = 0;
  is >> keyword >> num_bins;
  if (!is.good() || keyword != "hardness_histogram") return false;
  if (num_bins == 0) return true;  // model carries no histogram
  HardnessHistogram histogram;
  is >> histogram.kind >> histogram.min >> histogram.max;
  if (!is.good()) return false;
  histogram.counts.resize(num_bins);
  for (std::size_t b = 0; b < num_bins; ++b) {
    is >> histogram.counts[b];
    if (is.fail()) return false;
  }
  if (out != nullptr) *out = std::move(histogram);
  return true;
}

void WarnLegacyArtifact(const char* kind) {
  std::fprintf(stderr,
               "warning: loading %s without an integrity checksum; re-save "
               "with spe_cli train (or SaveModelBundle) to upgrade\n",
               kind);
}

void SaveEnsembleMembers(const VotingEnsemble& members, std::ostream& os) {
  os << "members " << members.size() << "\n";
  for (std::size_t i = 0; i < members.size(); ++i) {
    SaveClassifier(members.member(i), os);
  }
}

VotingEnsemble LoadEnsembleMembers(std::istream& is) {
  std::string keyword;
  std::size_t count = 0;
  is >> keyword >> count;
  SPE_CHECK(is.good() && keyword == "members") << "malformed ensemble model";
  VotingEnsemble members;
  for (std::size_t i = 0; i < count; ++i) {
    members.Add(LoadClassifier(is));
  }
  return members;
}

// Reads up to `payload_bytes` bytes of bundle payload. The buffer grows
// with what the stream actually holds, a chunk at a time, so a header
// that overstates the length costs a short read — which the callers
// report as truncation — never an allocation of the claimed size.
std::string ReadPayload(std::istream& is, std::size_t payload_bytes) {
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::string payload;
  while (payload.size() < payload_bytes) {
    const std::size_t have = payload.size();
    const std::size_t want = std::min(kChunk, payload_bytes - have);
    payload.resize(have + want);
    is.read(payload.data() + have, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got < want) {
      payload.resize(have + got);
      break;
    }
  }
  return payload;
}

// Compile-on-load: ActiveKernel triggers the lazy flat-inference
// compile, so a serving process pays it at startup rather than on the
// first scored batch. Models that cannot lower (non-tree members)
// simply stay on the reference path.
ModelBundle FinishBundle(ModelBundle bundle) {
  if (bundle.model != nullptr) {
    (void)kernels::ActiveKernel(*bundle.model);
  }
  return bundle;
}

}  // namespace

VotingEnsembleModel::VotingEnsembleModel(VotingEnsemble members)
    : members_(std::move(members)) {
  SPE_CHECK(!members_.empty());
}

void VotingEnsembleModel::Fit(const DatasetView& /*train*/) {
  SPE_CHECK(false) << "VotingEnsembleModel is an inference-only artifact; "
                      "retrain with the original ensemble trainer";
}

double VotingEnsembleModel::PredictRow(std::span<const double> x) const {
  return members_.PredictRow(x);
}

std::vector<double> VotingEnsembleModel::PredictProba(const DatasetView& data) const {
  return members_.PredictProba(data);
}

std::vector<double> VotingEnsembleModel::PredictProbaPrefix(
    const DatasetView& data, std::size_t k) const {
  return members_.PredictProbaPrefix(data, k);
}

void VotingEnsembleModel::AccumulateProbaInto(const DatasetView& data,
                                              std::span<double> acc) const {
  // PredictProba averages the inner ensemble, so the fused default
  // (PredictRow streaming) would change the bits; go through the batch
  // path instead.
  AccumulateViaPredictProba(data, acc);
}

bool VotingEnsembleModel::LowerToFlat(kernels::FlatProgram& program,
                                      kernels::MemberOp& op) const {
  return kernels::FlatForest::LowerEnsemble(members_, program, op);
}

const kernels::FlatForest* VotingEnsembleModel::flat_kernel() const {
  return members_.flat_kernel();
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

  // Probability-averaging ensembles all persist as their member list.
  const VotingEnsemble* members = nullptr;
  if (const auto* m = dynamic_cast<const SelfPacedEnsemble*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const UnderBagging*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const BalanceCascade*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const Bagging*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const RandomForest*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const SmoteBagging*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const VotingEnsembleModel*>(&model)) {
    members = &m->members();
  }
  SPE_CHECK(members != nullptr)
      << model.Name() << " does not support persistence";
  SPE_CHECK(!members->empty()) << "cannot save an unfitted ensemble";
  os << "VotingEnsemble\n";
  SaveEnsembleMembers(*members, os);
}

namespace {

/// Reads the leading magic word; when it is a bundle header (version 1,
/// 2 or 3), consumes the header fields (reporting the width via
/// `num_features`) and reads on to the inner model magic. Does NOT
/// verify integrity — that is LoadModelBundle's job; this path exists
/// for LoadClassifier callers that only want the model.
std::string ReadMagicSkippingBundle(std::istream& is,
                                    std::size_t* num_features) {
  std::string magic;
  is >> magic;
  if (magic == kBundleMagic) {
    int version = 0;
    std::string keyword;
    std::size_t width = 0;
    is >> version >> keyword >> width;
    SPE_CHECK(is.good() && keyword == "num_features")
        << "malformed bundle header";
    if (version >= 2) {
      SPE_CHECK_LE(version, kBundleVersion) << "unsupported bundle version";
      std::size_t payload_bytes = 0;
      std::string crc_hex;
      is >> keyword >> payload_bytes;
      SPE_CHECK(is.good() && keyword == "payload_bytes")
          << "malformed bundle header";
      is >> keyword >> crc_hex;
      SPE_CHECK(is.good() && keyword == "crc32") << "malformed bundle header";
      if (version >= 3) {
        SPE_CHECK(ReadHistogramFields(is, nullptr))
            << "malformed bundle header";
      }
    } else {
      SPE_CHECK_EQ(version, 1) << "unsupported bundle version";
    }
    if (num_features != nullptr) *num_features = width;
    is >> magic;
  }
  return magic;
}

/// Restores a model whose "spe-model VERSION TAG" preamble has already
/// been consumed (shared by LoadClassifier and LoadModelBundle).
std::unique_ptr<Classifier> LoadTagged(int version, const std::string& tag,
                                       std::istream& is) {
  SPE_CHECK_EQ(version, kFormatVersion);

  if (tag == "DecisionTree") {
    return std::make_unique<DecisionTree>(DecisionTree::LoadModel(is));
  }
  if (tag == "Gbdt") {
    return std::make_unique<Gbdt>(Gbdt::LoadModel(is));
  }
  if (tag == "LogisticRegression") {
    return std::make_unique<LogisticRegression>(
        LogisticRegression::LoadModel(is));
  }
  if (tag == "AdaBoost") {
    std::string keyword;
    AdaBoostConfig config;
    std::size_t stage_count = 0;
    is >> keyword >> config.learning_rate;
    SPE_CHECK(is.good() && keyword == "learning_rate") << "malformed AdaBoost";
    is >> keyword >> stage_count;
    SPE_CHECK(is.good() && keyword == "stages") << "malformed AdaBoost";
    config.n_estimators = stage_count;
    std::vector<std::unique_ptr<Classifier>> stages;
    stages.reserve(stage_count);
    for (std::size_t i = 0; i < stage_count; ++i) {
      stages.push_back(LoadClassifier(is));
    }
    return AdaBoost::FromTrainedStages(config, std::move(stages));
  }
  if (tag == "VotingEnsemble") {
    return std::make_unique<VotingEnsembleModel>(LoadEnsembleMembers(is));
  }
  SPE_CHECK(false) << "unknown model tag: " << tag;
  return nullptr;  // unreachable
}

}  // namespace

std::unique_ptr<Classifier> LoadClassifier(std::istream& is) {
  const std::string magic = ReadMagicSkippingBundle(is, nullptr);
  int version = 0;
  std::string tag;
  is >> version >> tag;
  SPE_CHECK(is.good() && magic == kMagic) << "not an spe model stream";
  return LoadTagged(version, tag, is);
}

void SaveClassifierToFile(const Classifier& model, const std::string& path) {
  std::ofstream os(path);
  SPE_CHECK(os.good()) << "cannot write " << path;
  SaveClassifier(model, os);
  SPE_CHECK(os.good()) << "write failed: " << path;
}

std::unique_ptr<Classifier> LoadClassifierFromFile(const std::string& path) {
  std::ifstream is(path);
  SPE_CHECK(is.good()) << "cannot open " << path;
  return LoadClassifier(is);
}

void SaveModelBundle(const Classifier& model, std::size_t num_features,
                     std::ostream& os, const HardnessHistogram* histogram) {
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
  const std::string payload = payload_stream.str();
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", Crc32(payload));
  os << kBundleMagic << " " << kBundleVersion << " num_features "
     << num_features << " payload_bytes " << payload.size() << " crc32 "
     << crc_hex << "\n";
  WriteHistogramLine(histogram, os);
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

void SaveModelBundleToFile(const Classifier& model, std::size_t num_features,
                           const std::string& path) {
  // Crash safety: write the whole bundle to a sibling tmp file, then
  // rename(2) it over `path`. rename on the same filesystem is atomic,
  // so a reader of `path` only ever sees the complete old artifact or
  // the complete new one — never a torn half-write.
  // Transient fault point: a recoverable write failure (disk full, EIO)
  // before any side effect. Thrown, not aborted, so callers can retry
  // under spe/common/retry — unlike the model_io_fail_rate point below,
  // which keeps its historical abort semantics.
  if (Faults().ShouldFailArtifactWrite()) {
    throw TransientIoError(
        "injected fault: transient artifact write failed for " + path,
        /*injected=*/true);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    SPE_CHECK(os.good()) << "cannot write " << tmp;
    SaveModelBundle(model, num_features, os);
    os.flush();
    SPE_CHECK(os.good()) << "write failed: " << tmp;
  }
  // Fault point: an injected failure here models a crash mid-save. The
  // tmp file may be left behind (harmless; overwritten next save), but
  // `path` keeps its previous, intact content.
  SPE_CHECK(!Faults().ShouldFailModelIo())
      << "injected fault: model artifact write failed before publishing "
      << path;
  SPE_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0)
      << "cannot rename " << tmp << " over " << path;
}

ModelBundle LoadModelBundle(std::istream& is) {
  ModelBundle bundle;
  std::string magic;
  is >> magic;
  SPE_CHECK(is.good()) << "empty or unreadable model stream";

  if (magic != kBundleMagic) {
    // Bare classifier stream (pre-bundle era): no schema, no checksum.
    SPE_CHECK(magic == kMagic) << "not an spe model stream";
    WarnLegacyArtifact("a bare spe-model artifact (no schema header)");
    int version = 0;
    std::string tag;
    is >> version >> tag;
    SPE_CHECK(is.good()) << "truncated model stream";
    bundle.model = LoadTagged(version, tag, is);
    return FinishBundle(std::move(bundle));
  }

  int version = 0;
  std::string keyword;
  is >> version >> keyword >> bundle.num_features;
  SPE_CHECK(is.good() && keyword == "num_features")
      << "malformed bundle header";
  bundle.format_version = version;

  if (version == 1) {
    // Legacy bundle: schema header but no integrity fields.
    WarnLegacyArtifact("a version-1 model bundle (schema only)");
    int model_version = 0;
    std::string tag;
    is >> magic >> model_version >> tag;
    SPE_CHECK(is.good() && magic == kMagic) << "not an spe model stream";
    bundle.model = LoadTagged(model_version, tag, is);
    return FinishBundle(std::move(bundle));
  }
  SPE_CHECK(version == 2 || version == kBundleVersion)
      << "unsupported bundle version";

  std::size_t payload_bytes = 0;
  std::string crc_hex;
  is >> keyword >> payload_bytes;
  SPE_CHECK(is.good() && keyword == "payload_bytes")
      << "malformed bundle header";
  is >> keyword >> crc_hex;
  SPE_CHECK(is.good() && keyword == "crc32") << "malformed bundle header";
  if (version >= 3) {
    SPE_CHECK(ReadHistogramFields(is, &bundle.hardness_histogram))
        << "malformed bundle header";
  }
  SPE_CHECK(is.get() == '\n') << "malformed bundle header";
  bundle.payload_bytes = payload_bytes;
  bundle.crc32_hex = crc_hex;

  // Read exactly the promised payload, then verify before parsing a
  // single byte of it: a short read is truncation, a checksum mismatch
  // is corruption, and both fail with the artifact left untouched by
  // the parser (so the error names the real problem, not a downstream
  // parse confusion).
  const std::string payload = ReadPayload(is, payload_bytes);
  const std::size_t got = payload.size();
  SPE_CHECK(got == payload_bytes)
      << "model artifact truncated: header promises " << payload_bytes
      << " payload bytes but only " << got << " are present";
  const std::uint32_t expected =
      static_cast<std::uint32_t>(std::strtoul(crc_hex.c_str(), nullptr, 16));
  const std::uint32_t actual = Crc32(payload);
  char actual_hex[16];
  std::snprintf(actual_hex, sizeof(actual_hex), "%08x", actual);
  SPE_CHECK(actual == expected)
      << "model artifact corrupted: payload crc32 " << actual_hex
      << " does not match header crc32 " << crc_hex;

  std::istringstream payload_is(payload);
  int model_version = 0;
  std::string tag;
  payload_is >> magic >> model_version >> tag;
  SPE_CHECK(payload_is.good() && magic == kMagic) << "not an spe model stream";
  bundle.model = LoadTagged(model_version, tag, payload_is);
  if (!bundle.hardness_histogram.empty()) {
    if (auto* voting = dynamic_cast<VotingEnsembleModel*>(bundle.model.get())) {
      voting->set_training_hardness(bundle.hardness_histogram);
    }
  }
  return FinishBundle(std::move(bundle));
}

BundleProbe ProbeModelBundleFile(const std::string& path) {
  BundleProbe probe;
  std::ifstream is(path);
  if (!is.good()) {
    probe.error = "cannot open " + path;
    return probe;
  }
  std::string magic;
  is >> magic;
  if (!is.good()) {
    probe.error = "empty or unreadable model stream";
    return probe;
  }
  if (magic == kMagic) {
    // Bare classifier stream: nothing to verify, nothing to report.
    probe.ok = true;
    return probe;
  }
  if (magic != kBundleMagic) {
    probe.error = "not an spe model stream";
    return probe;
  }
  std::string keyword;
  is >> probe.format_version >> keyword >> probe.num_features;
  if (!is.good() || keyword != "num_features") {
    probe.error = "malformed bundle header";
    return probe;
  }
  if (probe.format_version == 1) {
    probe.ok = true;  // schema only; no integrity promise to check
    return probe;
  }
  if (probe.format_version != 2 && probe.format_version != kBundleVersion) {
    probe.error = "unsupported bundle version";
    return probe;
  }
  is >> keyword >> probe.payload_bytes;
  if (!is.good() || keyword != "payload_bytes") {
    probe.error = "malformed bundle header";
    return probe;
  }
  is >> keyword >> probe.crc32_hex;
  if (!is.good() || keyword != "crc32") {
    probe.error = "malformed bundle header";
    return probe;
  }
  if (probe.format_version >= 3) {
    HardnessHistogram histogram;
    if (!ReadHistogramFields(is, &histogram)) {
      probe.error = "malformed bundle header";
      return probe;
    }
    probe.has_hardness_histogram = !histogram.empty();
  }
  if (is.get() != '\n') {
    probe.error = "malformed bundle header";
    return probe;
  }
  const std::string payload = ReadPayload(is, probe.payload_bytes);
  const std::size_t got = payload.size();
  if (got != probe.payload_bytes) {
    probe.error = "model artifact truncated: header promises " +
                  std::to_string(probe.payload_bytes) +
                  " payload bytes but only " + std::to_string(got) +
                  " are present";
    return probe;
  }
  const std::uint32_t expected = static_cast<std::uint32_t>(
      std::strtoul(probe.crc32_hex.c_str(), nullptr, 16));
  if (Crc32(payload) != expected) {
    probe.error = "model artifact corrupted: payload crc32 does not match "
                  "header crc32 " +
                  probe.crc32_hex;
    return probe;
  }
  probe.ok = true;
  return probe;
}

ModelBundle LoadModelBundleFromFile(const std::string& path) {
  // Transient fault point: a recoverable read failure, retryable by the
  // caller (ModelRegistry::LoadFromFile does exactly that).
  if (Faults().ShouldFailArtifactRead()) {
    throw TransientIoError(
        "injected fault: transient artifact read failed for " + path,
        /*injected=*/true);
  }
  // Fault point: simulates an unreadable artifact (bad disk, lost
  // mount) so server startup failure paths are testable.
  SPE_CHECK(!Faults().ShouldFailModelIo())
      << "injected fault: model artifact read failed for " << path;
  std::ifstream is(path);
  SPE_CHECK(is.good()) << "cannot open " << path;
  return LoadModelBundle(is);
}

}  // namespace spe
