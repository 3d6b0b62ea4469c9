#ifndef SPE_IO_MODEL_IO_H_
#define SPE_IO_MODEL_IO_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "spe/classifiers/classifier.h"
#include "spe/common/frame.h"
#include "spe/core/hardness.h"
#include "spe/kernels/program.h"

namespace spe {

/// Inference-only classifier reconstructed from persisted ensemble
/// members: predicts the mean member probability (the combination rule
/// of SPE and every bagging-style method in this library). Fit / Clone
/// abort — retraining requires the original trainer, not the artifact.
/// Supports prefix scoring (PrefixVoter), so a served artifact keeps the
/// ensemble-truncation degradation knob of the live trainer.
class VotingEnsembleModel final : public Classifier,
                                  public PrefixVoter,
                                  public HardnessProfiled,
                                  public kernels::FlatCompilable,
                                  public kernels::FlatScorable {
 public:
  explicit VotingEnsembleModel(VotingEnsemble members);

  void Fit(const DatasetView& train) override;
  double PredictRow(std::span<const double> x) const override;
  std::vector<double> PredictProba(const DatasetView& data) const override;
  void AccumulateProbaInto(const DatasetView& data,
                           std::span<double> acc) const override;
  std::size_t NumPrefixMembers() const override { return members_.size(); }
  std::vector<double> PredictProbaPrefix(const DatasetView& data,
                                         std::size_t k) const override;
  std::unique_ptr<Classifier> Clone() const override;
  std::string Name() const override { return "VotingEnsemble"; }

  bool LowerToFlat(kernels::FlatProgram& program,
                   kernels::MemberOp& op) const override;
  const kernels::FlatForest* flat_kernel() const override;

  const VotingEnsemble& members() const { return members_; }

  /// HardnessProfiled: the training-time histogram restored from a v3
  /// bundle (LoadModelBundle installs it), nullptr otherwise. Keeping it
  /// on the model means re-saving a loaded artifact round-trips the
  /// histogram byte-identically.
  const HardnessHistogram* training_hardness() const override {
    return training_hardness_.empty() ? nullptr : &training_hardness_;
  }
  void set_training_hardness(HardnessHistogram histogram) {
    training_hardness_ = std::move(histogram);
  }

 private:
  VotingEnsemble members_;
  HardnessHistogram training_hardness_;
};

/// Serializes a *fitted* classifier as a bare text payload — the body
/// of a bundle (below), one ensemble member, or a checkpoint record.
///
/// Supported:
///   - DecisionTree, Gbdt, LogisticRegression (full state);
///   - AdaBoost (stages serialized recursively);
///   - SelfPacedEnsemble, UnderBagging / EasyEnsemble, BalanceCascade,
///     Bagging, RandomForest, SmoteBagging and VotingEnsembleModel —
///     persisted as their member list; loading returns an inference-only
///     VotingEnsembleModel, because a trained probability-averaging
///     ensemble is exactly its members.
/// Aborts (CHECK) on unsupported types (e.g. KNN, whose "model" is the
/// training set itself) and on unfitted models.
void SaveClassifier(const Classifier& model, std::ostream& os);

/// The payload decoder: restores a classifier from a bare payload stream
/// written by SaveClassifier (it predicts identically to the saved one)
/// into `model`, or returns kMalformed, never aborting, on bytes
/// SaveClassifier could not have written: an unknown tag or keyword, a
/// count past the bytes left, a truncated field, a node table that is
/// not a tree (spe/classifiers/tree_node.h), or a split feature or
/// weight vector that does not fit rows of `num_features` (kAnyWidth
/// where the container records no width). `model` is untouched then.
frame::Error DecodeClassifier(std::istream& is, std::size_t num_features,
                              std::unique_ptr<Classifier>* model);

/// DecodeClassifier at kAnyWidth + CHECK, for trusted payloads.
/// Artifacts on disk are bundles, loaded by the bundle functions below.
std::unique_ptr<Classifier> LoadClassifier(std::istream& is);

/// The model of the bundle at `path`: LoadModelBundleFromFile(path).model.
std::unique_ptr<Classifier> LoadClassifierFromFile(const std::string& path);

/// A model together with the input schema the serving layer needs to
/// validate incoming rows, plus the manifest fields the model registry
/// (spe/lifecycle/model_registry.h) records about the artifact it came
/// from. Classifiers do not record their feature count, so the trainer
/// (which knows the dataset width) supplies it at save time.
struct ModelBundle {
  std::unique_ptr<Classifier> model;
  std::size_t num_features = 0;
  int format_version = 0;  ///< the "spe-bundle" header version, 2 or 3
  /// Payload size and checksum from the header.
  std::size_t payload_bytes = 0;
  std::string crc32_hex;
  /// Training-time hardness histogram from a v3 header; empty otherwise.
  HardnessHistogram hardness_histogram;
};

/// Persists `model` framed by the spe/common/frame envelope plus the
/// v3 histogram line:
///
///   spe-bundle 3 num_features N payload_bytes B crc32 HHHHHHHH
///   hardness_histogram K [KIND MIN MAX C0 .. C(K-1)]
///   <payload>
///
/// The header records the payload size and its CRC-32, so loaders detect
/// truncation and bit rot instead of parsing garbage. Version 3 adds the
/// hardness_histogram line — the training-time hardness-bin distribution
/// that hot-reload drift detection compares live traffic against; K is 0
/// (and the bracketed fields absent) when the model carries none. The
/// CRC covers the payload only, so the histogram line is checked for
/// shape, not for integrity. The histogram is taken from `histogram`
/// when non-null, else from the model's HardnessProfiled capability when
/// it has one. MIN/MAX print with 17 significant digits so the line
/// round-trips byte-identically.
void SaveModelBundle(const Classifier& model, std::size_t num_features,
                     std::ostream& os,
                     const HardnessHistogram* histogram = nullptr);

/// File variant, published with frame::PublishAtomically: a crash or
/// injected fault mid-write never leaves a torn artifact at `path` —
/// either the old file survives intact or the new one is complete.
void SaveModelBundleToFile(const Classifier& model, std::size_t num_features,
                           const std::string& path);

/// The bundle decoder: fills `bundle`, or returns why the bytes were
/// refused, classified — bad magic (bare "spe-model" streams included),
/// malformed header (the histogram line included), unsupported version
/// (1, or past 3), truncated, corrupt — and never aborts on them. Both
/// header lines, the payload length and its CRC-32 are checked before a
/// payload byte is parsed; a payload that passes its CRC is then decoded
/// against the header's num_features by DecodeClassifier, which refuses
/// a hand-made one as malformed. Bytes past the payload are ignored. A
/// v3 histogram is also installed on a VotingEnsembleModel, so a re-save
/// round-trips.
frame::Error DecodeModelBundle(std::string_view bytes, ModelBundle* bundle);

/// Reads the file at `path` once and decodes it. Open/read failures are
/// kIo and the model_io_fail_rate fault point kInjectedFault; the
/// artifact_read_fail_rate point throws TransientIoError for the
/// caller's retry loop.
frame::Error DecodeModelBundleFromFile(const std::string& path,
                                       ModelBundle* bundle);

/// Decode + CHECK: abort with the refusal's message, for callers to
/// which a broken artifact is fatal anyway.
ModelBundle LoadModelBundle(std::istream& is);
ModelBundle LoadModelBundleFromFile(const std::string& path);

}  // namespace spe

#endif  // SPE_IO_MODEL_IO_H_
