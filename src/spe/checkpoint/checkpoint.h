#ifndef SPE_CHECKPOINT_CHECKPOINT_H_
#define SPE_CHECKPOINT_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "spe/classifiers/classifier.h"
#include "spe/common/frame.h"
#include "spe/common/retry.h"
#include "spe/data/dataset.h"

namespace spe {
namespace checkpoint {

/// Everything SelfPacedEnsemble::Fit needs, beyond the members trained
/// so far, to continue a run as if it had never stopped: the exact RNG
/// engine state, the next iteration to execute and the bootstrap model
/// f0 when it is not an ensemble member. The fingerprints pin the
/// checkpoint to one (config, dataset) pair so a stale file from a
/// different run is refused instead of silently resumed.
///
/// Deliberately absent: the running probability accumulator. It is a
/// pure function of (members, dataset) — resume replays each restored
/// member's PredictProba in vote order, which is bit-identical to the
/// original accumulation by the determinism contract. Storing it would
/// make every checkpoint O(dataset rows); recomputing keeps the file
/// O(model) and moves the cost to the rare resume path. Also absent:
/// any validation state. FitWithValidation trains the same members as
/// Fit and scores them only after the last one, so a checkpoint does
/// not depend on which entry point wrote it.
struct TrainerStateCore {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t data_fingerprint = 0;
  /// 1-based self-paced iteration to run next; n_estimators + 1 means
  /// every iteration finished and only post-processing remains. It is
  /// also the number of votes in the training accumulator (f0 plus one
  /// per finished iteration).
  std::size_t next_iteration = 1;
  /// std::mt19937_64 textual state (operator<< / operator>> round-trip
  /// exactly, per the standard).
  std::string rng_state;
  /// SaveClassifier bytes of the bootstrap model f0 when it does not
  /// vote (include_bootstrap_model off): f0 seeds the hardness average
  /// but lives nowhere else. Empty when f0 is members[0].
  std::string bootstrap_blob;
};

/// Thrown by SelfPacedEnsemble::Fit when the checkpoint it was told to
/// resume from cannot seed the run: damaged, of another format version,
/// or written by a different configuration or dataset. what() reads
/// "cannot resume from PATH: REASON"; spe_cli exits 4 on it.
class ResumeRefused : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Outcome of a non-aborting checkpoint load. `missing` (no file) is a
/// normal fresh start, not an error; every other failure carries its
/// class and reason in `error`.
struct LoadResult {
  TrainerStateCore core;
  VotingEnsemble members;
  frame::Error error;
  bool missing = false;
  bool ok() const { return error.ok() && !missing; }
};

/// The one file a training run keeps in its checkpoint directory, a
/// single frame of the artifact family (spe/common/frame.h):
///
///   spe-checkpoint 3 payload_bytes B crc32 HHHHHHHH
///   config_fingerprint F data_fingerprint D
///   next_iteration I
///   rng <engine state>
///   bootstrap <size>\n<blob>      at most one, first: f0 when not a member
///   member <size>\n<blob>         one per ensemble member, in vote order
///
/// The blobs are SaveClassifier bytes, byte-counted so they round-trip
/// verbatim. Every publish rewrites the whole file through
/// frame::PublishAtomically (tmp + rename(2)), so the path holds the
/// complete previous checkpoint or the complete new one; a crash
/// mid-publish leaves at most a stale `<path>.tmp`, which nothing reads
/// and the next publish replaces.
std::string CheckpointPath(const std::string& directory);

/// Publishes `core` and `member_blobs` (SaveClassifier bytes, vote
/// order) as the checkpoint at `path`, on the calling thread. The blobs
/// are written where they lie, never copied into one image. Transient
/// failures (artifact_write_fail_rate or a real write error) retry under
/// `retry`; exhaustion throws TransientIoError.
void PublishCheckpoint(const std::string& path, const TrainerStateCore& core,
                       std::span<const std::string> member_blobs,
                       const RetryPolicy& retry = {});

/// Decodes a checkpoint's bytes: the frame (frame::DecodeHeader, then
/// frame::CheckPayload: magic, version, layout, length, CRC-32), then
/// the payload, which a CRC cannot vouch a trainer wrote, so it is
/// parsed rather than trusted. Never aborts: a refusal comes back as a
/// classified `error`.
LoadResult DecodeTrainerState(std::string_view bytes);

/// Reads the checkpoint at `path` and decodes it. A missing file is
/// `missing`. Transient read failures retry under `retry`; exhaustion
/// throws TransientIoError.
LoadResult LoadTrainerStateFromFile(const std::string& path,
                                    const RetryPolicy& retry = {});

/// Order-dependent 64-bit hash mix (SplitMix64 round), used to build
/// the config/data fingerprints above.
std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t value);

/// Fingerprint of a dataset's exact contents: dimensions plus a 64-bit
/// word-fold over the raw feature and label bytes. Bit-exact by
/// construction — any change that could alter training invalidates the
/// checkpoint. (Only ever compared against itself, so the algorithm is
/// chosen for speed: it runs once per checkpointed Fit.)
std::uint64_t DatasetFingerprint(const DatasetView& data);

}  // namespace checkpoint
}  // namespace spe

#endif  // SPE_CHECKPOINT_CHECKPOINT_H_
