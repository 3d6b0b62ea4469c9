#ifndef SPE_CHECKPOINT_CHECKPOINT_H_
#define SPE_CHECKPOINT_CHECKPOINT_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "spe/classifiers/classifier.h"
#include "spe/common/retry.h"
#include "spe/data/dataset.h"

namespace spe {
namespace checkpoint {

/// Everything SelfPacedEnsemble::Fit needs, beyond the members trained
/// so far, to continue a run as if it had never stopped: the exact RNG
/// engine state, the next iteration to execute, the bootstrap model f0
/// when it is not an ensemble member, and — when training under
/// FitWithValidation — the early-stop bookkeeping. The fingerprints pin
/// the checkpoint to one (config, dataset) pair so a stale file from a
/// different run is refused instead of silently resumed.
///
/// Deliberately absent: the running probability accumulators. They are
/// pure functions of (members, dataset) — resume replays each restored
/// member's PredictProba in vote order, which is bit-identical to the
/// original accumulation by the determinism contract. Storing them
/// would make every checkpoint O(dataset rows); recomputing keeps the
/// file O(model) and moves the cost to the rare resume path.
struct TrainerStateCore {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t data_fingerprint = 0;
  std::size_t n_estimators = 0;
  bool include_bootstrap = false;
  /// 1-based self-paced iteration to run next; n_estimators + 1 means
  /// every iteration finished and only post-processing remains.
  std::size_t next_iteration = 1;
  /// Members folded into the training accumulator (bootstrap f0
  /// included), the divisor of the hardness average.
  std::size_t prob_count = 0;
  /// std::mt19937_64 textual state (operator<< / operator>> round-trip
  /// exactly, per the standard).
  std::string rng_state;
  /// SaveClassifier bytes of the bootstrap model f0 when
  /// include_bootstrap is false (f0 seeds the hardness average but does
  /// not vote, so it lives nowhere else). Empty when f0 is members[0].
  std::string bootstrap_blob;
  // FitWithValidation early-stop state; meaningful iff has_validation.
  bool has_validation = false;
  double best_auc = -1.0;
  std::size_t best_size = 0;
  std::size_t scored_members = 0;
};

/// Outcome of a non-aborting checkpoint load. `missing` (no file) is a
/// normal fresh start, not an error; every other failure carries a
/// reason in `error`.
struct LoadResult {
  TrainerStateCore core;
  VotingEnsemble members;
  std::string error;
  bool missing = false;
  /// Byte length of the manifest's valid record prefix — the end of the
  /// newest complete, CRC-clean commit record. Resume hands this to
  /// AsyncCheckpointPublisher::BeginLog so new records append after it
  /// (any torn tail past it is truncated away).
  std::uint64_t manifest_bytes = 0;
  bool ok() const { return error.empty() && !missing; }
};

/// The checkpoint manifest a training run maintains inside its
/// checkpoint directory — the commit point of every checkpoint. The
/// manifest is itself append-only: each publish appends one
/// envelope-framed commit record, and the loader honours the newest
/// complete record whose CRC checks out. A record cut short by a crash
/// (its advertised payload runs past end-of-file, or its header line
/// never got its newline) is a torn append — the loader falls back to
/// the previous record. A record that is fully present but fails its
/// CRC cannot come from a torn append (crashed appends only ever leave
/// prefixes), so it is refused as corruption rather than skipped.
/// Appending costs one positional write instead of a create+rename pair
/// per iteration, which is what makes --checkpoint-every 1 affordable.
std::string CheckpointPath(const std::string& directory);

/// The append-only member log riding next to a manifest (its sibling
/// `<manifest>.members`). Model bytes dominate checkpoint size, and the
/// already-trained prefix never changes, so each iteration appends only
/// the newest member's record here instead of rewriting the whole
/// ensemble. The manifest records how many log bytes it vouches for and
/// their CRC-32; anything past that prefix is a torn append from a
/// crash and is ignored by the loader.
std::string MemberLogPath(const std::string& checkpoint_path);

/// Non-aborting load: scans the manifest's commit records (magic,
/// version, payload length, CRC-32 per record), settles on the newest
/// complete valid one — a torn tail falls back, a CRC-bad complete
/// record is refused — then validates the member-log prefix that record
/// vouches for (length + CRC-32) and parses both. Transient read
/// failures retry under `retry`; exhaustion throws TransientIoError.
LoadResult LoadTrainerStateFromFile(const std::string& path,
                                    const RetryPolicy& retry = {});

/// The checkpoint writer: incremental publisher for one training run.
/// Each manifest commit record carries the artifact family's integrity
/// envelope:
///
///   spe-checkpoint 1 payload_bytes B crc32 HHHHHHHH
///   <payload>
///
/// and the payload pins the member-log prefix it was written against
/// (byte count + CRC-32), so corruption in either file is detected. The
/// log embeds the members via SaveClassifier, so exactly the classifier
/// types the artifact format supports are checkpointable. A write at
/// offset zero publishes its file via sibling tmp + rename(2); transient
/// failures (artifact_write_fail_rate or a real write error) retry under
/// `retry`, and exhaustion surfaces as TransientIoError (see below).
///
/// Two ideas keep the per-iteration cost O(new member), not O(run so
/// far):
///
///  - Both files are append-only: AppendMember stages just the newest
///    member's record (the running log CRC extends incrementally), and
///    each Publish appends one commit record to the manifest. Neither
///    already-published members nor older commit records are ever
///    rewritten, so per-iteration disk work is two positional writes —
///    no create+rename pair.
///  - All file I/O happens on a background thread, and Publish() never
///    blocks: it frames the
///    manifest on the calling thread and enqueues it. If the writer has
///    not started the previously queued checkpoint yet, the new one
///    *coalesces* with it — their log chunks are contiguous by
///    construction, and only the newest manifest matters — so a slow
///    disk (or a busy single-core box) costs at most one write per
///    writer latency, never one per iteration. Memory stays bounded by
///    the run's own log. The published checkpoint may therefore trail
///    the newest Publish by a few iterations; Drain() closes that gap
///    wherever durability is part of the contract. A failed publish
///    (retry exhaustion) is captured and rethrown from the *next*
///    Publish() or Drain() on the training thread, so Fit still
///    surfaces TransientIoError.
///
/// Crash safety: the completed manifest record is the commit point. A
/// crash after the log append but before the record completes leaves
/// extra log bytes no record vouches for plus (at most) a torn manifest
/// tail — the loader ignores both, and the next run's BeginLog
/// truncates them away.
///
/// Drain() blocks until the writer is idle — Fit calls it before an
/// armed crash point (the chaos contract says the kill fires after the
/// checkpoint is durable), before returning, and the destructor drains
/// too (dropping, not throwing, any pending error).
class AsyncCheckpointPublisher {
 public:
  explicit AsyncCheckpointPublisher(std::string checkpoint_path,
                                    RetryPolicy retry = {});
  ~AsyncCheckpointPublisher();
  AsyncCheckpointPublisher(const AsyncCheckpointPublisher&) = delete;
  AsyncCheckpointPublisher& operator=(const AsyncCheckpointPublisher&) = delete;

  /// Starts the run's log. Fresh start (`adopt_existing` false): stages
  /// records for the given bootstrap blob (if any) and members — the
  /// first Publish writes them from offset zero, truncating whatever
  /// stale log a previous run left. Resume (`adopt_existing` true): the
  /// same (bootstrap, members) bytes are already on disk — the loaded
  /// manifest vouched for them — so they are adopted as the committed
  /// prefix and the file is truncated to exactly that length, dropping
  /// any torn tail from the crash. `adopted_manifest_bytes` (the
  /// LoadResult field, meaningful only on resume) does the same for the
  /// manifest: commit records append after it, and a torn manifest tail
  /// is truncated away.
  void BeginLog(const std::string& bootstrap_blob,
                const std::vector<std::string>& member_blobs,
                bool adopt_existing, std::uint64_t adopted_manifest_bytes = 0);

  /// Stages the newest member's record; its bytes reach disk with the
  /// next Publish.
  void AppendMember(const std::string& blob);

  /// Publishes a checkpoint: staged log records, then a manifest built
  /// from `core` pinning the resulting log prefix. `core.bootstrap_blob`
  /// is ignored — the bootstrap record was staged by BeginLog.
  void Publish(const TrainerStateCore& core);

  void Drain();

 private:
  void Loop();

  const std::string manifest_path_;
  const std::string log_path_;
  const RetryPolicy retry_;
  // Bookkeeping (training thread only): bytes already handed to the
  // worker for each file, records staged since, and the running CRC.
  std::uint64_t committed_log_bytes_ = 0;
  std::uint64_t committed_manifest_bytes_ = 0;
  std::string staged_;
  std::uint32_t log_crc_ = 0;
  std::uint64_t log_bytes_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  std::string job_manifest_;
  std::uint64_t job_manifest_offset_ = 0;
  std::string job_chunk_;
  std::uint64_t job_offset_ = 0;
  bool has_job_ = false;
  bool busy_ = false;
  bool stop_ = false;
  std::exception_ptr error_;
  std::thread worker_;
};

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
