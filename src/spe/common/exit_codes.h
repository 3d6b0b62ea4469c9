#ifndef SPE_COMMON_EXIT_CODES_H_
#define SPE_COMMON_EXIT_CODES_H_

#include "spe/common/frame.h"

namespace spe {

/// Unified exit-code taxonomy for spe_cli and spe_serve, asserted
/// exactly by the pipeline ctests and documented in docs/robustness.md.
/// Orchestrators can branch on these: retry a 3, page on a 4, and treat
/// a 5 as a chaos-harness artifact rather than an incident.
enum ExitCode : int {
  kExitOk = 0,
  /// Unclassified runtime failure (the catch-all it always was).
  kExitRuntime = 1,
  /// Bad flags or malformed invocation (pre-existing convention).
  kExitUsage = 2,
  /// A file could not be opened/read/written, after bounded retries.
  kExitIo = 3,
  /// An artifact or checkpoint failed integrity validation: bad magic,
  /// CRC mismatch, truncation, parse failure, or a checkpoint written
  /// by a different run (config/data fingerprint mismatch).
  kExitCorruptArtifact = 4,
  /// An SPE_FAULTS-injected failure survived retries. Distinct from
  /// kExitIo so chaos runs never masquerade as real disk trouble.
  kExitFault = 5,
};

/// Maps a refused artifact's error class (spe/common/frame.h) onto the
/// taxonomy. Keeping the mapping here keeps spe/io and spe/checkpoint
/// free of process-exit policy.
inline int ClassifyArtifactErrorExit(frame::ErrorClass cls) {
  switch (cls) {
    case frame::ErrorClass::kNone: return kExitOk;
    case frame::ErrorClass::kIo: return kExitIo;
    case frame::ErrorClass::kInjectedFault: return kExitFault;
    default: return kExitCorruptArtifact;  // every integrity class
  }
}

}  // namespace spe

#endif  // SPE_COMMON_EXIT_CODES_H_
