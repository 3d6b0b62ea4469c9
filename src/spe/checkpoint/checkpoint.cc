#include "spe/checkpoint/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "spe/common/fault.h"
#include "spe/common/parse.h"
#include "spe/io/model_io.h"

namespace spe {
namespace checkpoint {
namespace {

// Version 1 was a manifest of append-only commit records beside a
// member log; this build reads and writes only the one-file version 2.
constexpr frame::Format kCheckpointFormat = {
    "spe-checkpoint", 2, 2,
    "checkpoint has bad magic (not an spe-checkpoint file)",
    "checkpoint header malformed",
    "unsupported checkpoint version: this build reads only version 2, the "
    "single-file checkpoint",
    "checkpoint"};

std::string FormatDouble(double value) {
  // %.17g round-trips doubles exactly (model_io.cc idiom) — best_auc
  // must come back bit-identical or a resumed early-stop run could pick
  // a different prefix than the uninterrupted one.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool Expect(std::istream& is, std::string_view keyword) {
  std::string token;
  is >> token;
  return !is.fail() && token == keyword;
}

// Scalars, RNG state and early-stop state: the payload up to its first
// model record.
std::string SerializeState(const TrainerStateCore& core) {
  std::ostringstream os;
  os << "config_fingerprint " << core.config_fingerprint
     << " data_fingerprint " << core.data_fingerprint << "\n";
  os << "n_estimators " << core.n_estimators << " include_bootstrap "
     << (core.include_bootstrap ? 1 : 0) << " next_iteration "
     << core.next_iteration << " prob_count " << core.prob_count << "\n";
  os << "rng " << core.rng_state << "\n";
  os << "validation " << (core.has_validation ? 1 : 0) << "\n";
  if (core.has_validation) {
    os << "best_auc " << FormatDouble(core.best_auc) << " best_size "
       << core.best_size << " scored_members " << core.scored_members << "\n";
  }
  return os.str();
}

// Parses a payload that passed its CRC into `result`. The bytes are
// still untrusted (a CRC only proves they are the ones written), so
// every count is bounded by the bytes left before anything is sized
// from it, and a failure is reported, never aborted on.
void ParsePayload(std::string payload, LoadResult* result) {
  std::istringstream is(std::move(payload));
  TrainerStateCore& core = result->core;
  const auto fail = [result](const char* what) {
    result->error = {frame::ErrorClass::kMalformed,
                     std::string("checkpoint payload malformed: ") + what};
    result->members = VotingEnsemble();
  };
  int include_bootstrap = 0;
  if (!Expect(is, "config_fingerprint") || !(is >> core.config_fingerprint) ||
      !Expect(is, "data_fingerprint") || !(is >> core.data_fingerprint) ||
      !Expect(is, "n_estimators") || !(is >> core.n_estimators) ||
      !Expect(is, "include_bootstrap") || !(is >> include_bootstrap) ||
      !Expect(is, "next_iteration") || !(is >> core.next_iteration) ||
      !Expect(is, "prob_count") || !(is >> core.prob_count)) {
    return fail("bad scalar block");
  }
  core.include_bootstrap = include_bootstrap != 0;
  if (!Expect(is, "rng")) return fail("missing rng state");
  std::getline(is, core.rng_state);
  if (!core.rng_state.empty() && core.rng_state.front() == ' ') {
    core.rng_state.erase(0, 1);
  }
  if (core.rng_state.empty()) return fail("empty rng state");
  int has_validation = 0;
  if (!Expect(is, "validation") || !(is >> has_validation)) {
    return fail("bad validation flag");
  }
  core.has_validation = has_validation != 0;
  if (core.has_validation) {
    if (!Expect(is, "best_auc") || !(is >> core.best_auc) ||
        !Expect(is, "best_size") || !(is >> core.best_size) ||
        !Expect(is, "scored_members") || !(is >> core.scored_members)) {
      return fail("bad validation block");
    }
  }
  if (is.get() != '\n') return fail("unterminated state lines");
  // The model records run to the end of the payload.
  while (is.peek() != std::char_traits<char>::eof()) {
    std::string kind;
    std::size_t size = 0;
    if (!(is >> kind >> size) || is.get() != '\n' || size > BytesLeft(is)) {
      return fail("bad model record");
    }
    std::string blob(size, '\0');
    is.read(blob.data(), static_cast<std::streamsize>(size));
    if (kind == "bootstrap" && result->members.size() == 0 &&
        core.bootstrap_blob.empty()) {
      core.bootstrap_blob = std::move(blob);
    } else if (kind == "member") {
      std::istringstream blob_in(std::move(blob));
      std::unique_ptr<Classifier> member;
      if (!DecodeClassifier(blob_in, kAnyWidth, &member).ok()) {
        return fail("bad member model");
      }
      result->members.Add(std::move(member));
    } else {
      return fail("bad model record");
    }
  }
}

}  // namespace

std::string CheckpointPath(const std::string& directory) {
  return directory + "/spe_train.ckpt";
}

void PublishCheckpoint(const std::string& path, const TrainerStateCore& core,
                       std::span<const std::string> member_blobs,
                       const RetryPolicy& retry) {
  // The frame as ranges: the header (encoded once the payload is laid
  // out), the state lines, then each record's count line followed by its
  // blob where the caller keeps it.
  const std::string state = SerializeState(core);
  std::vector<std::string> counts;
  counts.reserve(member_blobs.size() + 1);  // `ranges` views its elements
  std::vector<std::string_view> ranges = {std::string_view(), state};
  const auto add_record = [&](const char* kind, std::string_view blob) {
    counts.push_back(std::string(kind) + ' ' + std::to_string(blob.size()) +
                     '\n');
    ranges.push_back(counts.back());
    ranges.push_back(blob);
  };
  if (!core.bootstrap_blob.empty()) {
    add_record("bootstrap", core.bootstrap_blob);
  }
  for (const std::string& blob : member_blobs) add_record("member", blob);
  const std::string header = frame::EncodeHeader(
      kCheckpointFormat, "",
      std::span<const std::string_view>(ranges).subspan(1));
  ranges[0] = header;
  RetryWithBackoff(retry, "checkpoint write " + path, [&] {
    if (Faults().ShouldFailArtifactWrite()) {
      throw TransientIoError(
          "injected fault: transient checkpoint write failed for " + path,
          /*injected=*/true);
    }
    const frame::Error error = frame::PublishAtomically(path, ranges);
    if (!error.ok()) throw TransientIoError(error.message);
  });
}

LoadResult DecodeTrainerState(std::string_view bytes) {
  LoadResult result;
  frame::Header header;
  result.error = frame::DecodeHeader(bytes, kCheckpointFormat, &header);
  if (result.error.ok() && !header.fields.empty()) {
    result.error = {frame::ErrorClass::kMalformed,
                    std::string(kCheckpointFormat.malformed)};
  }
  if (result.error.ok()) {
    result.error = frame::CheckPayload(header, bytes.substr(header.size),
                                       kCheckpointFormat);
  }
  if (result.error.cls == frame::ErrorClass::kCorrupt) {
    result.error.message = "checkpoint corrupted: crc32 mismatch";
  }
  if (result.error.ok()) {
    ParsePayload(std::string(bytes.substr(header.size, header.payload_bytes)),
                 &result);
  }
  return result;
}

LoadResult LoadTrainerStateFromFile(const std::string& path,
                                    const RetryPolicy& retry) {
  bool absent = false;
  const std::string bytes = RetryWithBackoff(
      retry, "checkpoint read " + path, [&]() -> std::string {
        if (Faults().ShouldFailArtifactRead()) {
          throw TransientIoError(
              "injected fault: transient checkpoint read failed for " + path,
              /*injected=*/true);
        }
        std::ifstream is(path, std::ios::binary);
        absent = !is.good();
        if (absent) return std::string();
        std::ostringstream buf;
        buf << is.rdbuf();
        if (is.bad()) throw TransientIoError("cannot read " + path);
        return buf.str();
      });
  if (absent) {
    LoadResult result;
    result.missing = true;
    result.error = {frame::ErrorClass::kIo, "cannot open " + path};
    return result;
  }
  return DecodeTrainerState(bytes);
}

std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t value) {
  // SplitMix64 finalizer over (seed, value): cheap, order-dependent,
  // and well-mixed — fingerprints only need to make collisions between
  // *related* configs (one field nudged) vanishingly unlikely.
  value += 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ull;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebull;
  return seed ^ (value ^ (value >> 31));
}

namespace {

// Order-sensitive 64-bit fold over raw bytes: xor-multiply per 8-byte
// word, length-tagged tail. Runs at memory speed, unlike the table-walk
// CRC kernel — this is on the hot path of every checkpointed Fit, and
// the fingerprint only ever compares against itself, so collision
// resistance (not error-model guarantees) is what matters.
std::uint64_t FoldBytes(std::uint64_t h, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  const char* const end = p + size;
  std::uint64_t w = 0;
  for (; p + sizeof(w) <= end; p += sizeof(w)) {
    std::memcpy(&w, p, sizeof(w));
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
  }
  w = 0;
  if (p < end) std::memcpy(&w, p, static_cast<std::size_t>(end - p));
  return HashCombine(h ^ size, w);
}

}  // namespace

std::uint64_t DatasetFingerprint(const DatasetView& data) {
  data.CheckAlive();
  std::uint64_t h = HashCombine(0x7370652d64617461ull, data.num_rows());
  h = HashCombine(h, data.num_features());
  if (data.num_rows() > 0) {
    // Columnar fold: identity views hash each feature's contiguous
    // slice directly; indexed and row-major views gather the column
    // into scratch first so equal contents hash equal regardless of
    // the view's mode.
    const DataMatrix* parent = data.identity() ? data.parent() : nullptr;
    std::vector<double> col_scratch;
    for (std::size_t j = 0; j < data.num_features(); ++j) {
      if (parent != nullptr) {
        const std::span<const double> col = parent->Column(j);
        h = FoldBytes(h, col.data(), col.size_bytes());
      } else {
        col_scratch.resize(data.num_rows());
        for (std::size_t i = 0; i < data.num_rows(); ++i) {
          col_scratch[i] = data.At(i, j);
        }
        h = FoldBytes(h, col_scratch.data(),
                      col_scratch.size() * sizeof(double));
      }
    }
  }
  const std::vector<int> labels = data.LabelsVector();
  h = FoldBytes(h, labels.data(), labels.size() * sizeof(int));
  return h;
}

}  // namespace checkpoint
}  // namespace spe
