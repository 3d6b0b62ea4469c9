// Property suite for the shared artifact frame (spe/common/frame.h), run
// on real artifacts through the production decoders that use it: a v3
// model bundle (DecodeModelBundle) and a training checkpoint
// (checkpoint::DecodeTrainerState). Every damaged input — torn tails,
// one bit flip per header byte and per sampled payload byte, length
// lies, version skew, a non-hex crc — must come back as its expected
// error class; none may abort or throw.

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "spe/checkpoint/checkpoint.h"
#include "spe/common/frame.h"
#include "spe/common/parse.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/io/model_io.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;
using frame::ErrorClass;

const char* Name(ErrorClass cls) {
  switch (cls) {
    case ErrorClass::kNone: return "none";
    case ErrorClass::kIo: return "io";
    case ErrorClass::kInjectedFault: return "injected fault";
    case ErrorClass::kBadMagic: return "bad magic";
    case ErrorClass::kMalformed: return "malformed";
    case ErrorClass::kUnsupportedVersion: return "unsupported version";
    case ErrorClass::kTruncated: return "truncated";
    case ErrorClass::kCorrupt: return "corrupt";
  }
  return "?";
}

// What a byte of the pristine header lines is, which decides the class
// a flip there must produce.
enum class Role {
  kMagic,
  kVersion,
  kKey,       // num_features, payload_bytes, crc32, hardness_histogram
  kWidth,     // the num_features value
  kLength,    // the payload_bytes value
  kCrc,
  kBins,      // the histogram's bin count
  kKind,
  kBound,     // histogram min / max
  kBinCount,  // one histogram count
};

struct Token {
  std::size_t begin = 0;
  std::string text;
  Role role = Role::kKey;
};

struct Artifact {
  const char* name = "";
  bool bundle = false;
  std::string bytes;
  std::size_t header_end = 0;  // end of the header lines
  std::vector<Token> tokens;   // every token of the header lines
  std::uint64_t payload_bytes = 0;
  std::uint64_t bin_total = 0;  // sum of the histogram counts

  ErrorClass Decode(std::string_view input) const {
    if (bundle) {
      ModelBundle decoded;
      const frame::Error error = DecodeModelBundle(input, &decoded);
      EXPECT_EQ(error.ok(), decoded.model != nullptr);
      return error.cls;
    }
    const checkpoint::LoadResult decoded =
        checkpoint::DecodeTrainerState(input);
    EXPECT_EQ(decoded.error.ok(), decoded.members.size() > 0);
    return decoded.error.cls;
  }
};

Role RoleOf(bool bundle, std::size_t line, std::size_t index) {
  if (line == 1) {
    switch (index) {
      case 0: return Role::kKey;
      case 1: return Role::kBins;
      case 2: return Role::kKind;
      case 3:
      case 4: return Role::kBound;
      default: return Role::kBinCount;
    }
  }
  // MAGIC VERSION [num_features W] payload_bytes N crc32 H
  const std::size_t field = bundle ? 2 : 0;
  if (index == 0) return Role::kMagic;
  if (index == 1) return Role::kVersion;
  if (bundle && index == 3) return Role::kWidth;
  if (index == 3 + field) return Role::kLength;
  if (index == 5 + field) return Role::kCrc;
  return Role::kKey;
}

Artifact Describe(const char* name, bool bundle, std::string bytes) {
  Artifact a;
  a.name = name;
  a.bundle = bundle;
  a.bytes = std::move(bytes);
  const std::size_t lines = bundle ? 2 : 1;
  std::size_t begin = 0;
  for (std::size_t line = 0; line < lines; ++line) {
    const std::size_t eol = a.bytes.find('\n', begin);
    const std::string_view text =
        std::string_view(a.bytes).substr(begin, eol - begin);
    const std::vector<std::string_view> tokens = frame::Tokens(text);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const std::size_t at =
          begin + static_cast<std::size_t>(tokens[i].data() - text.data());
      a.tokens.push_back({at, std::string(tokens[i]), RoleOf(bundle, line, i)});
      std::uint64_t value = 0;
      if (a.tokens.back().role == Role::kLength) {
        EXPECT_TRUE(frame::ParseU64(tokens[i], &a.payload_bytes));
      } else if (a.tokens.back().role == Role::kBinCount) {
        EXPECT_TRUE(frame::ParseU64(tokens[i], &value));
        a.bin_total += value;
      }
    }
    begin = eol + 1;
  }
  a.header_end = begin;
  EXPECT_EQ(a.bytes.size() - a.header_end, a.payload_bytes) << name;
  return a;
}

// The class a decoder must report when the header byte at `pos` is
// replaced by `c`. Separators and line ends merge tokens (the magic
// token first, so a flip of the space after it is bad magic); a new
// space splits one; every other flip changes one token's text, and its
// role says what that does.
ErrorClass ExpectedForHeaderFlip(const Artifact& a, std::size_t pos, char c) {
  EXPECT_NE(c, '\n') << "a flip this suite does not model, at " << pos;
  const Token* token = nullptr;
  for (const Token& t : a.tokens) {
    if (pos >= t.begin && pos < t.begin + t.text.size()) token = &t;
  }
  if (token == nullptr) {
    return pos == a.tokens[0].text.size() ? ErrorClass::kBadMagic
                                          : ErrorClass::kMalformed;
  }
  if (token->role == Role::kMagic) return ErrorClass::kBadMagic;
  if (c == ' ') return ErrorClass::kMalformed;
  std::string text = token->text;
  text[pos - token->begin] = c;
  std::uint64_t value = 0;
  switch (token->role) {
    case Role::kMagic:
      return ErrorClass::kBadMagic;
    case Role::kKey:
    case Role::kBins:
      return ErrorClass::kMalformed;
    case Role::kVersion:
      if (!frame::ParseU64(text, &value)) return ErrorClass::kMalformed;
      // A bundle read as version 2 takes the histogram line for the
      // start of its payload, which then fails the CRC.
      if (a.bundle && value == 2) return ErrorClass::kCorrupt;
      return ErrorClass::kUnsupportedVersion;
    case Role::kWidth:
      if (!frame::ParseU64(text, &value) || value == 0) {
        return ErrorClass::kMalformed;
      }
      return ErrorClass::kNone;  // the header carries no integrity check
    case Role::kLength:
      if (!frame::ParseU64(text, &value)) return ErrorClass::kMalformed;
      return value > a.payload_bytes ? ErrorClass::kTruncated
                                     : ErrorClass::kCorrupt;
    case Role::kCrc:
      return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
                 ? ErrorClass::kCorrupt
                 : ErrorClass::kMalformed;
    case Role::kKind:
      return text == "AE" || text == "SE" || text == "CE"
                 ? ErrorClass::kNone
                 : ErrorClass::kMalformed;
    case Role::kBound:
      return ParseFiniteDouble(text) ? ErrorClass::kNone
                                     : ErrorClass::kMalformed;
    case Role::kBinCount: {
      // A histogram whose counts sum to zero is no drift baseline.
      std::uint64_t old = 0;
      frame::ParseU64(token->text, &old);
      if (!frame::ParseU64(text, &value) || a.bin_total - old + value == 0) {
        return ErrorClass::kMalformed;
      }
      return ErrorClass::kNone;
    }
  }
  return ErrorClass::kNone;
}

std::string WithToken(const Artifact& a, Role role, const std::string& text) {
  for (const Token& t : a.tokens) {
    if (t.role == role) {
      std::string bytes = a.bytes;
      return bytes.replace(t.begin, t.text.size(), text);
    }
  }
  ADD_FAILURE() << a.name << " has no such token";
  return a.bytes;
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::vector<Artifact> BuildArtifacts() {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 6;
  config.seed = 5;
  SelfPacedEnsemble model(config);
  const Dataset data = OverlappingBlobs(300, 40, 5);
  model.Fit(data);
  std::ostringstream bundle;
  SaveModelBundle(model, 2, bundle);
  std::vector<Artifact> artifacts;
  artifacts.push_back(Describe("bundle", true, bundle.str()));

  // A real checkpoint, left behind by a run halted after its third
  // iteration: the observer runs once that iteration has published, and
  // its throw stops the fit.
  const auto dir =
      std::filesystem::temp_directory_path() / "spe_frame_test_checkpoint";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SelfPacedEnsemble halted(config);
  FitCheckpointOptions options;
  options.directory = dir.string();
  halted.set_checkpoint_options(options);
  struct Halted {};
  halted.set_iteration_callback([](const IterationInfo& info) {
    if (info.iteration == 3) throw Halted{};
  });
  EXPECT_THROW(halted.Fit(data), Halted);
  artifacts.push_back(Describe(
      "checkpoint", false,
      ReadFile(checkpoint::CheckpointPath(dir.string()))));
  std::filesystem::remove_all(dir);
  return artifacts;
}

const std::vector<Artifact>& Artifacts() {
  static const std::vector<Artifact> artifacts = BuildArtifacts();
  return artifacts;
}

TEST(FrameTest, PristineArtifactsDecode) {
  for (const Artifact& a : Artifacts()) {
    EXPECT_EQ(a.Decode(a.bytes), ErrorClass::kNone) << a.name;
    // Bytes past the payload are not the frame's; neither decoder reads
    // them.
    EXPECT_EQ(a.Decode(a.bytes + "trailing"), ErrorClass::kNone) << a.name;
  }
  EXPECT_GT(Artifacts().front().header_end,
            Artifacts().front().bytes.find('\n') + 1)
      << "the bundle must carry a histogram line";
}

TEST(FrameTest, EveryTornTailIsTruncated) {
  for (const Artifact& a : Artifacts()) {
    std::vector<std::size_t> cuts;
    for (std::size_t cut = 0; cut < a.header_end; ++cut) cuts.push_back(cut);
    const std::size_t stride = std::max<std::size_t>(1, a.payload_bytes / 97);
    for (std::size_t cut = a.header_end; cut < a.bytes.size(); cut += stride) {
      cuts.push_back(cut);
    }
    cuts.push_back(a.bytes.size() - 1);
    for (const std::size_t cut : cuts) {
      EXPECT_EQ(a.Decode(std::string_view(a.bytes).substr(0, cut)),
                ErrorClass::kTruncated)
          << a.name << " cut at " << cut;
    }
  }
}

TEST(FrameTest, EveryHeaderBitFlipGetsItsClass) {
  for (const Artifact& a : Artifacts()) {
    for (std::size_t pos = 0; pos < a.header_end; ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string bytes = a.bytes;
        bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << bit));
        const ErrorClass want = ExpectedForHeaderFlip(a, pos, bytes[pos]);
        const ErrorClass got = a.Decode(bytes);
        EXPECT_EQ(got, want) << a.name << " byte " << pos << " bit " << bit
                             << ": got " << Name(got) << ", want "
                             << Name(want);
      }
    }
  }
}

TEST(FrameTest, SampledPayloadBitFlipsAreCorrupt) {
  for (const Artifact& a : Artifacts()) {
    const std::size_t stride = std::max<std::size_t>(1, a.payload_bytes / 61);
    for (std::size_t pos = a.header_end; pos < a.bytes.size(); pos += stride) {
      std::string bytes = a.bytes;
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << (pos % 8)));
      EXPECT_EQ(a.Decode(bytes), ErrorClass::kCorrupt)
          << a.name << " byte " << pos;
    }
  }
}

TEST(FrameTest, LengthLiesAreClassified) {
  for (const Artifact& a : Artifacts()) {
    const std::uint64_t n = a.payload_bytes;
    const struct {
      std::string text;
      ErrorClass want;
    } lies[] = {
        {"0", ErrorClass::kCorrupt},
        {std::to_string(n - 1), ErrorClass::kCorrupt},
        {std::to_string(n + 1), ErrorClass::kTruncated},
        {"9223372036854775808", ErrorClass::kTruncated},   // 2^63
        {"18446744073709551615", ErrorClass::kTruncated},  // 2^64 - 1
        {"18446744073709551616", ErrorClass::kMalformed},  // 2^64
        {"12a4", ErrorClass::kMalformed},
        {"-5", ErrorClass::kMalformed},
        {"+5", ErrorClass::kMalformed},
        {"", ErrorClass::kMalformed},
    };
    for (const auto& lie : lies) {
      EXPECT_EQ(a.Decode(WithToken(a, Role::kLength, lie.text)), lie.want)
          << a.name << " payload_bytes '" << lie.text << "'";
    }
  }
}

TEST(FrameTest, VersionSkewIsUnsupported) {
  for (const Artifact& a : Artifacts()) {
    // A checkpoint's version 1 was the retired manifest + member log,
    // and its version 2 carried FitWithValidation's early-stop state.
    const std::vector<int> versions =
        a.bundle ? std::vector<int>{0, 4} : std::vector<int>{0, 1, 2, 4};
    for (const int version : versions) {
      EXPECT_EQ(a.Decode(WithToken(a, Role::kVersion, std::to_string(version))),
                ErrorClass::kUnsupportedVersion)
          << a.name << " version " << version;
    }
  }
}

TEST(FrameTest, NonHexCrcIsMalformed) {
  for (const Artifact& a : Artifacts()) {
    for (const char* crc : {"xyz12345", "ABCDEF12", "1234567", "123456789"}) {
      EXPECT_EQ(a.Decode(WithToken(a, Role::kCrc, crc)),
                ErrorClass::kMalformed)
          << a.name << " crc32 '" << crc << "'";
    }
  }
}

TEST(FrameTest, FalseHistogramBinCountIsMalformed) {
  const Artifact& bundle = Artifacts().front();
  for (const char* bins : {"999999999999999999", "18446744073709551615",
                           "0", "1"}) {
    EXPECT_EQ(bundle.Decode(WithToken(bundle, Role::kBins, bins)),
              ErrorClass::kMalformed)
        << "hardness_histogram " << bins;
  }
}

TEST(FrameTest, EncodeHeaderRoundTrips) {
  constexpr frame::Format kFormat = {"spe-test", 1, 1, "bad magic",
                                     "malformed", "unsupported", "test"};
  const std::string payload = "some payload\n";
  const std::string header = frame::EncodeHeader(kFormat, "key 7", payload);
  EXPECT_EQ(header.rfind("spe-test 1 key 7 payload_bytes 13 crc32 ", 0), 0u);
  const std::string bytes = header + payload;
  frame::Header decoded;
  ASSERT_TRUE(frame::DecodeHeader(bytes, kFormat, &decoded).ok());
  EXPECT_EQ(decoded.version, 1);
  EXPECT_EQ(decoded.fields, "key 7");
  EXPECT_EQ(decoded.size, header.size());
  EXPECT_TRUE(frame::CheckPayload(decoded, std::string_view(bytes).substr(
                                               decoded.size),
                                  kFormat)
                  .ok());
  // A payload given as ranges frames exactly like its concatenation.
  const std::string_view parts[] = {"", "some ", "", "payload\n"};
  EXPECT_EQ(frame::EncodeHeader(kFormat, "key 7", parts), header);
}

TEST(FrameTest, PublishAtomicallyReplacesWholeFiles) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "spe_frame_test_publish")
          .string();
  ASSERT_TRUE(frame::PublishAtomically(path, "first version").ok());
  ASSERT_TRUE(frame::PublishAtomically(path, "second").ok());
  EXPECT_EQ(ReadFile(path), "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Ranges land in order, back to back; empty ones anywhere are allowed,
  // and no ranges at all publish an empty file.
  const std::string_view parts[] = {"", "head|", "", "body|", "tail", ""};
  ASSERT_TRUE(frame::PublishAtomically(path, parts).ok());
  EXPECT_EQ(ReadFile(path), "head|body|tail");
  ASSERT_TRUE(
      frame::PublishAtomically(path, std::span<const std::string_view>()).ok());
  EXPECT_EQ(ReadFile(path), "");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // A write that fails part-way (a full disk, modelled by the file-size
  // limit, which binds root too, unlike directory permissions) is kIo:
  // the partial tmp file is removed and the old file is left as it was.
  ASSERT_TRUE(frame::PublishAtomically(path, "old contents").ok());
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit limited = saved;
  limited.rlim_cur = 4;
  const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &limited), 0);
  const std::string body(1 << 16, 'x');
  const std::string_view too_long[] = {"new ", body, "end"};
  const frame::Error full = frame::PublishAtomically(path, too_long);
  setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, saved_handler);
  EXPECT_EQ(full.cls, ErrorClass::kIo) << full.message;
  EXPECT_EQ(ReadFile(path), "old contents");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);

  const frame::Error error = frame::PublishAtomically(
      (std::filesystem::temp_directory_path() / "no_such_dir" / "f").string(),
      "bytes");
  EXPECT_EQ(error.cls, ErrorClass::kIo);
  EXPECT_NE(error.message.find("cannot write"), std::string::npos)
      << error.message;
}

}  // namespace
}  // namespace spe
