#ifndef SPE_COMMON_FRAME_H_
#define SPE_COMMON_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace spe {
namespace frame {

/// The envelope every artifact this repo persists starts with — model
/// bundles (spe/io/model_io.h) and training checkpoints
/// (spe/checkpoint/checkpoint.h):
///
///   MAGIC VERSION [KEY VALUE]... payload_bytes N crc32 HHHHHHHH\n
///
/// single-space separated, HHHHHHHH the lowercase CRC-32 of the N
/// payload bytes (after any further header lines the format owns). The
/// CRC covers the payload only.

/// Why an artifact was refused. Callers branch on the class (exit codes,
/// retries, torn-tail fallback), never on the message text.
enum class ErrorClass {
  kNone = 0,
  kIo,                  ///< the file could not be opened or read
  kInjectedFault,       ///< an SPE_FAULTS injection point fired
  kBadMagic,            ///< the first token is not the format's magic
  kMalformed,           ///< the header does not parse
  kUnsupportedVersion,  ///< a version this build does not read
  kTruncated,           ///< the bytes end before the frame does
  kCorrupt,             ///< the payload fails its CRC-32
};

struct Error {
  ErrorClass cls = ErrorClass::kNone;
  std::string message;
  bool ok() const { return cls == ErrorClass::kNone; }
};

/// One framed format: its magic, the versions this build reads (it
/// writes max_version), and the wording of its refusals.
struct Format {
  std::string_view magic;
  int min_version = 0;
  int max_version = 0;
  std::string_view bad_magic;
  std::string_view malformed;
  std::string_view unsupported;
  std::string_view noun;  ///< "<noun> truncated: ...", "<noun> corrupted: ..."
};

struct Header {
  int version = 0;
  /// The "KEY VALUE..." text between VERSION and payload_bytes ("" when
  /// none), viewing the decoded bytes; its owner parses it.
  std::string_view fields;
  std::uint64_t payload_bytes = 0;
  std::uint32_t crc32 = 0;
  std::size_t size = 0;  ///< header line length, newline included
};

/// The header line for a payload that is the concatenation of
/// `payload`, in order; `fields` is "" or "KEY VALUE...".
std::string EncodeHeader(const Format& format, std::string_view fields,
                         std::span<const std::string_view> payload);

/// The one-range form.
inline std::string EncodeHeader(const Format& format, std::string_view fields,
                                std::string_view payload) {
  return EncodeHeader(format, fields,
                      std::span<const std::string_view>(&payload, 1));
}

/// Decodes the header line at the start of `bytes`: a line with no
/// newline is kTruncated (a torn tail), then the magic, the version and
/// the layout are checked in that order. Never aborts.
Error DecodeHeader(std::string_view bytes, const Format& format,
                   Header* header);

/// Checks the payload at the start of `bytes`: length first (fewer bytes
/// than promised is kTruncated, whatever the claim), then the CRC-32
/// (kCorrupt). Bytes past the payload are the caller's.
Error CheckPayload(const Header& header, std::string_view bytes,
                   const Format& format);

/// Lowercase 8-digit hex, the header's crc32 spelling.
std::string CrcHex(std::uint32_t crc);

/// `line` split on single spaces into at most `max_tokens` tokens, the
/// last holding the unsplit rest. Empty tokens are kept, so a doubled,
/// leading or trailing space never parses as a well-formed line.
std::vector<std::string_view> Tokens(
    std::string_view line, std::size_t max_tokens = std::string_view::npos);

/// Whole-token unsigned decimal: digits only, no sign, no overflow.
bool ParseU64(std::string_view token, std::uint64_t* out);

/// Writes the concatenation of `ranges`, in order, to `path + ".tmp"`,
/// then rename(2)s it over `path`, so readers see the complete old file
/// or the complete new one. The ranges are written where they lie: a
/// file assembled from several buffers (a header, the columns of a
/// dataset, a trailer) is never copied into one image first. On failure
/// returns kIo, removes the tmp file and leaves `path` as it was.
Error PublishAtomically(const std::string& path,
                        std::span<const std::string_view> ranges);

/// The one-range form.
inline Error PublishAtomically(const std::string& path,
                               std::string_view bytes) {
  return PublishAtomically(path, std::span<const std::string_view>(&bytes, 1));
}

}  // namespace frame
}  // namespace spe

#endif  // SPE_COMMON_FRAME_H_
