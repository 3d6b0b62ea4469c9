#include "spe/common/frame.h"

#include <charconv>
#include <cstdio>
#include <fstream>

#include "spe/common/crc32.h"

namespace spe {
namespace frame {
namespace {

// MAGIC VERSION, up to five KEY VALUE fields, payload_bytes N crc32 H.
constexpr std::size_t kMaxHeaderTokens = 16;

bool ParseCrc(std::string_view token, std::uint32_t* out) {
  return token.size() == 8 &&
         token.find_first_not_of("0123456789abcdef") == token.npos &&
         std::from_chars(token.data(), token.data() + 8, *out, 16).ec ==
             std::errc();
}

}  // namespace

std::string CrcHex(std::uint32_t crc) {
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", crc);
  return hex;
}

std::vector<std::string_view> Tokens(std::string_view line,
                                     std::size_t max_tokens) {
  std::vector<std::string_view> tokens;
  for (;;) {
    const std::size_t space = tokens.size() + 1 < max_tokens
                                  ? line.find(' ')
                                  : std::string_view::npos;
    tokens.push_back(line.substr(0, space));
    if (space == std::string_view::npos) return tokens;
    line.remove_prefix(space + 1);
  }
}

bool ParseU64(std::string_view token, std::uint64_t* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

std::string EncodeHeader(const Format& format, std::string_view fields,
                         std::string_view payload) {
  std::string header =
      std::string(format.magic) + ' ' + std::to_string(format.max_version);
  if (!fields.empty()) (header += ' ') += fields;
  return header + " payload_bytes " + std::to_string(payload.size()) +
         " crc32 " + CrcHex(Crc32(payload)) + "\n";
}

Error DecodeHeader(std::string_view bytes, const Format& format,
                   Header* header) {
  const std::size_t eol = bytes.find('\n');
  if (eol == std::string_view::npos) {
    return {ErrorClass::kTruncated,
            std::string(format.noun) + " truncated: header line has no end"};
  }
  // An overlong line keeps its excess in the last token, which then
  // fails to parse as a crc: the split never grows with the input.
  const std::vector<std::string_view> tokens =
      Tokens(bytes.substr(0, eol), kMaxHeaderTokens);
  if (tokens[0] != format.magic) {
    return {ErrorClass::kBadMagic, std::string(format.bad_magic)};
  }
  // The version decides the layout, so it is judged before the rest.
  std::uint64_t version = 0;
  if (tokens.size() < 2 || !ParseU64(tokens[1], &version)) {
    return {ErrorClass::kMalformed, std::string(format.malformed)};
  }
  if (version < static_cast<std::uint64_t>(format.min_version) ||
      version > static_cast<std::uint64_t>(format.max_version)) {
    return {ErrorClass::kUnsupportedVersion, std::string(format.unsupported)};
  }
  // MAGIC VERSION [FIELDS] payload_bytes N crc32 HHHHHHHH
  const std::size_t n = tokens.size();
  if (n < 6 || tokens[n - 4] != "payload_bytes" ||
      !ParseU64(tokens[n - 3], &header->payload_bytes) ||
      tokens[n - 2] != "crc32" || !ParseCrc(tokens[n - 1], &header->crc32)) {
    return {ErrorClass::kMalformed, std::string(format.malformed)};
  }
  header->version = static_cast<int>(version);
  const char* fields_end = tokens[n - 4].data() - 1;  // before its space
  header->fields = n == 6 ? std::string_view()
                          : std::string_view(tokens[2].data(),
                                             fields_end - tokens[2].data());
  header->size = eol + 1;
  return {};
}

Error CheckPayload(const Header& header, std::string_view bytes,
                   const Format& format) {
  if (bytes.size() < header.payload_bytes) {
    return {ErrorClass::kTruncated,
            std::string(format.noun) + " truncated: header promises " +
                std::to_string(header.payload_bytes) +
                " payload bytes but only " + std::to_string(bytes.size()) +
                " are present"};
  }
  const std::uint32_t actual = Crc32(bytes.substr(0, header.payload_bytes));
  if (actual != header.crc32) {
    return {ErrorClass::kCorrupt,
            std::string(format.noun) + " corrupted: payload crc32 " +
                CrcHex(actual) + " does not match header crc32 " +
                CrcHex(header.crc32)};
  }
  return {};
}

Error PublishAtomically(const std::string& path,
                        std::span<const std::string_view> ranges) {
  const std::string tmp = path + ".tmp";
  std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
  for (const std::string_view range : ranges) {
    os.write(range.data(), static_cast<std::streamsize>(range.size()));
  }
  os.close();  // flushes; a failed open, write or flush leaves failbit set
  if (os.fail()) {
    std::remove(tmp.c_str());
    return {ErrorClass::kIo, "cannot write " + tmp};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return {ErrorClass::kIo, "cannot rename " + tmp + " over " + path};
  }
  return {};
}

}  // namespace frame
}  // namespace spe
