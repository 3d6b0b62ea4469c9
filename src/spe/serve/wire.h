#ifndef SPE_SERVE_WIRE_H_
#define SPE_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spe::wire {

/// Length-prefixed binary scoring protocol, negotiated per connection
/// alongside the legacy newline text protocol by sniffing the first
/// byte the client sends: kMagic (0xA6, not printable ASCII — no text
/// request can start with it) selects binary framing for the rest of
/// the connection, anything else selects the line protocol.
///
/// Every frame is an 8-byte header followed by `payload_len` bytes:
///
///   offset  size  field
///   0       1     magic    = 0xA6
///   1       1     version  = 1
///   2       1     flags    (Flags bitmask)
///   3       1     type     (FrameType)
///   4       4     payload_len, u32 little-endian
///
/// All multi-byte integers and floats are little-endian (IEEE-754 for
/// floats). A score request payload is
///
///   u64 id | [f64 deadline_ms, iff kFlagDeadline] | features...
///
/// where features are consecutive f64 (or f32 under kFlagF32) values —
/// the feature count is implied by the remaining payload length, which
/// must land exactly on the model's width. On little-endian hosts the
/// f64 layout IS the scoring layout, so the hot path is one memcpy:
/// no tokenizing, no number parsing, no per-request allocation (the
/// destination vector is pooled by the event loop).
///
/// Responses come back in request order, exactly like the line
/// protocol. A scored row answers kScoreOk (u64 id + f64 proba,
/// kFlagDegraded set when an overloaded server answered with an
/// ensemble prefix); a refused row answers kError (u64 id + UTF-8
/// message, same error taxonomy as the line protocol); the control
/// frames kMetrics/kReload answer kText carrying the exact text
/// the line protocol would have written (minus the trailing newline —
/// the frame is the delimiter).
///
/// The f32 caveat: kFlagF32 halves request bandwidth, but features are
/// widened to f64 before scoring, so a score is bit-identical to
/// scoring the *rounded* features — not to the f64 originals. Clients
/// that need bit-identity with offline scoring must send f64.
///
/// Oversized frames (payload_len > kMaxPayloadBytes) are refused with
/// kError and the payload is discarded in chunks without ever being
/// buffered, mirroring the text protocol's overlong-line handling; the
/// connection stays open. A bad magic or version mid-stream is
/// unrecoverable (framing is lost), so the server answers kError and
/// closes after flushing.

inline constexpr unsigned char kMagic = 0xA6;
inline constexpr unsigned char kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 8;
/// Same bound as the text protocol's line cap: one request (or one
/// rendered metrics exposition) must fit.
inline constexpr std::size_t kMaxPayloadBytes = 1 << 20;

enum Flags : unsigned char {
  kFlagF32 = 0x01,       // request features are f32 (default f64)
  kFlagDeadline = 0x02,  // request carries f64 deadline_ms after the id
  kFlagDegraded = 0x04,  // response was scored by a degraded prefix
};

enum class FrameType : unsigned char {
  // client -> server
  kScore = 0x01,    // u64 id [f64 deadline_ms] features
  // 0x02 is retired: clients that still send it must keep getting
  // "unknown frame type 2", so it is never reassigned.
  kMetrics = 0x03,  // empty payload; answers kText (exposition)
  kReload = 0x04,   // payload = artifact path; answers kText (OK/ERR)
  // server -> client
  kScoreOk = 0x81,  // u64 id + f64 proba
  kError = 0x82,    // u64 id + UTF-8 message (id 0 when unattributable)
  kText = 0x83,     // UTF-8 text
};

struct FrameHeader {
  unsigned char magic = 0;
  unsigned char version = 0;
  unsigned char flags = 0;
  unsigned char type = 0;
  std::uint32_t payload_len = 0;
};

/// Field extraction from kHeaderBytes raw bytes; no validation.
FrameHeader DecodeHeader(const unsigned char* bytes);

/// Header sanity for a *request* frame: magic, version, known client
/// frame type, payload cap, and the fixed-size payload floor for the
/// type. Empty string = ok; otherwise a taxonomy-stable reason. A
/// non-empty result for a bad magic/version means the stream is
/// unsynchronized (see kError note above) — IsFramingLost tells the
/// transport whether it can keep the connection.
std::string ValidateRequestHeader(const FrameHeader& header);

/// True when `error` (from ValidateRequestHeader) means the byte stream
/// can no longer be framed and the connection must close after the
/// error is flushed.
bool IsFramingLost(std::string_view error);

/// Decoded kScore request, features excluded (they land in a separate
/// pooled vector).
struct ScoreFrame {
  std::uint64_t id = 0;
  /// Relative deadline in ms; negative when the request carried none.
  double deadline_ms = -1.0;
};

/// Decodes a kScore payload. `features` is resized to the implied
/// count and filled — a straight memcpy for f64 on little-endian
/// hosts. Returns "" on success, else a taxonomy-stable error message
/// (non-finite feature, misaligned payload, bad deadline). The
/// caller checks the count against the model schema — the frame itself
/// does not know the model width.
std::string DecodeScorePayload(const FrameHeader& header,
                               const unsigned char* payload,
                               ScoreFrame& out, std::vector<double>& features);

// ---- encoding (client side and server responses) -------------------
// Append* builds frames into a reusable byte buffer (std::string used
// as bytes) so transports can batch many frames into one write.

void AppendHeader(std::string& out, FrameType type, unsigned char flags,
                  std::uint32_t payload_len);

/// Client: one score request.
void AppendScoreRequest(std::string& out, std::uint64_t id,
                        const double* features, std::size_t count,
                        bool f32 = false, double deadline_ms = -1.0);

/// Client: control frame (kMetrics has an empty payload; kReload
/// carries the artifact path).
void AppendControlRequest(std::string& out, FrameType type,
                          std::string_view payload = {});

/// Server: responses.
void AppendScoreResponse(std::string& out, std::uint64_t id, double proba,
                         bool degraded);
void AppendErrorResponse(std::string& out, std::uint64_t id,
                         std::string_view message);
void AppendTextResponse(std::string& out, std::string_view text);

/// Decoded response frame (client side: tools, tests, bench).
struct DecodedResponse {
  FrameType type = FrameType::kError;
  bool degraded = false;
  std::uint64_t id = 0;
  double proba = 0.0;
  std::string text;  // kText body or kError message
};

/// Decodes a response frame (header already validated for magic/
/// version/cap by the caller's read loop). Returns "" or a reason.
std::string DecodeResponse(const FrameHeader& header,
                           const unsigned char* payload,
                           DecodedResponse& out);

}  // namespace spe::wire

#endif  // SPE_SERVE_WIRE_H_
