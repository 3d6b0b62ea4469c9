#ifndef SPE_SERVE_LINE_PROTOCOL_H_
#define SPE_SERVE_LINE_PROTOCOL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace spe {

/// Newline-delimited scoring protocol shared by the TCP and stdio
/// transports of spe_serve. One request per line, one response line per
/// request, responses in request order. Two self-describing request
/// shapes:
///
///   CSV:  `0.5,1.25,-3`                 -> `0.08731...`
///   JSON: `{"id":17,"features":[0.5]}`  -> `{"id":17,"proba":0.08731...}`
///
/// A line whose first non-space byte is '{' is JSON; anything else is
/// CSV. The literal line `!stats` requests the metrics exposition
/// (multi-line, Prometheus text format, terminated by `# EOF`) — the
/// server's one stats surface; `!reload [PATH]`
/// asks the server to hot-swap its model to the artifact at PATH (or
/// re-read the startup artifact when PATH is omitted) — answered with
/// one `OK ...` or `ERR ...` line once the swap has happened, in
/// request order like every other response. Errors are
/// reported in the shape of the request: `ERR <msg>` for CSV,
/// `{"error":"<msg>"}` for JSON — the connection stays open either way.
/// Probabilities are printed with 17 significant digits so the decimal
/// text round-trips to the exact double the model produced.
///
/// Hardening: feature values must be finite (NaN/Inf are rejected — a
/// non-finite feature scores to garbage silently), ids longer than
/// kMaxIdBytes and lines longer than kMaxRequestLineBytes are rejected,
/// and a JSON request may carry `"deadline_ms": D` — the server fails
/// the request with DEADLINE_EXCEEDED instead of scoring it if it is
/// still queued D milliseconds after parsing. Responses produced by a
/// degraded (ensemble-prefix) dispatch carry `"degraded":true`.

/// Hard cap on one request line. Longer lines are answered with an
/// error and discarded without being buffered whole.
inline constexpr std::size_t kMaxRequestLineBytes = 1 << 20;  // 1 MiB

/// Cap on the verbatim JSON "id" token echoed back in responses.
inline constexpr std::size_t kMaxIdBytes = 256;

enum class RequestKind {
  kScore,    // features parsed, ready to submit
  kMetrics,  // !stats command — multi-line metrics exposition
  kReload,   // !reload [PATH] — hot-swap the served model (spe_serve)
  kEmpty,    // blank line — ignore, no response
  kInvalid,  // malformed — respond with `error`
};

struct ServeRequest {
  RequestKind kind = RequestKind::kInvalid;
  bool json = false;
  /// Verbatim "id" token from a JSON request (including quotes for
  /// string ids), echoed back in the response. Empty when absent.
  std::string id;
  std::vector<double> features;
  /// Relative deadline in milliseconds from the JSON "deadline_ms" key;
  /// negative when the request did not set one (the server default, if
  /// any, applies). 0 is valid and means "already due" — useful for
  /// probing the deadline path deterministically.
  double deadline_ms = -1.0;
  /// Artifact path from a `!reload PATH` command; empty for a bare
  /// `!reload`, which re-reads the artifact the server was started on.
  std::string reload_path;
  std::string error;  // human-readable reason when kind == kInvalid
};

/// Parses one request line (no trailing newline). Never throws; a
/// malformed line yields kInvalid with `error` set.
ServeRequest ParseRequestLine(std::string_view line);

/// Response line (no trailing newline) for a scored request. Degraded
/// results are marked with `"degraded":true` in JSON responses; CSV
/// responses stay a bare number (degradation is counted on `!stats`).
std::string FormatScoreResponse(const ServeRequest& request, double proba,
                                bool degraded = false);

/// Error line (no trailing newline) in the shape of the request.
std::string FormatErrorResponse(const ServeRequest& request,
                                std::string_view message);

}  // namespace spe

#endif  // SPE_SERVE_LINE_PROTOCOL_H_
