#ifndef SPE_COMMON_PARSE_H_
#define SPE_COMMON_PARSE_H_

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>

namespace spe {

/// Strict numeric parsing for untrusted text (command-line flags, env
/// specs). Unlike atoi/atol/strtod-with-defaults, these reject partial
/// parses ("12abc"), empty strings, surrounding garbage, and values the
/// target type cannot represent — nullopt means "not a number", so the
/// caller owns the error message. Leading/trailing ASCII whitespace is
/// accepted; anything else is not.

/// Whole-string signed integer. Rejects overflow (beyond long long),
/// hex/octal prefixes, and trailing junk.
std::optional<long long> ParseInt64(std::string_view text);

/// Whole-string finite double. Rejects "nan"/"inf" (a flag or fault
/// rate is never usefully non-finite), values outside double's range in
/// either direction ("1e999" and "1e-400" alike, matching strtod's
/// ERANGE policing), and trailing junk.
std::optional<double> ParseFiniteDouble(std::string_view text);

/// Parses the longest strtod-style number starting at s[i] — optional
/// sign, decimal or scientific notation, "inf"/"nan" spellings; no hex
/// floats — and advances i past it. Built on std::from_chars, so the
/// result is identical under every locale (strtod honors the locale's
/// decimal separator, which breaks the wire protocol under a
/// decimal-comma locale). strtod's range semantics are preserved:
/// overflow yields ±infinity, underflow ±0.0, so callers keep their
/// existing finite-value policing; `out_of_range`, when non-null, is
/// set when either happened (strtod's ERANGE) for callers that also
/// policed errno. Returns false (i untouched) when no number starts at
/// i. Non-finite results are deliberately NOT rejected here — the
/// serve protocol wants to distinguish "not a number" from "a
/// non-finite number" in its error taxonomy.
bool ParseDoublePrefix(std::string_view s, std::size_t& i, double* out,
                       bool* out_of_range = nullptr);

/// Thrown by the model payload readers (each model's LoadModel, behind
/// spe/io/model_io.h) on bytes that do not describe a model this library
/// could have written. The bundle decoder turns it into a kMalformed
/// refusal; the aborting library loaders turn it into an abort.
class MalformedPayload : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws MalformedPayload(message) unless `ok`.
inline void PayloadCheck(bool ok, const char* message) {
  if (!ok) throw MalformedPayload(message);
}

/// Bytes from the read position of `is` to its end: the bound a payload
/// reader puts on a count before anything is sized from it. A stream
/// that cannot report its position is unbounded.
std::size_t BytesLeft(std::istream& is);

/// The row width a payload is read against when its container records
/// none (checkpoint member logs): split features and weight vectors are
/// then not checked against a width.
inline constexpr std::size_t kAnyWidth = std::numeric_limits<std::size_t>::max();

}  // namespace spe

#endif  // SPE_COMMON_PARSE_H_
