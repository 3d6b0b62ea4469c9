#include "spe/common/parse.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <string>

namespace spe {
namespace {

/// Trims ASCII whitespace. strtoll still needs a NUL-terminated buffer
/// for the integer path, so the copy stays.
std::string Trimmed(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

/// For a number token from_chars flagged out-of-range: true when its
/// decimal exponent says overflow (|x| > DBL_MAX), false for underflow.
/// Out-of-range only happens past ~1e±308, so the sign of the decimal
/// exponent of the leading significant digit is decisive.
bool OutOfRangeIsOverflow(std::string_view token) {
  std::size_t j = 0;
  if (j < token.size() && (token[j] == '+' || token[j] == '-')) ++j;
  long long digit_index = 0;   // digits seen, '.' excluded
  long long point = -1;        // digit_index at which '.' appeared
  long long first_sig = -1;    // digit_index of the first nonzero digit
  for (; j < token.size(); ++j) {
    const char c = token[j];
    if (c == '.') {
      point = digit_index;
      continue;
    }
    if (c < '0' || c > '9') break;  // exponent marker (or token end)
    if (first_sig < 0 && c != '0') first_sig = digit_index;
    ++digit_index;
  }
  if (first_sig < 0) return false;  // 0e±huge is representable anyway
  if (point < 0) point = digit_index;
  long long exp10 = 0;
  if (j < token.size() && (token[j] == 'e' || token[j] == 'E')) {
    ++j;
    bool negative = false;
    if (j < token.size() && (token[j] == '+' || token[j] == '-')) {
      negative = token[j] == '-';
      ++j;
    }
    for (; j < token.size() && token[j] >= '0' && token[j] <= '9'; ++j) {
      if (exp10 < 1'000'000) exp10 = exp10 * 10 + (token[j] - '0');
    }
    if (negative) exp10 = -exp10;
  }
  // Value ~= d.ddd * 10^(point - first_sig - 1 + exp10).
  return point - first_sig - 1 + exp10 >= 0;
}

}  // namespace

std::optional<long long> ParseInt64(std::string_view text) {
  const std::string s = Trimmed(text);
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  // Base 10 only: "0x10" as a flag value is far more likely a typo than
  // intentional hex.
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return std::nullopt;
  return v;
}

std::optional<double> ParseFiniteDouble(std::string_view text) {
  const std::string s = Trimmed(text);
  if (s.empty()) return std::nullopt;
  std::size_t i = 0;
  double v = 0.0;
  bool out_of_range = false;
  if (!ParseDoublePrefix(s, i, &v, &out_of_range) || i != s.size()) {
    return std::nullopt;
  }
  // The strtod path this replaced rejected ERANGE in both directions:
  // overflow (non-finite anyway) and underflow — "1e-400" is not a
  // representable flag value, not zero.
  if (out_of_range || !std::isfinite(v)) return std::nullopt;
  return v;
}

bool ParseDoublePrefix(std::string_view s, std::size_t& i, double* out,
                       bool* out_of_range) {
  if (out_of_range != nullptr) *out_of_range = false;
  if (i >= s.size()) return false;
  const char* const end = s.data() + s.size();
  // from_chars rejects a leading '+' that strtod accepted; skip it and
  // let from_chars refuse whatever follows ("+-1" stays one refusal).
  const char* begin = s.data() + i;
  if (*begin == '+') ++begin;
  double v = 0.0;
  const std::from_chars_result r =
      std::from_chars(begin, end, v, std::chars_format::general);
  if (r.ec == std::errc::result_out_of_range) {
    // from_chars leaves `v` unmodified here; reconstruct strtod's
    // answer from the token it consumed.
    const std::string_view token(begin, static_cast<std::size_t>(r.ptr - begin));
    const double magnitude = OutOfRangeIsOverflow(token) ? HUGE_VAL : 0.0;
    v = !token.empty() && token.front() == '-' ? -magnitude : magnitude;
    if (out_of_range != nullptr) *out_of_range = true;
  } else if (r.ec != std::errc()) {
    return false;
  }
  i = static_cast<std::size_t>(r.ptr - s.data());
  *out = v;
  return true;
}

std::size_t BytesLeft(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) {
    return std::numeric_limits<std::size_t>::max();
  }
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  return end > here ? static_cast<std::size_t>(end - here) : 0;
}

}  // namespace spe
