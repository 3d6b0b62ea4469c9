#include "spe/serve/line_protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "spe/common/parse.h"

namespace spe {
namespace {

void SkipSpace(std::string_view s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

bool ParseNumber(std::string_view s, std::size_t& i, double* out) {
  // ParseDoublePrefix parses in place (no NUL-terminated copy) and is
  // locale-independent — strtod here would read "0,5" as 0.5 under a
  // decimal-comma locale and desynchronize the whole CSV line.
  // Non-finite values still parse; the callers reject them with the
  // dedicated taxonomy message.
  return ParseDoublePrefix(s, i, out);
}

ServeRequest Invalid(std::string message, bool json) {
  ServeRequest r;
  r.kind = RequestKind::kInvalid;
  r.json = json;
  r.error = std::move(message);
  return r;
}

// Consumes a JSON string literal starting at s[i] == '"', returning the
// verbatim token (quotes included). Handles backslash escapes only well
// enough to find the closing quote.
bool ParseStringToken(std::string_view s, std::size_t& i, std::string* out) {
  if (i >= s.size() || s[i] != '"') return false;
  const std::size_t start = i++;
  while (i < s.size()) {
    if (s[i] == '\\') {
      i += 2;
    } else if (s[i] == '"') {
      ++i;
      *out = std::string(s.substr(start, i - start));
      return true;
    } else {
      ++i;
    }
  }
  return false;
}

ServeRequest ParseJson(std::string_view s) {
  ServeRequest r;
  r.kind = RequestKind::kScore;
  r.json = true;
  std::size_t i = 0;
  SkipSpace(s, i);
  if (i >= s.size() || s[i] != '{') return Invalid("expected '{'", true);
  ++i;
  bool have_features = false;
  while (true) {
    SkipSpace(s, i);
    if (i < s.size() && s[i] == '}') break;
    std::string key;
    if (!ParseStringToken(s, i, &key)) {
      return Invalid("expected object key", true);
    }
    SkipSpace(s, i);
    if (i >= s.size() || s[i] != ':') return Invalid("expected ':'", true);
    ++i;
    SkipSpace(s, i);
    if (key == "\"features\"") {
      if (i >= s.size() || s[i] != '[') {
        return Invalid("\"features\" must be an array", true);
      }
      ++i;
      SkipSpace(s, i);
      if (i < s.size() && s[i] == ']') {
        ++i;
      } else {
        while (true) {
          double v = 0.0;
          if (!ParseNumber(s, i, &v)) {
            return Invalid("bad number in \"features\"", true);
          }
          if (!std::isfinite(v)) {
            return Invalid("non-finite value in \"features\"", true);
          }
          r.features.push_back(v);
          SkipSpace(s, i);
          if (i < s.size() && s[i] == ',') {
            ++i;
            SkipSpace(s, i);
            continue;
          }
          if (i < s.size() && s[i] == ']') {
            ++i;
            break;
          }
          return Invalid("expected ',' or ']' in \"features\"", true);
        }
      }
      have_features = true;
    } else if (key == "\"deadline_ms\"") {
      double v = 0.0;
      if (!ParseNumber(s, i, &v) || !std::isfinite(v) || v < 0.0) {
        return Invalid("\"deadline_ms\" must be a non-negative number", true);
      }
      r.deadline_ms = v;
    } else {
      // Any other key (notably "id"): accept a string or number scalar
      // and, for "id", remember the verbatim token.
      std::string token;
      if (i < s.size() && s[i] == '"') {
        if (!ParseStringToken(s, i, &token)) {
          return Invalid("unterminated string", true);
        }
      } else {
        double v = 0.0;
        const std::size_t start = i;
        if (!ParseNumber(s, i, &v)) {
          return Invalid("unsupported value for key " + key, true);
        }
        token = std::string(s.substr(start, i - start));
      }
      if (key == "\"id\"") {
        if (token.size() > kMaxIdBytes) {
          return Invalid("\"id\" longer than " +
                             std::to_string(kMaxIdBytes) + " bytes",
                         true);
        }
        r.id = std::move(token);
      }
    }
    SkipSpace(s, i);
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    if (i < s.size() && s[i] == '}') break;
    return Invalid("expected ',' or '}'", true);
  }
  if (!have_features) return Invalid("missing \"features\"", true);
  return r;
}

ServeRequest ParseCsv(std::string_view s) {
  ServeRequest r;
  r.kind = RequestKind::kScore;
  r.json = false;
  std::size_t i = 0;
  while (true) {
    SkipSpace(s, i);
    double v = 0.0;
    if (!ParseNumber(s, i, &v)) {
      return Invalid("bad number at column " +
                         std::to_string(r.features.size() + 1),
                     false);
    }
    if (!std::isfinite(v)) {
      return Invalid("non-finite value at column " +
                         std::to_string(r.features.size() + 1),
                     false);
    }
    r.features.push_back(v);
    SkipSpace(s, i);
    if (i >= s.size()) break;
    if (s[i] != ',') return Invalid("expected ','", false);
    ++i;
  }
  return r;
}

}  // namespace

ServeRequest ParseRequestLine(std::string_view line) {
  if (line.size() > kMaxRequestLineBytes) {
    // Shape unknown (we refuse to scan a hostile line); answer in CSV
    // shape, the protocol's default.
    return Invalid("request line exceeds " +
                       std::to_string(kMaxRequestLineBytes) + " bytes",
                   false);
  }
  std::size_t i = 0;
  SkipSpace(line, i);
  if (i >= line.size()) {
    ServeRequest r;
    r.kind = RequestKind::kEmpty;
    return r;
  }
  if (line.substr(i) == "!stats") {
    ServeRequest r;
    r.kind = RequestKind::kMetrics;
    return r;
  }
  if (line.substr(i) == "!reload" || line.substr(i, 8) == "!reload ") {
    ServeRequest r;
    r.kind = RequestKind::kReload;
    std::size_t p = i + 7;
    SkipSpace(line, p);
    std::size_t end = line.size();
    while (end > p &&
           std::isspace(static_cast<unsigned char>(line[end - 1]))) {
      --end;
    }
    r.reload_path = std::string(line.substr(p, end - p));
    return r;
  }
  return line[i] == '{' ? ParseJson(line.substr(i)) : ParseCsv(line.substr(i));
}

std::string FormatScoreResponse(const ServeRequest& request, double proba,
                                bool degraded) {
  char num[40];
  std::snprintf(num, sizeof(num), "%.17g", proba);
  if (!request.json) return num;
  std::string out = "{";
  if (!request.id.empty()) {
    out += "\"id\":";
    out += request.id;
    out += ',';
  }
  out += "\"proba\":";
  out += num;
  if (degraded) out += ",\"degraded\":true";
  out += '}';
  return out;
}

std::string FormatErrorResponse(const ServeRequest& request,
                                std::string_view message) {
  if (!request.json) return "ERR " + std::string(message);
  std::string out = "{";
  if (!request.id.empty()) {
    out += "\"id\":";
    out += request.id;
    out += ',';
  }
  out += "\"error\":\"";
  // The messages this server produces contain no quotes or backslashes,
  // but escape defensively so a hostile id echoed in `message` cannot
  // break the JSON framing.
  for (char c : message) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\"}";
  return out;
}

}  // namespace spe
