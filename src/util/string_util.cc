#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace wwt {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || delims.find(s[i]) != std::string_view::npos) {
      if (i > start) out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitTrimmed(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (;;) {
    const size_t at = s.find(sep);
    out.emplace_back(StripWhitespace(s.substr(0, at)));
    if (at == std::string_view::npos) return out;
    s.remove_prefix(at + 1);
  }
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool LooksNumeric(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  size_t i = 0;
  if (s[i] == '+' || s[i] == '-' || s[i] == '$') ++i;
  bool saw_digit = false;
  bool saw_dot = false;
  for (; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (std::isdigit(c)) {
      saw_digit = true;
    } else if (c == ',') {
      continue;  // thousands separator
    } else if (c == '.' && !saw_dot) {
      saw_dot = true;
    } else if (c == '%' && i == s.size() - 1) {
      continue;
    } else {
      return false;
    }
  }
  return saw_digit;
}

double UppercaseRatio(std::string_view s) {
  size_t alpha = 0, upper = 0;
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (std::isalpha(c)) {
      ++alpha;
      if (std::isupper(c)) ++upper;
    }
  }
  return alpha == 0 ? 0.0 : static_cast<double>(upper) / alpha;
}

size_t DamerauLevenshtein(std::string_view a, std::string_view b) {
  const size_t n = a.size(), m = b.size();
  // Three rolling rows: i-2, i-1, i.
  std::vector<size_t> two(m + 1), prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] &&
          a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], two[j - 2] + 1);
      }
    }
    std::swap(two, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool ParseUint(std::string_view s, uint64_t min, uint64_t max,
               uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    // v * 10 + digit > max, asked without overflowing.
    if (v > max / 10 || (v == max / 10 && digit > max % 10)) return false;
    v = v * 10 + digit;
  }
  if (v < min) return false;
  *out = v;
  return true;
}

bool ParseDouble(std::string_view s, double min, double max, double* out) {
  // strtod alone would also take leading space, hex, inf and nan.
  if (s.empty() || s.find_first_not_of("0123456789+-.eE") != s.npos) {
    return false;
  }
  const std::string copy(s);  // strtod wants a terminated string
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || !std::isfinite(v) || v < min ||
      v > max) {
    return false;
  }
  *out = v;
  return true;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

}  // namespace wwt
