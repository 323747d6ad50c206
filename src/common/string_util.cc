#include "common/string_util.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace fastod {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         (s[begin] == ' ' || s[begin] == '\t' || s[begin] == '\r' ||
          s[begin] == '\n')) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         (s[end - 1] == ' ' || s[end - 1] == '\t' || s[end - 1] == '\r' ||
          s[end - 1] == '\n')) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::optional<int64_t> ParseInt(std::string_view s) {
  s = Trim(s);
  if (s.empty() || s.size() > 20) return std::nullopt;
  // Fast path for the common shape, [+-]?[0-9]{1,18}: it cannot overflow
  // and strtoll would accept it with exactly this value.
  size_t sign = (s[0] == '+' || s[0] == '-') ? 1 : 0;
  if (s.size() > sign && s.size() - sign <= 18) {
    int64_t v = 0;
    size_t i = sign;
    for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
      v = v * 10 + (s[i] - '0');
    }
    if (i == s.size()) return s[0] == '-' ? -v : v;
  }
  char buf[24];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return std::nullopt;
  return static_cast<int64_t>(v);
}

std::optional<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty() || s.size() > 48) return std::nullopt;
  char buf[52];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + s.size()) return std::nullopt;
  return v;
}

}  // namespace fastod
