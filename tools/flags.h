// Strict numeric flag values shared by gdlog_cli, gdlogd and gdlog_load.
//
// A numeric flag takes a plain decimal count: no sign, no surrounding
// characters, no overflow past the flag's maximum. Anything else is a
// usage error (exit 2), so "--cache-mb 1O" or "--port 80x" never runs as
// 1 or 80.
#ifndef GDLOG_TOOLS_FLAGS_H_
#define GDLOG_TOOLS_FLAGS_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace gdlog_tools {

class FlagReader {
 public:
  /// `usage` prints its message and the tool's usage and exits 2.
  using UsageFn = void (*)(const char* argv0, const char* error);

  FlagReader(int argc, char** argv, UsageFn usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// The value following flag argv[i]; advances i past it.
  const char* Value(int& i) const {
    if (i + 1 >= argc_) Fail("missing argument value");
    return argv_[++i];
  }

  /// A decimal count in [0, max].
  uint64_t Count(int& i,
                 uint64_t max = std::numeric_limits<uint64_t>::max()) const {
    const char* flag = argv_[i];
    const char* text = Value(i);
    const char* end = text + std::strlen(text);
    uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec == std::errc() && ptr == end && value <= max) return value;
    Fail(std::string(flag) + " expects an integer in [0, " +
         std::to_string(max) + "], got '" + text + "'");
  }

  /// A size in MiB whose byte count fits size_t.
  size_t MiB(int& i) const {
    return static_cast<size_t>(
               Count(i, std::numeric_limits<size_t>::max() >> 20))
           << 20;
  }

  /// A TCP port in [0, 65535].
  int Port(int& i) const { return static_cast<int>(Count(i, 65535)); }

  /// A non-negative int (timeouts and deadlines in ms).
  int Int(int& i) const {
    return static_cast<int>(Count(i, std::numeric_limits<int>::max()));
  }

 private:
  [[noreturn]] void Fail(const std::string& error) const {
    usage_(argv_[0], error.c_str());
    std::exit(2);
  }

  int argc_;
  char** argv_;
  UsageFn usage_;
};

}  // namespace gdlog_tools

#endif  // GDLOG_TOOLS_FLAGS_H_
