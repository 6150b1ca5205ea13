// Minimal leveled logging to stderr.  The runtime is a library: it stays
// quiet below the warn threshold unless asked.
//
// Severity is filtered by the UNIMEM_LOG env var (or set_level()):
//   names:   off | error | warn | info | debug
//   numbers: 0=off, 1=info, >=2=debug   (legacy scheme, kept for compat)
// Any other value keeps the default and says so on stderr, so a typo such
// as `warning` cannot silence errors.
// Default is `warn`: operational notes that previously went to stderr
// unconditionally (torn-line drops, worker death) stay visible, but a
// machine consumer can silence them with UNIMEM_LOG=off or keep only
// errors with UNIMEM_LOG=error.  Every line is prefixed with its
// severity ("[unimem:warn] ", ...) so log scrapers can filter.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/cli.h"

namespace unimem {

enum class LogLevel : int {
  kOff = 0,
  kError = 1,
  kWarn = 2,
  kInfo = 3,
  kDebug = 4,
};

class Log {
 public:
  static LogLevel level() { return mutable_level(); }

  static void set_level(LogLevel lvl) { mutable_level() = lvl; }

  /// UNIMEM_LOG's value as a level: one of the five names, or a legacy
  /// number parsed strictly (0 = off, 1 = info, >= 2 = debug).  False, with
  /// `out` untouched, for anything else.
  static bool parse_level(const char* s, LogLevel* out) {
    static constexpr struct {
      const char* name;
      LogLevel level;
    } kNames[] = {{"off", LogLevel::kOff},
                  {"error", LogLevel::kError},
                  {"warn", LogLevel::kWarn},
                  {"info", LogLevel::kInfo},
                  {"debug", LogLevel::kDebug}};
    for (const auto& n : kNames) {
      if (std::strcmp(s, n.name) == 0) {
        *out = n.level;
        return true;
      }
    }
    long long v = 0;
    if (!cli::parse_i64(s, 0, std::numeric_limits<long long>::max(), &v))
      return false;
    *out = v == 0 ? LogLevel::kOff : v == 1 ? LogLevel::kInfo : LogLevel::kDebug;
    return true;
  }

  static bool enabled(LogLevel lvl) {
    return static_cast<int>(mutable_level()) >= static_cast<int>(lvl);
  }

  template <typename... Args>
  static void error(const char* fmt, Args... args) {
    if (enabled(LogLevel::kError)) emit("[unimem:error] ", fmt, args...);
  }

  template <typename... Args>
  static void warn(const char* fmt, Args... args) {
    if (enabled(LogLevel::kWarn)) emit("[unimem:warn] ", fmt, args...);
  }

  template <typename... Args>
  static void info(const char* fmt, Args... args) {
    if (enabled(LogLevel::kInfo)) emit("[unimem] ", fmt, args...);
  }

  template <typename... Args>
  static void debug(const char* fmt, Args... args) {
    if (enabled(LogLevel::kDebug)) emit("[unimem:dbg] ", fmt, args...);
  }

 private:
  static LogLevel& mutable_level() {
    static LogLevel lvl = from_env();
    return lvl;
  }

  static LogLevel from_env() {
    const char* e = std::getenv("UNIMEM_LOG");
    LogLevel lvl = LogLevel::kWarn;
    if (e != nullptr && !parse_level(e, &lvl))
      std::fprintf(stderr,
                   "[unimem:warn] UNIMEM_LOG=\"%s\" is not off|error|warn|"
                   "info|debug or a number >= 0; keeping warn\n",
                   e);
    return lvl;
  }

  template <typename... Args>
  static void emit(const char* prefix, const char* fmt, Args... args) {
    std::fputs(prefix, stderr);
    std::fprintf(stderr, fmt, args...);
    std::fputc('\n', stderr);
  }
};

}  // namespace unimem
