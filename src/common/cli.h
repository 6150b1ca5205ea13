// Command-line layer shared by the tools: strict full-string value parsers
// and one option table per tool.  A table entry declares a flag's name,
// value placeholder, help line and value setter once; parse() walks argv
// against the table and usage() prints the help from it.  parse() never
// prints or exits, so tests can drive it directly.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

namespace unimem::cli {

/// Strict full-string signed parse: rejects empty strings, a leading
/// space or '+', trailing garbage ("16x") and values outside [lo, hi] or
/// the type's range — unlike atoi/atol, which accept all of them silently.
/// `out` is left untouched on failure.
inline bool parse_i64(const char* s, long long lo, long long hi,
                      long long* out) {
  if (s == nullptr || !((*s >= '0' && *s <= '9') || *s == '-')) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// Unsigned twin of parse_i64; a leading '-' is rejected too (strtoull
/// would wrap "-1" to 2^64-1).
inline bool parse_u64(const char* s, unsigned long long lo,
                      unsigned long long hi, unsigned long long* out) {
  if (s == nullptr || !(*s >= '0' && *s <= '9')) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// Strict double parse, same rules; NaN and infinities are rejected.
inline bool parse_f64(const char* s, double lo, double hi, double* out) {
  if (s == nullptr || !((*s >= '0' && *s <= '9') || *s == '-' || *s == '.'))
    return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno == ERANGE || *end != '\0' || !std::isfinite(v) || v < lo ||
      v > hi)
    return false;
  *out = v;
  return true;
}

/// Applies one flag: gets the value token (nullptr for a switch) and
/// returns "" or what the flag wants ("wants N >= 1"), which parse()
/// reports as "<flag> <message> (got '<value>')".
using Setter = std::function<std::string(const char*)>;

struct Option {
  std::string name;   ///< "--jobs"; empty = a section heading in usage()
  std::string value;  ///< placeholder ("N"); empty = a switch
  std::string help;   ///< one line; usage() word-wraps it
  Setter set;
  bool forward = false;  ///< re-passed as typed to cmd-launched children
};

struct Table {
  std::string tool;      ///< message prefix, e.g. "unimem_sweep"
  std::string synopsis;  ///< usage lines printed above the options
  std::vector<Option> options;
  /// Takes an argument that does not start with '-'; false (or no
  /// callback) reports it as an unknown option.
  std::function<bool(const char*)> positional;
};

struct Result {
  bool help = false;  ///< "--help" or "-h" was given
  std::string error;  ///< non-empty: what is wrong, without the tool prefix
  /// Tokens of every forward=true flag (name, then value), in argv order.
  std::vector<std::string> forwarded;
};

/// Walks argv[1..argc) against `t`, stopping at "--help"/"-h" or at the
/// first error: an unknown option, a missing value or a setter's complaint.
inline Result parse(const Table& t, int argc, const char* const* argv) {
  Result r;
  for (int i = 1; i < argc && !r.help && r.error.empty(); ++i) {
    const std::string arg = argv[i];
    const auto opt =
        std::find_if(t.options.begin(), t.options.end(),
                     [&](const Option& o) { return o.name == arg; });
    if (arg == "--help" || arg == "-h") {
      r.help = true;
    } else if (arg.empty() || opt == t.options.end()) {
      if (arg.rfind('-', 0) == 0 || !t.positional || !t.positional(argv[i]))
        r.error = "unknown option '" + arg + "'";
    } else if (!opt->value.empty() && i + 1 >= argc) {
      r.error = arg + " needs a value";
    } else {
      const char* v = opt->value.empty() ? nullptr : argv[++i];
      r.error = opt->set(v);
      if (!r.error.empty()) {
        r.error = arg + " " + r.error;
        if (v != nullptr) r.error += " (got '" + std::string(v) + "')";
      } else if (opt->forward) {
        r.forwarded.push_back(arg);
        if (v != nullptr) r.forwarded.push_back(v);
      }
    }
  }
  return r;
}

/// Prints the synopsis, then each option with its help word-wrapped at 79
/// columns beside a column wide enough for the longest "--flag VALUE".
inline void usage(const Table& t, std::FILE* out) {
  std::size_t col = 0;
  for (const Option& o : t.options)
    col = std::max(col, 5 + o.name.size() + o.value.size());
  std::fprintf(out, "%s\n\noptions:\n", t.synopsis.c_str());
  for (const Option& o : t.options) {
    if (o.name.empty()) {
      std::fprintf(out, "\n%s\n", o.help.c_str());
      continue;
    }
    std::string line = "  " + o.name + (o.value.empty() ? "" : " " + o.value);
    line.resize(col, ' ');
    for (std::size_t at = 0, end = 0; at < o.help.size(); at = end + 1) {
      end = std::min(o.help.find(' ', at), o.help.size());
      if (line.size() > col && line.size() + 1 + (end - at) > 79) {
        std::fprintf(out, "%s\n", line.c_str());
        line.assign(col, ' ');
      }
      if (line.size() > col) line += ' ';
      line += o.help.substr(at, end - at);
    }
    std::fprintf(out, "%s\n", line.c_str());
  }
}

/// Reports a command-line error as "<tool>: <error>" plus the usage, on
/// stderr; returns the exit status for it, 1.
inline int reject(const Table& t, const std::string& error) {
  std::fprintf(stderr, "%s: %s\n", t.tool.c_str(), error.c_str());
  usage(t, stderr);
  return 1;
}

// ---- setters for the common value kinds ------------------------------------

inline Setter on(bool* out) {
  return [out](const char*) {
    *out = true;
    return std::string();
  };
}

inline Setter text(std::string* out) {
  return [out](const char* v) {
    *out = v;
    return std::string();
  };
}

/// An int in [lo, hi]; `wants` completes "--flag wants ...".
inline Setter integer(int* out, int lo, int hi, const std::string& wants) {
  return [=](const char* v) {
    long long n = 0;
    if (!parse_i64(v, lo, hi, &n)) return "wants " + wants;
    *out = static_cast<int>(n);
    return std::string();
  };
}

inline Setter count(unsigned long long* out, unsigned long long lo,
                    unsigned long long hi, const std::string& wants) {
  return [=](const char* v) {
    return parse_u64(v, lo, hi, out) ? std::string() : "wants " + wants;
  };
}

inline Setter real(double* out, double lo, double hi,
                   const std::string& wants) {
  return [=](const char* v) {
    return parse_f64(v, lo, hi, out) ? std::string() : "wants " + wants;
  };
}

}  // namespace unimem::cli
