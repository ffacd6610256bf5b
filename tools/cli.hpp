// Command-line reading shared by every tool in tools/: one strict parser, so
// a mistyped gate flag fails loudly instead of switching its gate off.
//
// A tool declares its flags in a Spec: flags that take one value, switches,
// and repeatable value flags. A value is the next argv token taken as is,
// even when it starts with '-', so negative numbers reach the range checks
// and `nsc_client --spawn-arg --net` forwards a flag. Any other token that
// starts with '-' must be a declared flag; the rest are positional
// arguments, up to the number the Spec allows.
//
// Every misuse throws UsageError: an unknown flag, a missing value, a
// non-repeatable flag given twice, an extra positional argument, a number
// that is not the whole token or is out of range, a value outside its
// choices, or a violated combination rule (check()). Each tool reads and
// checks its whole command line before it reads a file or forks a process,
// and answers a UsageError with usage_error(): `usage error: <reason>` on
// stderr and exit code 2. There is no --help and no --flag=value form.
//
// Numbers are parsed here and nowhere else in tools/ (lint INV009).
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace nsc::cli {

/// A malformed command line; tools answer it with usage_error().
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Prints `usage error: <reason>` and returns the usage exit code, 2.
inline int usage_error(const UsageError& e) {
  std::fprintf(stderr, "usage error: %s\n", e.what());
  return 2;
}

/// A condition under which the command line is invalid, and why.
struct Rule {
  bool violated;
  const char* reason;
};

/// Throws UsageError with the reason of the first violated rule.
inline void check(std::initializer_list<Rule> rules) {
  for (const Rule& r : rules) {
    if (r.violated) throw UsageError(r.reason);
  }
}

/// Parses all of `s` with `strto` (errno and end-pointer checked); `kind` and
/// `name` describe the value in the error.
template <typename Strto>
auto parse_whole(std::string_view name, const char* kind, const std::string& s, Strto strto) {
  errno = 0;
  char* end = nullptr;
  const auto v = strto(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') {
    throw UsageError(std::string("invalid ") + kind + " for " + std::string(name) + ": '" + s +
                     "'");
  }
  return v;
}

inline long long parse_int(std::string_view name, const std::string& s) {
  return parse_whole(name, "integer", s,
                     [](const char* p, char** end) { return std::strtoll(p, end, 10); });
}

inline double parse_real(std::string_view name, const std::string& s) {
  return parse_whole(name, "number", s,
                     [](const char* p, char** end) { return std::strtod(p, end); });
}

/// 64-bit hex, optional 0x prefix.
inline std::uint64_t parse_hex64(std::string_view name, const std::string& s) {
  return parse_whole(name, "hex value", s,
                     [](const char* p, char** end) { return std::strtoull(p, end, 16); });
}

/// The flags a tool accepts.
struct Spec {
  std::vector<std::string_view> values{};      ///< Flags that take one value.
  std::vector<std::string_view> switches{};    ///< Flags that take none.
  std::vector<std::string_view> repeatable{};  ///< Value flags that may repeat.
  std::size_t positionals = 0;                 ///< Positional arguments allowed.
};

/// One tool's command line, read against its Spec.
class Args {
 public:
  Args(int argc, char** argv, const Spec& spec) {
    for (const std::string_view f : spec.values) flags_[std::string(f)] = {.takes_value = true};
    for (const std::string_view f : spec.switches) flags_[std::string(f)] = {};
    for (const std::string_view f : spec.repeatable) {
      flags_[std::string(f)] = {.takes_value = true, .repeatable = true};
    }
    for (int i = 1; i < argc; ++i) {
      const std::string tok = argv[i];
      if (tok.empty() || tok[0] != '-') {
        if (positionals_.size() == spec.positionals) {
          throw UsageError("unexpected argument '" + tok + "'");
        }
        positionals_.push_back(tok);
        continue;
      }
      const auto it = flags_.find(tok);
      if (it == flags_.end()) throw UsageError("unknown flag '" + tok + "'");
      Given& g = it->second;
      if (!g.repeatable && !g.values.empty()) throw UsageError(tok + " given more than once");
      if (!g.takes_value) {
        g.values.emplace_back();
      } else if (i + 1 == argc) {
        throw UsageError(tok + " needs a value");
      } else {
        g.values.emplace_back(argv[++i]);
      }
    }
  }

  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// Every value given for `name`, in command-line order.
  [[nodiscard]] const std::vector<std::string>& all(std::string_view name) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      throw std::logic_error("cli: flag " + std::string(name) + " is not in the Spec");
    }
    return it->second.values;
  }

  [[nodiscard]] bool has(std::string_view name) const { return !all(name).empty(); }

  [[nodiscard]] std::string str(std::string_view name, std::string fallback = {}) const {
    if (has(name)) return all(name).front();
    return fallback;
  }

  /// A value that must be one of `choices`.
  [[nodiscard]] std::string choice(std::string_view name, std::string fallback,
                                   std::initializer_list<std::string_view> choices) const {
    std::string v = str(name, std::move(fallback));
    if (std::find(choices.begin(), choices.end(), v) == choices.end()) {
      std::string expected;
      for (const std::string_view c : choices) {
        if (!expected.empty()) expected += '|';
        expected += c;
      }
      throw UsageError("invalid " + std::string(name) + " '" + v + "' (expected " + expected +
                       ")");
    }
    return v;
  }

  /// An integer that fits T and, when given, is at least `lo`.
  template <typename T>
  [[nodiscard]] T integer(std::string_view name, T fallback,
                          std::type_identity_t<T> lo = std::numeric_limits<T>::min()) const {
    if (!has(name)) return fallback;
    const std::string& s = all(name).front();
    const long long v = parse_int(name, s);
    if (std::cmp_less(v, lo)) throw below(name, std::to_string(lo), s);
    if (std::cmp_greater(v, std::numeric_limits<T>::max())) {
      throw UsageError(std::string(name) + " is out of range: '" + s + "'");
    }
    return static_cast<T>(v);
  }

  /// A real number that, when given, is at least `lo`.
  [[nodiscard]] double real(std::string_view name, double fallback,
                            double lo = -std::numeric_limits<double>::infinity()) const {
    if (!has(name)) return fallback;
    const std::string& s = all(name).front();
    const double v = parse_real(name, s);
    if (v < lo) {
      char bound[32];
      std::snprintf(bound, sizeof bound, "%g", lo);
      throw below(name, bound, s);
    }
    return v;
  }

  /// A 64-bit hex value (trace hashes).
  [[nodiscard]] std::uint64_t hex64(std::string_view name, std::uint64_t fallback) const {
    return has(name) ? parse_hex64(name, all(name).front()) : fallback;
  }

 private:
  struct Given {
    bool takes_value = false;
    bool repeatable = false;
    std::vector<std::string> values{};
  };

  static UsageError below(std::string_view name, const std::string& lo, const std::string& s) {
    return UsageError(std::string(name) + " must be >= " + lo + ", got '" + s + "'");
  }

  std::map<std::string, Given, std::less<>> flags_;
  std::vector<std::string> positionals_;
};

}  // namespace nsc::cli
