// Strict full-string numeric parsing shared by every command-line /
// job-line surface (the job-line parser in src/svc/jobspec.cpp and the
// CLIs' own flags in examples/).
//
// "Strict" means the whole token must parse — trailing junk ("12abc"),
// empty strings, and out-of-range values all yield nullopt instead of
// the silent-prefix semantics of raw std::stoi. Callers map nullopt to
// their own error type (usage message, ManifestError, ...).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace ccg {

inline std::optional<std::int64_t> parse_i64_strict(const std::string& s) {
  try {
    std::size_t pos = 0;
    const long long x = std::stoll(s, &pos);
    if (pos != s.size()) return std::nullopt;
    return static_cast<std::int64_t>(x);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

inline std::optional<int> parse_int_strict(const std::string& s) {
  const auto x = parse_i64_strict(s);
  if (!x || *x < INT32_MIN || *x > INT32_MAX) return std::nullopt;
  return static_cast<int>(*x);
}

// Rejects negative input outright (stoull would happily wrap "-3").
inline std::optional<std::uint64_t> parse_u64_strict(const std::string& s) {
  if (s.empty() || s.front() == '-') return std::nullopt;
  try {
    std::size_t pos = 0;
    const unsigned long long x = std::stoull(s, &pos);
    if (pos != s.size()) return std::nullopt;
    return static_cast<std::uint64_t>(x);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

inline std::optional<double> parse_double_strict(const std::string& s) {
  try {
    std::size_t pos = 0;
    const double x = std::stod(s, &pos);
    if (pos != s.size()) return std::nullopt;
    return x;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace ccg
