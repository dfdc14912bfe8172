// Strict integer arguments for the example CLIs. A count, seed or id on
// the command line must be a decimal integer, all of the argument and in
// range: `abc`, `-1` and `12x` are usage errors (exit 2), never a silent
// 0 or a default.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>

namespace psc::cli {

// A malformed command line: the example prints the message and exits 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

// A decimal count or id, all of `s` and at most `max`; anything else
// (empty, a sign, non-digits, trailing characters, out of range) is a
// UsageError naming `what`.
inline std::uint64_t parse_u64(
    const std::string& what, const std::string& s,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || end != s.data() + s.size() || value > max) {
    throw UsageError(what + " wants an integer in [0, " + std::to_string(max) +
                     "], got '" + s + "'");
  }
  return value;
}

inline std::uint32_t parse_u32(const std::string& what, const std::string& s) {
  return static_cast<std::uint32_t>(
      parse_u64(what, s, std::numeric_limits<std::uint32_t>::max()));
}

// Positional argument argv[index] as a count when present, else
// `fallback`. A malformed count prints a usage error and exits 2.
inline std::uint64_t positional_u64(int argc, char** argv, int index,
                                    const std::string& what,
                                    std::uint64_t fallback) {
  if (index >= argc) {
    return fallback;
  }
  try {
    return parse_u64(what, argv[index]);
  } catch (const UsageError& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace psc::cli
