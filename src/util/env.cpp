#include "util/env.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace psc::util {

namespace {

const char* lookup(const std::string& name) {
  return std::getenv(name.c_str());
}

}  // namespace

bool env_flag(const std::string& name, bool fallback) {
  const char* raw = lookup(name);
  if (raw == nullptr || *raw == '\0') {
    return fallback;
  }
  std::string value(raw);
  std::transform(value.begin(), value.end(), value.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  return value == "1" || value == "true" || value == "yes" || value == "on";
}

std::size_t env_size(const std::string& name, std::size_t fallback) {
  const char* raw = lookup(name);
  if (raw == nullptr || *raw == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') {
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* raw = lookup(name);
  if (raw == nullptr || *raw == '\0') {
    return fallback;
  }
  return raw;
}

}  // namespace psc::util
