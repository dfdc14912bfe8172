// Environment-variable readers for the library's runtime knobs:
// PSC_SIMD (util/simd.h), PSC_NO_MMAP (store/shared_mapping.h) and
// PSC_BUS_CHUNK_CACHE_MB (bus/daemon.h).
#pragma once

#include <cstddef>
#include <string>

namespace psc::util {

// True when `name` is set to a truthy value ("1", "true", "yes", "on";
// case-insensitive); `fallback` when unset or empty.
bool env_flag(const std::string& name, bool fallback = false);

// Parses `name` as a non-negative integer; `fallback` when unset/invalid.
std::size_t env_size(const std::string& name, std::size_t fallback);

// Raw string value of `name`; `fallback` when unset or empty.
std::string env_string(const std::string& name, const std::string& fallback);

}  // namespace psc::util
