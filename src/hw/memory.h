// Byte-size literals (1_KiB = 1024 bytes).
#pragma once

#include <cstdint>

namespace hpcos::hw {

inline constexpr std::uint64_t operator""_KiB(unsigned long long v) {
  return v * 1024ull;
}
inline constexpr std::uint64_t operator""_MiB(unsigned long long v) {
  return v * 1024ull * 1024ull;
}
inline constexpr std::uint64_t operator""_GiB(unsigned long long v) {
  return v * 1024ull * 1024ull * 1024ull;
}

}  // namespace hpcos::hw
