// wire.h — the little-endian integer stores and loads of the HSNP
// snapshot format: the compiler writes through StoreU32/StoreU64, and
// the loader and the lookup path read through ReadU32/ReadU64.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hobbit::serve::wire {

inline void StoreU32(std::byte* p, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((value >> (i * 8)) & 0xFF);
  }
}

inline void StoreU64(std::byte* p, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::byte>((value >> (i * 8)) & 0xFF);
  }
}

// Written out rather than looped so that compilers merge the four byte
// loads into one plain load on little-endian hosts.
inline std::uint32_t ReadU32(const std::byte* p) {
  return std::to_integer<std::uint32_t>(p[0]) |
         std::to_integer<std::uint32_t>(p[1]) << 8 |
         std::to_integer<std::uint32_t>(p[2]) << 16 |
         std::to_integer<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t ReadU64(const std::byte* p) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | std::to_integer<std::uint64_t>(p[i]);
  }
  return value;
}

}  // namespace hobbit::serve::wire
