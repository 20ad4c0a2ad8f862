// wire.h — little-endian byte packing shared by the snapshot and patch
// compilers.  Kept out of snapshot.h so the two binary formats (HSNP
// snapshots, HSPT patches) provably serialize integers the same way —
// the delta path's byte-identity contract rests on both sides funnelling
// through these four functions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hobbit::serve::wire {

inline void AppendU32(std::vector<std::byte>& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::byte>((value >> shift) & 0xFF));
  }
}

inline void AppendU64(std::vector<std::byte>& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::byte>((value >> shift) & 0xFF));
  }
}

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

/// Zero bytes needed to realign `n` to a 4-byte boundary.
inline std::size_t PadTo4(std::size_t n) { return (4 - n % 4) % 4; }

}  // namespace hobbit::serve::wire
