// popcount.h — the bit count of a 64-bit word, without a library call.
//
// The build targets baseline x86-64, which has no POPCNT instruction, so
// std::popcount compiles to a call into libgcc's __popcountdi2.  This
// SWAR fold is a handful of shifts, masks and one multiply, inlined at
// every use.  The scan bitmaps (probing/zmap.h) and the snapshot
// compiler's key rank count bits through here.
#pragma once

#include <cstdint>

namespace hobbit::common {

/// The number of set bits in `x`; equal to std::popcount(x).
constexpr int Popcount(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace hobbit::common
