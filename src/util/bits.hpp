// Bit-manipulation helpers shared by the crossbar and router implementations.
#pragma once

#include <bit>
#include <cstdint>

namespace nsc::util {

/// Number of set bits in a 64-bit word.
///
/// On x86-64 built without -mpopcnt, std::popcount lowers to a libgcc call
/// (__popcountdi2); the synaptic hot path issues one popcount per crossbar
/// word, so the call overhead is measurable. The SWAR reduction below inlines
/// to ~12 data ops. Targets with a native instruction keep std::popcount.
[[nodiscard]] constexpr int popcount64(std::uint64_t w) noexcept {
#if defined(__x86_64__) && !defined(__POPCNT__)
  w -= (w >> 1) & 0x5555555555555555ULL;
  w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
  w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((w * 0x0101010101010101ULL) >> 56);
#else
  return std::popcount(w);
#endif
}

/// Index of the lowest set bit; undefined for w == 0.
[[nodiscard]] constexpr int lowest_set(std::uint64_t w) noexcept { return std::countr_zero(w); }

/// Clears the lowest set bit of `w` and returns the new value.
[[nodiscard]] constexpr std::uint64_t clear_lowest(std::uint64_t w) noexcept { return w & (w - 1); }

/// Integer ceiling division.
template <typename T>
[[nodiscard]] constexpr T ceil_div(T a, T b) noexcept {
  return (a + b - 1) / b;
}

}  // namespace nsc::util
