// Bit-manipulation helpers shared by the ISA layer, the simulator and the
// snapshot machinery. Everything here is header-only.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace specure::util {

/// Mask with the low `width` bits set. width must be in [0, 64].
constexpr std::uint64_t mask(unsigned width) {
  return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
}

/// Extract bits [lo, lo+width) of v.
constexpr std::uint64_t bits(std::uint64_t v, unsigned lo, unsigned width) {
  return (v >> lo) & mask(width);
}

/// Extract a single bit.
constexpr std::uint64_t bit(std::uint64_t v, unsigned pos) {
  return (v >> pos) & 1ULL;
}

/// Sign-extend the low `width` bits of v to 64 bits.
constexpr std::int64_t sext(std::uint64_t v, unsigned width) {
  if (width == 0 || width >= 64) return static_cast<std::int64_t>(v);
  const std::uint64_t sign = 1ULL << (width - 1);
  const std::uint64_t low = v & mask(width);
  return static_cast<std::int64_t>((low ^ sign) - sign);
}

/// Population count of the XOR of two words — number of toggled bits.
constexpr unsigned toggled_bits(std::uint64_t a, std::uint64_t b) {
  return static_cast<unsigned>(__builtin_popcountll(a ^ b));
}

/// Round v up to the next power of two (v=0 -> 1).
constexpr std::uint64_t next_pow2(std::uint64_t v) {
  if (v <= 1) return 1;
  return 1ULL << (64 - __builtin_clzll(v - 1));
}

/// log2 of a power of two.
constexpr unsigned log2_exact(std::uint64_t v) {
  return static_cast<unsigned>(__builtin_ctzll(v));
}

/// Call fn(index) for every set bit of a word bitset (bit i lives at
/// words[i / 64] bit i % 64), in ascending index order.
template <typename Fn>
void for_each_set_bit(std::span<const std::uint64_t> words, Fn&& fn) {
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace specure::util
