// Portable single-word bit primitives for the palette layer.
//
// The word-parallel color sets (color/color_set.hpp) reduce every
// free-color scan to ctz/popcount over 64-bit words. GCC and clang map
// these to single instructions via __builtin_ctzll/__builtin_popcountll;
// other compilers (or -DCCG_BITS_FORCE_FALLBACK for testing) get the
// plain-loop fallbacks below. The fallbacks are always compiled and unit
// tested against the builtin path so they cannot rot.
//
// One multi-word kernel lives out of line in bits.cpp: and_popcount, the
// exact |A ∩ B| of two bitsets that ComputeACD's oracle buddy count runs
// on every high-high edge.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ccg::bits {

inline constexpr int kWordBits = 64;

// Plain-loop implementations. Correct on every conforming compiler; the
// wrappers below select them when no intrinsic is available.
namespace fallback {

constexpr int popcount64(std::uint64_t x) noexcept {
  int n = 0;
  while (x != 0) {
    x &= x - 1;  // clear lowest set bit
    ++n;
  }
  return n;
}

// Index of the lowest set bit; kWordBits when x == 0 (so callers can use
// the result as "no bit in this word" without a pre-check).
constexpr int ctz64(std::uint64_t x) noexcept {
  if (x == 0) return kWordBits;
  int n = 0;
  while ((x & 1u) == 0) {
    x >>= 1;
    ++n;
  }
  return n;
}

// See the dispatching and_popcount below.
constexpr int and_popcount(const std::uint64_t* a_words,
                           const std::int32_t* a_index, std::size_t count,
                           const std::uint64_t* b) noexcept {
  int n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    n += popcount64(a_words[i] & b[a_index[i]]);
  }
  return n;
}

}  // namespace fallback

#if !defined(CCG_BITS_FORCE_FALLBACK) && \
    (defined(__GNUC__) || defined(__clang__))
#define CCG_BITS_HAVE_BUILTINS 1
#else
#define CCG_BITS_HAVE_BUILTINS 0
#endif

// Number of set bits in x.
constexpr int popcount64(std::uint64_t x) noexcept {
#if CCG_BITS_HAVE_BUILTINS
  return __builtin_popcountll(x);
#else
  return fallback::popcount64(x);
#endif
}

// Index of the lowest set bit; kWordBits when x == 0. (__builtin_ctzll
// is undefined at 0, so the zero case is handled before dispatch.)
constexpr int ctz64(std::uint64_t x) noexcept {
  if (x == 0) return kWordBits;
#if CCG_BITS_HAVE_BUILTINS
  return __builtin_ctzll(x);
#else
  return fallback::ctz64(x);
#endif
}

// 1-based find-first-set (POSIX ffs convention): 0 when x == 0.
constexpr int ffs64(std::uint64_t x) noexcept {
  return x == 0 ? 0 : ctz64(x) + 1;
}

// |A ∩ B| for two bitsets: A packed as its nonzero words (a_words[i] is
// word a_index[i] of A, count of them), B as a plain word array. Only A's
// nonzero words are read, so a row whose set bits cluster in a few words
// costs those few words. On x86-64 GCC/clang the definition is cloned for
// the popcnt instruction and picked at load time (except under
// ThreadSanitizer, see bits.cpp), so builds at plain -O2 (no -mpopcnt) do
// not pay a libgcc call per word.
int and_popcount(const std::uint64_t* a_words, const std::int32_t* a_index,
                 std::size_t count, const std::uint64_t* b) noexcept;

}  // namespace ccg::bits
