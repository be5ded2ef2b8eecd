// Portable single-word bit primitives for the palette layer.
//
// The word-parallel color sets (color/color_set.hpp) reduce every
// free-color scan to ctz/popcount over 64-bit words. GCC and clang map
// these to single instructions via __builtin_ctzll/__builtin_popcountll;
// other compilers (or -DCCG_BITS_FORCE_FALLBACK for testing) get the
// plain-loop fallbacks below. The fallbacks are always compiled and unit
// tested against the builtin path so they cannot rot.
//
// Two multi-word kernels live out of line in bits.cpp, both for the exact
// buddy predicate of ComputeACD's oracle: pack_densest_first packs a
// bitset row once, and and_popcount_at_least decides |A ∩ B| >= need from
// the packed row's densest words on every high-high edge.
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

// See the dispatching and_popcount_at_least below.
constexpr bool and_popcount_at_least(const std::uint64_t* a_words,
                                     const std::int32_t* a_index,
                                     const std::int32_t* a_rest,
                                     std::size_t count,
                                     const std::uint64_t* b,
                                     int need) noexcept {
  int n = 0;
  for (std::size_t i = 0; i < count; i += 4) {
    if (n >= need) return true;
    if (n + a_rest[i] < need) return false;
    const std::size_t end = count - i < 4 ? count : i + 4;
    for (std::size_t j = i; j < end; ++j) {
      n += popcount64(a_words[j] & b[a_index[j]]);
    }
  }
  return n >= need;
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

// Packs the nonzero words of row[0, words) densest first: out_words[i] is
// word out_index[i] of the row, ordered by popcount descending (ties by
// word index), and out_rest[i] is the popcount of out_words[i, count).
// Returns count. A counting sort on popcount: allocation-free, and each
// output array must hold `words` entries. On x86-64 GCC/clang the
// definition is cloned for the popcnt instruction and picked at load time
// (except under ThreadSanitizer, see bits.cpp), so builds at plain -O2 (no
// -mpopcnt) do not pay a libgcc call per word.
std::size_t pack_densest_first(const std::uint64_t* row, std::size_t words,
                               std::uint64_t* out_words,
                               std::int32_t* out_index,
                               std::int32_t* out_rest) noexcept;

// Exactly |A ∩ B| >= need, for A packed by pack_densest_first (a_words[i]
// is word a_index[i] of A, a_rest the suffix popcounts, count words) and B
// a plain word array. Checks after every 4 words: true once the running
// count reaches need, false once the count plus a_rest of the unread
// words falls short. Dense words come first, so most calls decide within
// a few words. Cloned like pack_densest_first.
bool and_popcount_at_least(const std::uint64_t* a_words,
                           const std::int32_t* a_index,
                           const std::int32_t* a_rest, std::size_t count,
                           const std::uint64_t* b, int need) noexcept;

}  // namespace ccg::bits
