// Portable single-word bit primitives for the palette layer.
//
// The word-parallel color sets (color/color_set.hpp) reduce every
// free-color scan to ctz/popcount over 64-bit words. GCC and clang map
// these to single instructions via __builtin_ctzll/__builtin_popcountll;
// other compilers (or -DCCG_BITS_FORCE_FALLBACK for testing) get the
// plain-loop fallbacks below. The fallbacks are always compiled and unit
// tested against the builtin path so they cannot rot.
//
// The multi-word helpers serve the exact buddy predicate of ComputeACD's
// oracle. densest_four picks a bitset row's four densest words once, and
// densest_four_decide settles |A ∩ B| >= need from them on each high-high
// edge, inline in the caller. The edges they leave open go to two kernels
// out of line in bits.cpp: pack_densest_first packs the whole row, and
// and_popcount_at_least decides from the packed row's densest words.
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

// On x86-64 GCC/clang, CCG_BITS_CLONED compiles a definition twice, for
// the popcnt instruction and for the baseline ISA, and picks one at load
// time through an ifunc. Builds at plain -O2 (no -mpopcnt) would otherwise
// pay a libgcc call per popcount64. The ifunc resolver runs during
// relocation, before a sanitizer runtime is up; ThreadSanitizer instruments
// it and crashes there, so TSan builds take the plain definition.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CCG_BITS_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define CCG_BITS_TSAN 1
#endif

#if CCG_BITS_HAVE_BUILTINS && defined(__x86_64__) && !defined(CCG_BITS_TSAN)
#define CCG_BITS_CLONED __attribute__((target_clones("popcnt", "default")))
#else
#define CCG_BITS_CLONED
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

// The four densest words of a bitset row: word[k] is word index[k] of the
// row, by popcount descending, ties by word index, so they are the first
// four entries of pack_densest_first. A row with fewer nonzero words pads
// with zero words at index 0. rest is the popcount of the other words.
struct DensestFour {
  std::uint64_t word[4];
  std::int32_t index[4];
  int rest;
};

// One scan of row[0, words), words >= 1.
constexpr DensestFour densest_four(const std::uint64_t* row,
                                   std::size_t words) noexcept {
  DensestFour top{};
  int pc[4] = {};
  int total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    const int p = popcount64(row[i]);
    total += p;
    if (p <= pc[3]) continue;  // an equal count keeps the lower index
    int k = 3;
    for (; k > 0 && pc[k - 1] < p; --k) {
      pc[k] = pc[k - 1];
      top.word[k] = top.word[k - 1];
      top.index[k] = top.index[k - 1];
    }
    pc[k] = p;
    top.word[k] = row[i];
    top.index[k] = static_cast<std::int32_t>(i);
  }
  top.rest = total - pc[0] - pc[1] - pc[2] - pc[3];
  return top;
}

// Whether |A ∩ B| >= need, from A's four densest words and B a plain word
// array: 1 when they already reach need, 0 when even all of A's other
// bits could not, -1 when the four words leave it open.
constexpr int densest_four_decide(const DensestFour& a,
                                  const std::uint64_t* b,
                                  int need) noexcept {
  const int n = popcount64(a.word[0] & b[a.index[0]]) +
                popcount64(a.word[1] & b[a.index[1]]) +
                popcount64(a.word[2] & b[a.index[2]]) +
                popcount64(a.word[3] & b[a.index[3]]);
  if (n >= need) return 1;
  if (n + a.rest < need) return 0;
  return -1;
}

// Packs the nonzero words of row[0, words) densest first: out_words[i] is
// word out_index[i] of the row, ordered by popcount descending (ties by
// word index), and out_rest[i] is the popcount of out_words[i, count).
// Returns count. A counting sort on popcount: allocation-free, and each
// output array must hold `words` entries. Cloned (CCG_BITS_CLONED).
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
