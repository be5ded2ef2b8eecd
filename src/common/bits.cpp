#include "common/bits.hpp"

#include <array>

namespace ccg::bits {

CCG_BITS_CLONED
std::size_t pack_densest_first(const std::uint64_t* row, std::size_t words,
                               std::uint64_t* out_words,
                               std::int32_t* out_index,
                               std::int32_t* out_rest) noexcept {
  // Bucket k holds the words of popcount kWordBits - k; start[k] is its
  // first output slot after the prefix sum.
  std::array<std::int32_t, kWordBits + 1> start{};
  for (std::size_t i = 0; i < words; ++i) {
    if (row[i] != 0) ++start[static_cast<std::size_t>(kWordBits + 1 -
                                                       popcount64(row[i]))];
  }
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  const auto count = static_cast<std::size_t>(start.back());
  for (std::size_t i = 0; i < words; ++i) {
    if (row[i] == 0) continue;
    const auto slot = static_cast<std::size_t>(
        start[static_cast<std::size_t>(kWordBits - popcount64(row[i]))]++);
    out_words[slot] = row[i];
    out_index[slot] = static_cast<std::int32_t>(i);
  }
  std::int32_t rest = 0;
  for (std::size_t i = count; i-- > 0;) {
    rest += popcount64(out_words[i]);
    out_rest[i] = rest;
  }
  return count;
}

CCG_BITS_CLONED
bool and_popcount_at_least(const std::uint64_t* a_words,
                           const std::int32_t* a_index,
                           const std::int32_t* a_rest, std::size_t count,
                           const std::uint64_t* b, int need) noexcept {
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

}  // namespace ccg::bits
