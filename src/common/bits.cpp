#include "common/bits.hpp"

namespace ccg::bits {

// The clones dispatch through an ifunc resolver, which runs during
// relocation, before a sanitizer runtime is up. ThreadSanitizer
// instruments the resolver and crashes there, so TSan builds take the
// plain definition.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CCG_BITS_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define CCG_BITS_TSAN 1
#endif

#if CCG_BITS_HAVE_BUILTINS && defined(__x86_64__) && !defined(CCG_BITS_TSAN)
__attribute__((target_clones("popcnt", "default")))
#endif
int and_popcount(const std::uint64_t* a_words, const std::int32_t* a_index,
                 std::size_t count, const std::uint64_t* b) noexcept {
  int n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    n += popcount64(a_words[i] & b[a_index[i]]);
  }
  return n;
}

}  // namespace ccg::bits
