#include "common/rng.hpp"

#include <cmath>

namespace ccg {

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  CCG_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

int Rng::next_geometric(double lambda) {
  CCG_CHECK(lambda > 0.0 && lambda < 1.0);
  if (lambda == 0.5) return next_geometric_half();
  // Inverse CDF: X = floor(ln U / ln lambda), U uniform in (0,1).
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return static_cast<int>(std::floor(std::log(u) / std::log(lambda)));
}

Rng Rng::split() { return Rng(next_u64() ^ 0xD1B54A32D192ED03ULL); }

Rng stream_rng(std::uint64_t seed, std::uint64_t round,
               std::uint64_t entity) {
  // Three chained SplitMix64 finalizers give full avalanche per key word;
  // the leading constant separates this key space from plain Rng(seed)
  // seeding. mix64 is a bijection, so for a fixed (seed, round) distinct
  // entities can never collide.
  std::uint64_t h = mix64(seed ^ kStreamRngTag);
  h = mix64(h ^ round);
  h = mix64(h ^ entity);
  return Rng(h);
}

std::vector<int> Rng::permutation(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j =
        static_cast<int>(next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

}  // namespace ccg
