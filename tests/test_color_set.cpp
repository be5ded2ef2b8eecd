// Property tests for the word-parallel palette layer: common/bits.hpp
// single-word primitives (builtin path vs the always-compiled plain-loop
// fallback) and color/color_set.hpp against a bool-vector reference model
// at word-boundary universe sizes. A pipeline sweep rides along so the
// TSan CI job (CCG_TEST_THREADS=4) exercises every ColorSet consumer on
// the parallel round engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <vector>

#include "cluster/validate.hpp"
#include "color/clique_palette.hpp"
#include "color/color_set.hpp"
#include "common/bits.hpp"
#include "helpers.hpp"

namespace ccg {
namespace {

// ---- bits.hpp: fallback vs builtin dispatch ----

// Both paths are constexpr; pin the contract at compile time.
static_assert(bits::popcount64(0) == 0);
static_assert(bits::popcount64(~std::uint64_t{0}) == 64);
static_assert(bits::ctz64(0) == bits::kWordBits);
static_assert(bits::ctz64(std::uint64_t{1} << 63) == 63);
static_assert(bits::ffs64(0) == 0);
static_assert(bits::ffs64(std::uint64_t{1} << 63) == 64);
static_assert(bits::fallback::popcount64(0x5555555555555555ull) == 32);
static_assert(bits::fallback::ctz64(0x80ull) == 7);

TEST(Bits, FallbackMatchesDispatchOnEdgePatterns) {
  const std::uint64_t patterns[] = {
      0,
      1,
      2,
      std::uint64_t{1} << 31,
      std::uint64_t{1} << 32,
      std::uint64_t{1} << 63,
      ~std::uint64_t{0},
      ~std::uint64_t{0} - 1,
      0x5555555555555555ull,
      0xAAAAAAAAAAAAAAAAull,
      0x8000000000000001ull,
  };
  for (const std::uint64_t x : patterns) {
    EXPECT_EQ(bits::fallback::popcount64(x), bits::popcount64(x)) << x;
    EXPECT_EQ(bits::fallback::ctz64(x), bits::ctz64(x)) << x;
  }
}

TEST(Bits, FallbackMatchesDispatchOnRandomWords) {
  Rng rng(91);
  for (int i = 0; i < 20000; ++i) {
    // Mix densities: raw draws are ~50% fill; AND two for sparse, OR for
    // dense, so low-population ctz cases show up too.
    std::uint64_t x = rng.next_u64();
    if (i % 3 == 1) x &= rng.next_u64();
    if (i % 3 == 2) x |= rng.next_u64();
    EXPECT_EQ(bits::fallback::popcount64(x), bits::popcount64(x)) << x;
    EXPECT_EQ(bits::fallback::ctz64(x), bits::ctz64(x)) << x;
    EXPECT_EQ(bits::ffs64(x), x == 0 ? 0 : bits::ctz64(x) + 1) << x;
  }
}

// pack_densest_first + and_popcount_at_least: the packed row is A's
// nonzero words by popcount descending (ties by index) with suffix
// popcounts, and the decision equals |A ∩ B| >= need (counted bit by bit)
// for every need around the count, at 0-9 packed words (partial 4-word
// chunks) and past them, on the dispatch and fallback paths.
TEST(Bits, AndPopcountAtLeastMatchesCount) {
  static_assert([] {
    const std::uint64_t a[] = {0xFFull, 0x1ull};
    const std::int32_t ai[] = {0, 2};
    const std::int32_t rest[] = {9, 1};
    const std::uint64_t b[] = {0x0Full, 0, 0x1ull};
    return bits::fallback::and_popcount_at_least(a, ai, rest, 2, b, 5) &&
           !bits::fallback::and_popcount_at_least(a, ai, rest, 2, b, 6);
  }());
  Rng rng(93);
  for (const int words : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 63, 64, 65, 124}) {
    for (int rep = 0; rep < 40; ++rep) {
      std::vector<std::uint64_t> a(static_cast<std::size_t>(words)),
          b(static_cast<std::size_t>(words));
      for (int i = 0; i < words; ++i) {
        // Every third word of a stays zero; the rest mix sparse and full
        // words so popcounts tie and differ.
        std::uint64_t x = rng.next_u64();
        if (i % 3 == 1) x &= rng.next_u64() & rng.next_u64();
        if (rep % 5 == 0 && i % 4 == 2) x = ~std::uint64_t{0};
        a[static_cast<std::size_t>(i)] = i % 3 == 0 ? 0 : x;
        b[static_cast<std::size_t>(i)] = rng.next_u64() | rng.next_u64();
      }
      std::vector<std::uint64_t> packed(a.size());
      std::vector<std::int32_t> index(a.size()), rest(a.size());
      const std::size_t count = bits::pack_densest_first(
          a.data(), a.size(), packed.data(), index.data(), rest.data());
      ASSERT_EQ(count, static_cast<std::size_t>(std::count_if(
                           a.begin(), a.end(),
                           [](std::uint64_t x) { return x != 0; })));
      int suffix = 0;
      for (std::size_t i = count; i-- > 0;) {
        EXPECT_EQ(packed[i], a[static_cast<std::size_t>(index[i])]);
        suffix += bits::popcount64(packed[i]);
        EXPECT_EQ(rest[i], suffix);
        if (i + 1 < count) {
          const int pc = bits::popcount64(packed[i]);
          const int next = bits::popcount64(packed[i + 1]);
          EXPECT_TRUE(pc > next || (pc == next && index[i] < index[i + 1]))
              << words << " at " << i;
        }
      }
      // Every prefix of the packed row is itself a packed row: counts
      // 0..9 cover the partial 4-word chunks.
      for (std::size_t c = 0; c <= count; ++c) {
        if (c > 9 && c != count) continue;
        // Suffix popcounts of the first c words alone.
        std::vector<std::int32_t> prefix_rest(
            rest.begin(), rest.begin() + static_cast<std::ptrdiff_t>(c));
        const int tail = c < count ? rest[c] : 0;
        for (auto& r : prefix_rest) r -= tail;
        int total = 0;
        for (std::size_t i = 0; i < c; ++i) {
          const auto w = static_cast<std::size_t>(index[i]);
          for (int bit = 0; bit < bits::kWordBits; ++bit) {
            const auto m = std::uint64_t{1} << bit;
            total += (packed[i] & m) != 0 && (b[w] & m) != 0;
          }
        }
        const int upper = c == 0 ? 0 : prefix_rest[0];
        for (int need = -1; need <= upper + 1; ++need) {
          const bool want = total >= need;
          EXPECT_EQ(bits::and_popcount_at_least(packed.data(), index.data(),
                                                prefix_rest.data(), c,
                                                b.data(), need),
                    want)
              << words << " count " << c << " need " << need;
          EXPECT_EQ(bits::fallback::and_popcount_at_least(
                        packed.data(), index.data(), prefix_rest.data(), c,
                        b.data(), need),
                    want)
              << words << " count " << c << " need " << need;
        }
      }
    }
  }
  EXPECT_TRUE(bits::and_popcount_at_least(nullptr, nullptr, nullptr, 0,
                                          nullptr, 0));
  EXPECT_FALSE(bits::and_popcount_at_least(nullptr, nullptr, nullptr, 0,
                                           nullptr, 1));
}

// densest_four + densest_four_decide, finished by the packed kernel when
// the four words leave an edge open (ComputeACD's oracle per edge): the
// four words are the packed row's first four (ties by index, zero-padded
// below four nonzero words), rest is the popcount of the others, a settled
// verdict is always right and an open one really is open, and the
// composed decision equals |A ∩ B| >= need counted bit by bit for every
// need from below 0 to above deg A.
TEST(Bits, DensestFourDecidesLikeCount) {
  static_assert([] {
    const std::uint64_t a[] = {0x3ull, 0x3ull, 0, 0xFull, 0x3ull, 0x1ull};
    const auto top = bits::densest_four(a, 6);
    return top.index[0] == 3 && top.index[1] == 0 && top.index[2] == 1 &&
           top.index[3] == 4 && top.rest == 1;
  }());
  Rng rng(95);
  int opened = 0;
  for (const int words : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 63, 64, 65, 124}) {
    for (int rep = 0; rep < 60; ++rep) {
      std::vector<std::uint64_t> a(static_cast<std::size_t>(words)),
          b(static_cast<std::size_t>(words));
      for (int i = 0; i < words; ++i) {
        std::uint64_t x = rng.next_u64();
        switch ((rep + i) % 6) {
          case 0: x = 0; break;                                 // zero word
          case 1: x &= rng.next_u64() & rng.next_u64(); break;  // sparse
          case 2: x = std::uint64_t{0xF0F} << (i % 7); break;   // tied: 8 bits
          default: break;
        }
        if (rep % 4 == 3 && i >= 3) x = 0;  // at most 3 nonzero words
        a[static_cast<std::size_t>(i)] = x;
        b[static_cast<std::size_t>(i)] =
            rep % 2 == 0 ? rng.next_u64() | rng.next_u64() : rng.next_u64();
      }
      std::vector<std::uint64_t> packed(a.size());
      std::vector<std::int32_t> index(a.size()), rest(a.size());
      const std::size_t count = bits::pack_densest_first(
          a.data(), a.size(), packed.data(), index.data(), rest.data());
      const auto top = bits::densest_four(a.data(), a.size());
      int top_pc = 0;
      for (std::size_t k = 0; k < 4; ++k) {
        if (k < count) {
          EXPECT_EQ(top.word[k], packed[k]) << words << " slot " << k;
          EXPECT_EQ(top.index[k], index[k]) << words << " slot " << k;
        } else {
          EXPECT_EQ(top.word[k], 0u) << words << " slot " << k;
          EXPECT_EQ(top.index[k], 0) << words << " slot " << k;
        }
        top_pc += bits::popcount64(top.word[k]);
      }
      const int deg = count == 0 ? 0 : rest[0];
      EXPECT_EQ(top.rest, deg - top_pc) << words;
      // |A ∩ B| bit by bit, overall and within the four words.
      int total = 0, in_top = 0;
      for (int i = 0; i < words; ++i) {
        for (int bit = 0; bit < bits::kWordBits; ++bit) {
          const auto m = std::uint64_t{1} << bit;
          const bool both = (a[static_cast<std::size_t>(i)] & m) != 0 &&
                            (b[static_cast<std::size_t>(i)] & m) != 0;
          total += both;
          for (std::size_t k = 0; k < 4 && k < count; ++k) {
            in_top += both && top.index[k] == i;
          }
        }
      }
      for (int need = -2; need <= deg + 2; ++need) {
        const int settled = bits::densest_four_decide(top, b.data(), need);
        const int want = in_top >= need                ? 1
                         : in_top + top.rest < need ? 0
                                                       : -1;
        EXPECT_EQ(settled, want) << words << " need " << need;
        bool got = settled == 1;
        if (settled < 0) {
          ++opened;
          got = bits::and_popcount_at_least(packed.data(), index.data(),
                                            rest.data(), count, b.data(),
                                            need);
          EXPECT_EQ(bits::fallback::and_popcount_at_least(
                        packed.data(), index.data(), rest.data(), count,
                        b.data(), need),
                    got)
              << words << " need " << need;
        }
        EXPECT_EQ(got, total >= need) << words << " need " << need;
      }
    }
  }
  EXPECT_GT(opened, 0);  // the packed kernel finished some decisions
}

// ---- ColorSet vs bool-vector reference model ----

// Reference-model counterparts of every query, by color-by-color scan.
int ref_count_in(const std::vector<char>& m, int lo, int hi, bool member) {
  int s = 0;
  for (int c = lo; c <= hi; ++c) {
    if ((m[static_cast<std::size_t>(c)] != 0) == member) ++s;
  }
  return s;
}

int ref_select_in(const std::vector<char>& m, int lo, int hi, int i,
                  bool member) {
  for (int c = lo; c <= hi; ++c) {
    if ((m[static_cast<std::size_t>(c)] != 0) == member && i-- == 0) {
      return c;
    }
  }
  return -1;
}

int ref_next(const std::vector<char>& m, int from, bool member) {
  for (int c = from; c < static_cast<int>(m.size()); ++c) {
    if ((m[static_cast<std::size_t>(c)] != 0) == member) return c;
  }
  return -1;
}

void check_all_queries(const color::ColorSet& set,
                       const std::vector<char>& m, Rng& rng) {
  const int nc = static_cast<int>(m.size());
  ASSERT_EQ(set.num_colors(), nc);
  EXPECT_EQ(set.count(), ref_count_in(m, 0, nc - 1, true));
  EXPECT_EQ(set.first_free(), ref_next(m, 0, false));
  for (int c = 0; c < nc; ++c) {
    EXPECT_EQ(set.contains(c), m[static_cast<std::size_t>(c)] != 0) << c;
  }
  // Random ranges; always include the full range and the word-boundary
  // straddles when they exist.
  std::vector<std::pair<int, int>> ranges = {{0, nc - 1}};
  if (nc > 64) ranges.push_back({63, 64});
  if (nc > 128) ranges.push_back({64, 127});
  for (int q = 0; q < 50; ++q) {
    const int lo = static_cast<int>(rng.next_below(nc));
    const int hi = lo + static_cast<int>(rng.next_below(nc - lo));
    ranges.push_back({lo, hi});
  }
  for (const auto& [lo, hi] : ranges) {
    const int used = ref_count_in(m, lo, hi, true);
    const int free = ref_count_in(m, lo, hi, false);
    EXPECT_EQ(set.count_in(lo, hi), used) << lo << ".." << hi;
    EXPECT_EQ(set.free_count_in(lo, hi), free) << lo << ".." << hi;
    // Every valid index plus one past the end (-1 expected) — capped so
    // wide ranges stay cheap.
    for (int i = 0; i <= std::min(used, 70); ++i) {
      EXPECT_EQ(set.select_in(lo, hi, i), ref_select_in(m, lo, hi, i, true));
    }
    for (int i = 0; i <= std::min(free, 70); ++i) {
      EXPECT_EQ(set.select_free_in(lo, hi, i),
                ref_select_in(m, lo, hi, i, false));
    }
  }
  for (int q = 0; q < 60; ++q) {
    const int from = static_cast<int>(rng.next_below(nc));
    EXPECT_EQ(set.next_set(from), ref_next(m, from, true)) << from;
    EXPECT_EQ(set.next_free(from), ref_next(m, from, false)) << from;
  }
  EXPECT_EQ(set.next_set(nc), -1);
  EXPECT_EQ(set.next_free(nc), -1);
}

// Word-boundary universe sizes: 1 (degenerate), 63/64/65 (single word /
// exact word / straddle), 127/128 (two-word tail edges), 256/300.
const int kUniverses[] = {1, 63, 64, 65, 127, 128, 256, 300};

TEST(ColorSet, EmptyAndFullEdges) {
  for (const int nc : kUniverses) {
    Rng rng(static_cast<std::uint64_t>(nc));
    color::ColorSet set;
    set.rebind(nc);
    std::vector<char> m(static_cast<std::size_t>(nc), 0);
    check_all_queries(set, m, rng);  // empty
    EXPECT_EQ(set.first_free(), 0);
    EXPECT_EQ(set.count(), 0);
    for (int c = 0; c < nc; ++c) {
      set.add(c);
      m[static_cast<std::size_t>(c)] = 1;
    }
    check_all_queries(set, m, rng);  // full
    EXPECT_EQ(set.first_free(), -1) << nc;  // tail bits must not leak in
    EXPECT_EQ(set.count(), nc);
    set.remove(nc - 1);
    m[static_cast<std::size_t>(nc - 1)] = 0;
    EXPECT_EQ(set.first_free(), nc - 1);  // last-color free, via tail word
    set.clear();
    EXPECT_EQ(set.count(), 0);
    EXPECT_EQ(set.first_free(), 0);
  }
}

TEST(ColorSet, RandomWorkloadMatchesReference) {
  for (const int nc : kUniverses) {
    Rng rng(1000 + static_cast<std::uint64_t>(nc));
    color::ColorSet set;
    set.rebind(nc);
    std::vector<char> m(static_cast<std::size_t>(nc), 0);
    for (int step = 0; step < 400; ++step) {
      const int c = static_cast<int>(rng.next_below(nc));
      if (m[static_cast<std::size_t>(c)] != 0 && rng.next_bool(0.4)) {
        set.remove(c);
        m[static_cast<std::size_t>(c)] = 0;
      } else {
        set.add(c);
        m[static_cast<std::size_t>(c)] = 1;
      }
      if (step % 80 == 79) check_all_queries(set, m, rng);
    }
    check_all_queries(set, m, rng);
  }
}

TEST(ColorSet, SetAlgebraMatchesReference) {
  for (const int nc : {63, 64, 65, 128, 300}) {
    Rng rng(2000 + static_cast<std::uint64_t>(nc));
    for (int trial = 0; trial < 20; ++trial) {
      color::ColorSet a, b;
      a.rebind(nc);
      b.rebind(nc);
      std::vector<char> ma(static_cast<std::size_t>(nc), 0);
      std::vector<char> mb(static_cast<std::size_t>(nc), 0);
      for (int c = 0; c < nc; ++c) {
        if (rng.next_bool(0.5)) {
          a.add(c);
          ma[static_cast<std::size_t>(c)] = 1;
        }
        if (rng.next_bool(0.5)) {
          b.add(c);
          mb[static_cast<std::size_t>(c)] = 1;
        }
      }
      int want_inter = 0;
      for (int c = 0; c < nc; ++c) {
        if (ma[static_cast<std::size_t>(c)] &&
            mb[static_cast<std::size_t>(c)]) {
          ++want_inter;
        }
      }
      EXPECT_EQ(a.intersect_count(b), want_inter);
      EXPECT_EQ(b.intersect_count(a), want_inter);
      const int op = trial % 3;
      std::vector<char> mr(static_cast<std::size_t>(nc), 0);
      color::ColorSet r = a;
      for (int c = 0; c < nc; ++c) {
        const bool ac = ma[static_cast<std::size_t>(c)] != 0;
        const bool bc = mb[static_cast<std::size_t>(c)] != 0;
        const bool rc = op == 0 ? (ac || bc)
                       : op == 1 ? (ac && bc)
                                 : (ac && !bc);
        mr[static_cast<std::size_t>(c)] = rc ? 1 : 0;
      }
      if (op == 0) {
        r.or_with(b);
      } else if (op == 1) {
        r.and_with(b);
      } else {
        r.and_not(b);
      }
      check_all_queries(r, mr, rng);
    }
  }
}

TEST(ColorSet, RebindClearsAndStraddlesWordBoundaries) {
  color::ColorSet set;
  set.rebind(300);
  for (int c = 0; c < 300; ++c) set.add(c);
  // Shrink: the universe narrows, queries must respect the new bound even
  // though wider storage persists (grow-only allocation contract).
  set.rebind(65);
  EXPECT_EQ(set.num_colors(), 65);
  EXPECT_EQ(set.count(), 0);
  EXPECT_EQ(set.first_free(), 0);
  set.add(64);
  EXPECT_EQ(set.count(), 1);
  EXPECT_EQ(set.next_set(0), 64);
  EXPECT_EQ(set.select_in(0, 64, 0), 64);
  // Grow again: previously-set high words must have been cleared by the
  // intermediate rebind, not resurrected.
  set.rebind(300);
  EXPECT_EQ(set.count(), 0);
  EXPECT_EQ(set.next_set(0), -1);
}

// CliquePalette is a multiplicity counter over a ColorSet; re-check its
// query surface against brute force at a universe that straddles words
// (the pre-existing unit test covers a single-word universe).
TEST(ColorSet, CliquePaletteMultiWordMatchesBruteForce) {
  Rng rng(77);
  const int colors = 129;
  color::CliquePalette pal(colors);
  std::vector<int> mult(static_cast<std::size_t>(colors), 0);
  for (int step = 0; step < 3000; ++step) {
    const int c = static_cast<int>(rng.next_below(colors));
    if (mult[static_cast<std::size_t>(c)] > 0 && rng.next_bool(0.45)) {
      pal.remove(c);
      --mult[static_cast<std::size_t>(c)];
    } else {
      pal.add(c);
      ++mult[static_cast<std::size_t>(c)];
    }
    if (step % 100 != 99) continue;
    const int lo = static_cast<int>(rng.next_below(colors));
    const int hi = lo + static_cast<int>(rng.next_below(colors - lo));
    int used = 0;
    for (int c2 = lo; c2 <= hi; ++c2) {
      if (mult[static_cast<std::size_t>(c2)] > 0) ++used;
    }
    ASSERT_EQ(pal.used_distinct(lo, hi), used);
    ASSERT_EQ(pal.free_count(lo, hi), hi - lo + 1 - used);
    if (used > 0) {
      const int i = static_cast<int>(rng.next_below(used));
      int cnt = 0, want = -1;
      for (int c2 = lo; c2 <= hi; ++c2) {
        if (mult[static_cast<std::size_t>(c2)] > 0 && cnt++ == i) {
          want = c2;
          break;
        }
      }
      ASSERT_EQ(pal.select_used(lo, hi, i), want);
    }
    const int free = hi - lo + 1 - used;
    if (free > 0) {
      const int i = static_cast<int>(rng.next_below(free));
      int cnt = 0, want = -1;
      for (int c2 = lo; c2 <= hi; ++c2) {
        if (mult[static_cast<std::size_t>(c2)] == 0 && cnt++ == i) {
          want = c2;
          break;
        }
      }
      ASSERT_EQ(pal.select_free(lo, hi, i), want);
    }
  }
}

// End-to-end sweep over every ColorSet consumer (MCT adoption, SCT batch
// enumeration, clique palettes, fallback first_free). force_threads=0, so
// the TSan job's CCG_TEST_THREADS=4 runs it on the parallel engine; the
// result is bit-identical for any thread count.
TEST(ColorSet, PipelineConsumersColorProperlyUnderTestThreads) {
  Rng rng(5);
  graph::PlantedSpec spec;
  spec.delta = 160;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 20;
  spec.num_sparse = 300;
  spec.sparse_avg_deg = 40.0;
  spec.external_to_sparse = 0.3;
  auto params = color::Params::defaults_for(2000, 19);
  params.eps = 0.2;
  params.use_fingerprint_acd = false;
  params.measure_bits = false;
  auto f = testing::make_planted_fixture(spec, params, 5);
  const auto res = color::color_high_degree(*f->rt, f->st->params);
  cluster::check_proper_total(f->planted.g, res.colors, res.num_colors);
  EXPECT_EQ(res.num_colors, f->planted.delta + 1);
}

}  // namespace
}  // namespace ccg
