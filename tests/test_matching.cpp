// Tests: colorful matching (Lemma 4.9) and fingerprint matching in cabals
// (Section 6, Algorithm 7).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ccg/solver.hpp"
#include "color/matching.hpp"
#include "helpers.hpp"
#include "sketch/fingerprint.hpp"
#include "svc/jobspec.hpp"
#include "svc/service.hpp"

namespace ccg::color {
namespace {

graph::PlantedSpec cabal_spec(int delta, int anti, int ext) {
  graph::PlantedSpec spec;
  spec.delta = delta;
  spec.num_cliques = 3;
  spec.anti_deg = anti;
  spec.external_deg = ext;
  return spec;
}

TEST(ColorfulMatching, BuildsReuseSlack) {
  color::Params params;
  params.seed = 3;
  // Plenty of anti-edges: matching should reach the target quickly.
  auto f = ccg::testing::make_planted_fixture(cabal_spec(80, 10, 12),
                                              params, 17, 4.0);
  auto& st = *f->st;
  std::vector<int> ids{0, 1, 2};
  const int target = 8;
  const auto achieved =
      colorful_matching(st, ids, [target](int) { return target; });
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_GE(achieved[i], target) << "clique " << ids[i];
  }
  cluster::check_proper_partial(st.h(), st.phi.vec());
  // Every colored vertex shares its color with another member of its
  // clique (reuse-only invariant of Lemma 4.9).
  for (int v = 0; v < st.h().n(); ++v) {
    if (!st.phi.colored(v)) continue;
    const int k = st.dc.clique_of(v);
    ASSERT_GE(k, 0);
    EXPECT_GE(st.palettes[k].count(st.phi.get(v)), 2);
    // No reserved color used.
    EXPECT_GE(st.phi.get(v), st.dc.reserved_cap);
  }
}

TEST(ColorfulMatching, SameColorPairsAreAntiEdges) {
  color::Params params;
  params.seed = 5;
  auto f = ccg::testing::make_planted_fixture(cabal_spec(60, 6, 8), params,
                                              19, 4.0);
  auto& st = *f->st;
  std::vector<int> ids{0, 1, 2};
  colorful_matching(st, ids, [](int) { return 6; });
  for (int k = 0; k < 3; ++k) {
    std::map<int, std::vector<int>> by_color;
    for (const int v : st.dc.acd.members[k]) {
      if (st.phi.colored(v)) by_color[st.phi.get(v)].push_back(v);
    }
    for (const auto& [c, vs] : by_color) {
      for (std::size_t i = 0; i < vs.size(); ++i) {
        for (std::size_t j = i + 1; j < vs.size(); ++j) {
          EXPECT_FALSE(st.h().has_edge(vs[i], vs[j]))
              << "same color " << c << " on edge " << vs[i] << "," << vs[j];
        }
      }
    }
  }
}

TEST(FingerprintMatching, FindsValidAntiMatching) {
  color::Params params;
  params.seed = 7;
  // Cabal regime: tiny anti-degree, tiny external degree.
  auto f = ccg::testing::make_planted_fixture(cabal_spec(100, 2, 4),
                                              params, 23, 8.0);
  auto& st = *f->st;
  const auto pairs = fingerprint_matching(st, 0);
  EXPECT_GE(pairs.size(), 2u);
  std::set<int> seen;
  for (const auto& [u, w] : pairs) {
    EXPECT_FALSE(st.h().has_edge(u, w));
    EXPECT_EQ(st.dc.clique_of(u), 0);
    EXPECT_EQ(st.dc.clique_of(w), 0);
    EXPECT_TRUE(seen.insert(u).second) << "vertex " << u << " reused";
    EXPECT_TRUE(seen.insert(w).second) << "vertex " << w << " reused";
  }
}

TEST(FingerprintMatching, SizeCoversAntiDegree) {
  // Lemma 6.2 gives a *lower bound* ~ tau * â_K / (4 eps); operationally
  // Prop 4.15 needs M_K >= a_v for most vertices, i.e. matching >= anti
  // here (every vertex has anti-degree exactly `anti`).
  color::Params params;
  params.seed = 9;
  for (const int anti : {2, 6}) {
    auto f = ccg::testing::make_planted_fixture(
        cabal_spec(120, anti, 4), params, 29 + anti, 8.0);
    const auto pairs = fingerprint_matching(*f->st, 0);
    EXPECT_GE(pairs.size(), static_cast<std::size_t>(anti))
        << "anti=" << anti;
  }
}

TEST(FingerprintMatching, EmptyOnTrueClique) {
  // A cabal with no anti-edges must yield an empty matching, not a bogus
  // one.
  color::Params params;
  params.seed = 11;
  auto f = ccg::testing::make_planted_fixture(cabal_spec(60, 0, 4), params,
                                              31, 8.0);
  const auto pairs = fingerprint_matching(*f->st, 0);
  EXPECT_TRUE(pairs.empty());
}

// fingerprint_matching_into never materializes the neighborhood maxima
// Y_v; it records hit[t][i] <=> Y_v[t] == Y_K[t], and only for the trials
// with a unique maximum (no later step reads another row). Rebuild Y_K,
// the unique arg-max and the dense Y_v from the draws left in the scratch
// and check them: Y_K and argmax for every trial, the hit row cell by
// cell for every unique-max trial, on the full clique and on an uncolored
// subset. The pairs themselves are pinned as golden values (produced by
// the dense Y_v implementation) for this fixture.
TEST(FingerprintMatching, HitMatrixMatchesNeighborhoodMaxima) {
  color::Params params;
  params.seed = 7;
  auto f = ccg::testing::make_planted_fixture(cabal_spec(100, 2, 4),
                                              params, 23, 8.0);
  auto& st = *f->st;
  const auto check_hits = [&](const std::vector<int>& members,
                              const char* label) {
    const auto& fp = st.scratch.fp;
    const int sz = static_cast<int>(members.size());
    const int k = static_cast<int>(fp.yk.maxima.size());
    ASSERT_GT(k, 0) << label;
    ASSERT_GE(fp.x.size(), static_cast<std::size_t>(sz) * k) << label;
    ASSERT_GE(fp.hit.size(), static_cast<std::size_t>(sz) * k) << label;
    ASSERT_GE(fp.argmax.size(), static_cast<std::size_t>(k)) << label;
    std::map<int, int> local;
    for (int i = 0; i < sz; ++i) {
      local[members[static_cast<std::size_t>(i)]] = i;
    }
    const auto x = [&](int i, int t) {
      return fp.x[static_cast<std::size_t>(i) * k + t];
    };
    int hits = 0, misses = 0, unique = 0, tied = 0;
    for (int t = 0; t < k; ++t) {
      int yk = sketch::kEmpty;
      for (int i = 0; i < sz; ++i) yk = std::max(yk, x(i, t));
      ASSERT_EQ(fp.yk.maxima[static_cast<std::size_t>(t)], yk) << label;
      int count = 0, last = -1;
      for (int i = 0; i < sz; ++i) {
        if (x(i, t) == yk) {
          ++count;
          last = i;
        }
      }
      const int want_arg = count == 1 ? last : -1;
      ASSERT_EQ(fp.argmax[static_cast<std::size_t>(t)], want_arg)
          << label << " trial " << t;
      if (want_arg < 0) {
        ++tied;
        continue;
      }
      ++unique;
      for (int i = 0; i < sz; ++i) {
        int yv = -1;
        const int v = members[static_cast<std::size_t>(i)];
        for (const int u : st.h().neighbors(v)) {
          const auto it = local.find(u);
          if (it != local.end()) yv = std::max(yv, x(it->second, t));
        }
        const bool hit = fp.hit[static_cast<std::size_t>(t) * sz + i] != 0;
        EXPECT_EQ(hit, yv == yk) << label << " trial " << t << " member " << i;
        ++(hit ? hits : misses);
      }
    }
    // Every outcome occurs, so no check is vacuous.
    EXPECT_GT(unique, 0) << label;
    EXPECT_GT(tied, 0) << label;
    EXPECT_GT(hits, 0) << label;
    EXPECT_GT(misses, 0) << label;
  };

  const auto full = fingerprint_matching(st, 0);
  check_hits(st.dc.acd.members[0], "full clique");
  const std::vector<std::pair<int, int>> want_full = {
      {52, 4},  {16, 14}, {61, 0},  {11, 24}, {71, 79}, {7, 25},
      {8, 62},  {49, 66}, {6, 34},  {78, 90}, {10, 98}, {97, 68},
      {22, 19}, {81, 40}, {82, 91}, {84, 59}, {32, 56}, {96, 17},
      {23, 69}, {93, 85}, {21, 57}, {38, 5},  {26, 94}};
  EXPECT_EQ(full, want_full);

  std::vector<int> ids{0, 1, 2};
  colorful_matching(st, ids, [](int) { return 6; });
  const auto unc = st.uncolored_members(0);
  ASSERT_EQ(unc.size(), 91u);
  const auto sub = fingerprint_matching(st, 0, &unc);
  check_hits(unc, "uncolored subset");
  const std::vector<std::pair<int, int>> want_sub = {
      {98, 10}, {24, 64}, {14, 16}, {87, 73}, {88, 72}, {68, 58},
      {77, 61}, {19, 50}, {23, 51}, {80, 37}, {81, 21}, {59, 84},
      {8, 54},  {30, 3},  {49, 66}, {83, 95}, {82, 92}, {76, 41},
      {60, 31}, {26, 94}, {5, 33}};
  EXPECT_EQ(sub, want_sub);
}

TEST(MatchingDeterminism, BitIdenticalAcrossThreadCounts) {
  // The three matching routines draw only from counter-based
  // per-(seed, round, entity) streams: every worker count must produce
  // the same matchings and the same colors, bit for bit.
  for (const int threads : {2, 8}) {
    color::Params params;
    params.seed = 21;
    auto base = ccg::testing::make_planted_fixture(cabal_spec(90, 4, 8),
                                                   params, 59, 4.0, 1);
    auto par = ccg::testing::make_planted_fixture(cabal_spec(90, 4, 8),
                                                  params, 59, 4.0, threads);
    std::vector<int> ids{0, 1, 2};
    const auto ach_base =
        colorful_matching(*base->st, ids, [](int) { return 6; });
    const auto ach_par =
        colorful_matching(*par->st, ids, [](int) { return 6; });
    EXPECT_EQ(ach_base, ach_par) << "threads " << threads;
    ASSERT_EQ(base->st->phi.vec(), par->st->phi.vec())
        << "threads " << threads;

    const auto unc_base = base->st->uncolored_members(0);
    const auto unc_par = par->st->uncolored_members(0);
    ASSERT_EQ(unc_base, unc_par);
    const auto pairs_base = fingerprint_matching(*base->st, 0, &unc_base);
    const auto pairs_par = fingerprint_matching(*par->st, 0, &unc_par);
    ASSERT_EQ(pairs_base, pairs_par) << "threads " << threads;

    if (!pairs_base.empty()) {
      EXPECT_EQ(color_anti_matching(*base->st, pairs_base),
                color_anti_matching(*par->st, pairs_par));
      EXPECT_EQ(base->st->phi.vec(), par->st->phi.vec())
          << "threads " << threads;
    }
  }
}

TEST(ColorAntiMatching, ColorsAllPairsProperly) {
  color::Params params;
  params.seed = 13;
  auto f = ccg::testing::make_planted_fixture(cabal_spec(100, 2, 4),
                                              params, 37, 8.0);
  auto& st = *f->st;
  const auto pairs = fingerprint_matching(st, 0);
  ASSERT_GE(pairs.size(), 1u);
  const int colored = color_anti_matching(st, pairs);
  EXPECT_EQ(colored, static_cast<int>(pairs.size()));
  cluster::check_proper_partial(st.h(), st.phi.vec());
  for (const auto& [u, w] : pairs) {
    EXPECT_TRUE(st.phi.colored(u));
    EXPECT_EQ(st.phi.get(u), st.phi.get(w));
    EXPECT_GE(st.phi.get(u), st.dc.reserved_cap);
  }
  // M_K equals the number of pairs (each color counted once extra).
  EXPECT_EQ(st.palettes[0].repeats(), static_cast<int>(pairs.size()));
}

// ---- Golden pins of both matchings' verdicts ----
//
// The verdicts test a proposer against its color's buckets (colored
// vertices, this round's proposers) when its adjacency bitset row makes
// that cheaper than scanning N(v), and scan otherwise. Both tests are
// exact, so the colorings and palettes must equal those of the scan-only
// implementation, pinned here from it at threads {1,2,4}. The colorful
// matching skips the verdicts no commit can read; the anti-dense pin was
// recorded from the implementation that ran every proposer's verdict.

using ccg::testing::coloring_hash;

std::vector<int> repeats_of(const State& st, int cliques) {
  std::vector<int> out;
  for (int k = 0; k < cliques; ++k) {
    out.push_back(st.palettes[static_cast<std::size_t>(k)].repeats());
  }
  return out;
}

struct MatchingPin {
  const char* label;
  graph::PlantedSpec spec;
  std::uint64_t graph_seed;
  int target;
  // After colorful_matching_run:
  std::uint64_t colorful_hash;
  std::vector<int> colorful_repeats;
  // After color_anti_matching on every clique's fingerprint pairs:
  int anti_pairs;
  std::uint64_t anti_hash;
  std::vector<int> anti_repeats;
};

void run_pin(const MatchingPin& pin) {
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(std::string(pin.label) + " threads " +
                 std::to_string(threads));
    color::Params params;
    params.seed = 31;
    auto f = ccg::testing::make_planted_fixture(pin.spec, params,
                                                pin.graph_seed, 4.0, threads);
    auto& st = *f->st;
    const int cliques = pin.spec.num_cliques;
    std::vector<int> ids;
    for (int k = 0; k < cliques; ++k) ids.push_back(k);
    const int target = pin.target;
    colorful_matching_run(st, ids, [target](int) { return target; });
    cluster::check_proper_partial(st.h(), st.phi.vec());
    EXPECT_EQ(coloring_hash(st.phi.vec()), pin.colorful_hash);
    EXPECT_EQ(repeats_of(st, cliques), pin.colorful_repeats);

    std::vector<std::pair<int, int>> pairs;
    for (const int k : ids) {
      const auto unc = st.uncolored_members(k);
      fingerprint_matching_into(st, k, &unc, /*charge=*/false, &pairs);
    }
    EXPECT_EQ(static_cast<int>(pairs.size()), pin.anti_pairs);
    EXPECT_EQ(color_anti_matching(st, pairs), pin.anti_pairs);
    cluster::check_proper_partial(st.h(), st.phi.vec());
    EXPECT_EQ(coloring_hash(st.phi.vec()), pin.anti_hash);
    EXPECT_EQ(repeats_of(st, cliques), pin.anti_repeats);
  }
}

graph::PlantedSpec pin_spec(int delta, int cliques, int anti, int ext) {
  graph::PlantedSpec spec;
  spec.delta = delta;
  spec.num_cliques = cliques;
  spec.anti_deg = anti;
  spec.external_deg = ext;
  return spec;
}

// Delta = 256: every clique row carries a bitset and the buckets are far
// smaller than the degree. The colorful matching tests only the proposers
// of groups with a non-adjacent pair (about 5 a round here), so it builds
// the buckets only in the 7 of its 12 rounds whose tested rows scan more
// than n + C; its verdicts take both paths, the bucket path in about 80%
// of them.
TEST(MatchingPins, PlantedDelta256BucketPath) {
  const MatchingPin pin{"delta256",
                        pin_spec(256, 3, 4, 12),
                        41,
                        12,
                        9092398916717596587ull,
                        {5, 5, 5},
                        110,
                        14076747317444145195ull,
                        {40, 42, 43}};
  run_pin(pin);
}

// Delta = 40: no row reaches the bitset threshold, so every verdict scans.
TEST(MatchingPins, PlantedDelta40ScanPath) {
  const auto spec = pin_spec(40, 3, 4, 6);
  {
    auto probe = ccg::testing::make_planted_fixture(spec, {}, 43, 4.0, 1);
    for (int v = 0; v < probe->st->h().n(); ++v) {
      ASSERT_FALSE(probe->st->h().has_bitset_row(v)) << v;
    }
  }
  const MatchingPin pin{"delta40",
                        spec,
                        43,
                        6,
                        4237831531928446331ull,
                        {6, 6, 3},
                        27,
                        1413943751211338523ull,
                        {13, 14, 15}};
  run_pin(pin);
}

// Delta = 64: most clique rows carry a bitset and a few fall just short,
// so the verdicts of one round take both paths. The bucket decision is
// priced by the tested proposers only, so the colorful matching builds
// the buckets in 7 of its 12 rounds (the assertions below bound the
// bitset degrees of all clique rows, not of the tested ones).
TEST(MatchingPins, MixedRowsTakeBothPaths) {
  const auto spec = pin_spec(64, 3, 4, 8);
  {
    auto probe = ccg::testing::make_planted_fixture(spec, {}, 17, 4.0, 1);
    const auto& h = probe->st->h();
    int with = 0, without = 0;
    std::int64_t bitset_degrees = 0;
    for (int v = 0; v < h.n(); ++v) {
      if (probe->planted.clique_of[static_cast<std::size_t>(v)] < 0) continue;
      if (h.has_bitset_row(v)) {
        ++with;
        bitset_degrees += h.degree(v);
      } else {
        ++without;
      }
    }
    ASSERT_GE(with, 100);
    ASSERT_GE(without, 8);
    ASSERT_GT(bitset_degrees, 8 * (h.n() + probe->st->num_colors()));
  }
  const MatchingPin pin{"delta64",
                        spec,
                        17,
                        8,
                        2245386568058570587ull,
                        {8, 7, 2},
                        41,
                        16525420444361661467ull,
                        {23, 17, 18}};
  run_pin(pin);
}

// Anti-dense: with 16 anti-edges per vertex, a few percent of each
// round's colorful proposers share a (clique, color) group with a
// non-adjacent member, and their bitset rows scan more than the n + C a
// bucket build costs, so the colorful verdicts take the bucket path.
TEST(MatchingPins, AntiDenseColorfulBucketPath) {
  const MatchingPin pin{"anti-dense delta256",
                        pin_spec(256, 4, 16, 4),
                        47,
                        12,
                        16842663010380953875ull,
                        {12, 14, 12, 12},
                        153,
                        1108267678288616131ull,
                        {45, 54, 51, 53}};
  run_pin(pin);
}

// Solves that made the anti-matching color two adjacent vertices alike:
// an endpoint u of a clashing pair was compared by its own id instead of
// its pair's minimum, so when u was the larger endpoint of a pair whose
// minimum was below the other pair's, neither pair yielded and the
// properness check failed. Each must now solve, properly, at every thread
// count.
TEST(MatchingPins, AntiMatchingClashByPairMinimum) {
  struct Repro {
    const char* recipe;
    bool oracle;
    std::uint64_t seed;
  };
  const char* const d128 =
      "--gen planted --delta 128 --cliques 6 --ext 2 --anti 10 "
      "--graph-seed 16";
  const char* const d256 =
      "--gen planted --delta 256 --cliques 6 --ext 2 --anti 20 "
      "--graph-seed 15";
  const Repro repros[] = {{d128, true, 2},  {d128, true, 4},
                          {d128, false, 3}, {d128, false, 4},
                          {d256, true, 1}};
  for (const auto& r : repros) {
    const auto inst = svc::build_instance(svc::parse_job_flags(r.recipe));
    ASSERT_TRUE(inst.error.empty()) << inst.error;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::string(r.recipe) + (r.oracle ? " oracle" : "") +
                   " seed " + std::to_string(r.seed) + " threads " +
                   std::to_string(threads));
      Solver solver;
      Options opt;
      opt.algo = Algo::kHighDegree;
      opt.eps = 0.2;
      opt.oracle = r.oracle;
      opt.seed = r.seed;
      opt.threads = threads;
      const auto out = solver.solve(Problem::cluster(inst.cg), opt);
      ASSERT_TRUE(out.ok()) << out.error.message;
      EXPECT_TRUE(cluster::is_proper_total(inst.cg.h(), out.result.colors,
                                           out.result.num_colors));
    }
  }
}

// The anti-matching's stall: this fingerprint-ACD solve leaves pairs live
// after kMctMaxRounds trial rounds. They stay uncolored, the phases that
// follow color their endpoints, and the solve returns a proper coloring at
// every thread count.
TEST(MatchingPins, AntiMatchingFailureReproducer) {
  const auto inst = svc::build_instance(svc::parse_job_flags(
      "--gen planted --delta 256 --cliques 3 --ext 24 --anti 2 --sparse 300 "
      "--layout tree --cluster-size 4 --graph-seed 889352101"));
  ASSERT_TRUE(inst.error.empty()) << inst.error;
  std::vector<int> first_colors;
  for (const int threads : {1, 2}) {
    Solver solver;
    Options opt;
    opt.algo = Algo::kHighDegree;
    opt.eps = 0.2;
    opt.seed = 941314231;
    opt.threads = threads;
    const auto out = solver.solve(Problem::cluster(inst.cg), opt);
    ASSERT_TRUE(out.ok()) << "threads " << threads << ": "
                          << out.error.message;
    EXPECT_EQ(out.uncolored, 0) << "threads " << threads;
    EXPECT_TRUE(cluster::is_proper_total(inst.cg.h(), out.result.colors,
                                         out.result.num_colors))
        << "threads " << threads;
    // On this instance the degrade ends in the safety net.
    EXPECT_GT(out.result.fallback_count, 0) << "threads " << threads;
    if (first_colors.empty()) first_colors = out.result.colors;
    EXPECT_EQ(out.result.colors, first_colors) << "threads " << threads;
  }
}

}  // namespace
}  // namespace ccg::color
