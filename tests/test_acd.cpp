// Tests: almost-clique decomposition (Section 5.4, Prop 4.3, Def 4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "acd/acd.hpp"
#include "cluster/cluster_graph.hpp"
#include "cluster/runtime.hpp"
#include "common/assert.hpp"
#include "exec/parallel_round.hpp"
#include "graph/generators.hpp"

namespace ccg::acd {
namespace {

struct AcdCase {
  int delta;
  int cliques;
  int anti;
  int ext;
  int sparse;
  double sparse_deg;
};

class AcdOnPlanted : public ::testing::TestWithParam<AcdCase> {};

TEST_P(AcdOnPlanted, RecoversPlantedStructure) {
  const auto c = GetParam();
  Rng rng(1234);
  graph::PlantedSpec spec;
  spec.delta = c.delta;
  spec.num_cliques = c.cliques;
  spec.anti_deg = c.anti;
  spec.external_deg = c.ext;
  spec.num_sparse = c.sparse;
  spec.sparse_avg_deg = c.sparse_deg;
  const auto planted = graph::make_planted_acd(spec, rng);

  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);

  AcdParams params;
  params.eps = 0.2;
  params.t = 8000;  // wide fingerprints: near-exact estimates
  params.measure_bits = false;
  const auto res = compute_acd(rt, params, rng);

  EXPECT_EQ(res.num_cliques, c.cliques);
  std::string why;
  EXPECT_TRUE(verify_almost_cliques(planted.g, res, 3 * params.eps, &why))
      << why;
  // Planted dense vertices recovered as dense, in blocks matching the
  // ground truth (ids may permute: check same-block equivalence).
  for (int v = 0; v < planted.g.n(); ++v) {
    if (planted.clique_of[v] >= 0) {
      EXPECT_GE(res.clique_of[v], 0) << "dense vertex " << v << " missed";
    } else {
      EXPECT_EQ(res.clique_of[v], -1) << "sparse vertex " << v << " caught";
    }
  }
  for (int v = 0; v < planted.g.n(); ++v) {
    for (int u = v + 1; u < std::min(planted.g.n(), v + 50); ++u) {
      if (planted.clique_of[v] >= 0 &&
          planted.clique_of[v] == planted.clique_of[u]) {
        EXPECT_EQ(res.clique_of[v], res.clique_of[u]);
      }
    }
  }
}

// Planted instances are detectable when roughly 2 e_v + 2 a_v <= xi*Delta
// (see the calibration note in src/acd/acd.cpp).
INSTANTIATE_TEST_SUITE_P(
    Cases, AcdOnPlanted,
    ::testing::Values(AcdCase{60, 3, 0, 4, 0, 0.0},
                      AcdCase{60, 3, 2, 6, 60, 8.0},
                      AcdCase{64, 4, 4, 4, 0, 0.0},
                      AcdCase{40, 2, 0, 4, 120, 6.0}));

TEST(Acd, OracleModeMatchesPlantedExactly) {
  Rng rng(77);
  graph::PlantedSpec spec;
  spec.delta = 40;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 4;
  spec.num_sparse = 40;
  spec.sparse_avg_deg = 5.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  AcdParams params;
  params.eps = 0.2;
  params.use_fingerprints = false;
  const auto res = compute_acd(rt, params, rng);
  EXPECT_EQ(res.num_cliques, 3);
  for (int v = 0; v < planted.g.n(); ++v) {
    EXPECT_EQ(res.clique_of[v] >= 0, planted.clique_of[v] >= 0);
  }
}

TEST(Acd, PureSparseGraphHasNoCliques) {
  Rng rng(5);
  const auto g = graph::gnm(300, 1500, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  AcdParams params;
  params.eps = 0.1;
  params.use_fingerprints = false;
  const auto res = compute_acd(rt, params, rng);
  EXPECT_EQ(res.num_cliques, 0);
}

TEST(Acd, AnnotateDenseClassifiesCabals) {
  Rng rng(7);
  graph::PlantedSpec spec;
  spec.delta = 60;
  spec.num_cliques = 4;
  spec.anti_deg = 0;
  spec.external_deg = 4;  // low external degree -> cabals for large ell
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  AcdParams params;
  params.eps = 0.1;
  params.use_fingerprints = false;
  const auto res = compute_acd(rt, params, rng);
  ASSERT_EQ(res.num_cliques, 4);

  // ell above the external degree: every clique is a cabal.
  auto info = annotate_dense(rt, res, /*ell=*/10.0, 64, false, rng);
  for (int k = 0; k < res.num_cliques; ++k) {
    EXPECT_TRUE(info.is_cabal[k]);
    EXPECT_NEAR(info.avg_ext_est[k], 4.0, 1.0);
    EXPECT_EQ(info.clique_size[k], 60 + 1 - 4);
  }
  // ell below: none are.
  info = annotate_dense(rt, res, /*ell=*/2.0, 64, false, rng);
  for (int k = 0; k < res.num_cliques; ++k) {
    EXPECT_FALSE(info.is_cabal[k]);
  }
}

// |N(u) ∪ N(v)| by sorted merge for every (u < v) edge, edges() order.
std::vector<int> merged_union_sizes(const graph::Graph& h) {
  std::vector<int> sizes;
  std::vector<int> joint;
  for (const auto& [u, v] : h.edges()) {
    const auto nu = h.neighbors(u);
    const auto nv = h.neighbors(v);
    joint.clear();
    std::set_union(nu.begin(), nu.end(), nv.begin(), nv.end(),
                   std::back_inserter(joint));
    sizes.push_back(static_cast<int>(joint.size()));
  }
  return sizes;
}

// Oracle ComputeACD from first principles, on the merged union sizes:
// Lemma 5.8's filter and buddy predicate, the buddy-degree threshold,
// then components of the candidate-restricted buddy graph in order of
// their smallest vertex, dropping those below max(2, Delta/2). Returns
// per-vertex buddy degrees and fills clique_of / members the way
// compute_acd numbers them.
std::vector<int> reference_oracle_acd(const graph::Graph& h, int delta,
                                      double xi,
                                      const std::vector<int>& union_size,
                                      AcdResult* out) {
  const int n = h.n();
  const auto high = [&](int v) {
    return h.degree(v) >= (1.0 - 2.0 * xi) * delta;
  };
  std::vector<std::vector<int>> buddies(static_cast<std::size_t>(n));
  const auto edges = h.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto& [u, v] = edges[e];
    if (high(u) && high(v) && union_size[e] <= (1.0 + xi) * delta) {
      buddies[static_cast<std::size_t>(u)].push_back(v);
      buddies[static_cast<std::size_t>(v)].push_back(u);
    }
  }
  std::vector<int> buddy_deg(static_cast<std::size_t>(n));
  std::vector<char> candidate(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    buddy_deg[static_cast<std::size_t>(v)] =
        static_cast<int>(buddies[static_cast<std::size_t>(v)].size());
    candidate[static_cast<std::size_t>(v)] =
        buddy_deg[static_cast<std::size_t>(v)] >= (1.0 - 2.0 * xi) * delta;
  }
  out->clique_of.assign(static_cast<std::size_t>(n), -1);
  out->members.clear();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (int src = 0; src < n; ++src) {
    if (!candidate[static_cast<std::size_t>(src)] ||
        seen[static_cast<std::size_t>(src)]) {
      continue;
    }
    std::vector<int> comp{src};
    seen[static_cast<std::size_t>(src)] = 1;
    for (std::size_t head = 0; head < comp.size(); ++head) {
      for (const int u : buddies[static_cast<std::size_t>(comp[head])]) {
        if (!candidate[static_cast<std::size_t>(u)] ||
            seen[static_cast<std::size_t>(u)]) {
          continue;
        }
        seen[static_cast<std::size_t>(u)] = 1;
        comp.push_back(u);
      }
    }
    if (static_cast<int>(comp.size()) < std::max(2, delta / 2)) continue;
    std::sort(comp.begin(), comp.end());
    for (const int v : comp) {
      out->clique_of[static_cast<std::size_t>(v)] =
          static_cast<int>(out->members.size());
    }
    out->members.push_back(comp);
  }
  out->num_cliques = static_cast<int>(out->members.size());
  return buddy_deg;
}

// Planted almost-cliques of degree delta with a sparse background three
// times their size.
graph::Graph planted_graph(int delta, std::uint64_t seed) {
  graph::PlantedSpec spec;
  spec.delta = delta;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = delta / 10;
  spec.num_sparse = 3 * delta;
  spec.sparse_avg_deg = delta * 0.25;
  Rng rng(seed);
  return graph::make_planted_acd(spec, rng).g;
}

// Near-cliques of sizes 56, 66 and 80 with 3% of their edges dropped:
// degrees below, around and above 64, so the middle one mixes rows with
// and without a bitset. Cross edges between the cliques and a sparse
// background ride along, under shuffled ids so bitset rows spread over
// many words.
graph::Graph straddle_graph(std::uint64_t seed) {
  Rng rng(seed);
  const int sizes[] = {56, 66, 80};
  const int dense = 56 + 66 + 80, n = dense + 200;
  const auto id = rng.permutation(n);
  graph::Graph g(n);
  std::set<std::pair<int, int>> seen;
  const auto add = [&](int u, int v) {
    if (u == v) return;
    const int x = id[static_cast<std::size_t>(u)];
    const int y = id[static_cast<std::size_t>(v)];
    if (seen.insert({std::min(x, y), std::max(x, y)}).second) {
      g.add_edge(x, y);
    }
  };
  int lo = 0;
  for (const int size : sizes) {
    for (int u = lo; u < lo + size; ++u) {
      for (int v = u + 1; v < lo + size; ++v) {
        if (!rng.next_bool(0.03)) add(u, v);
      }
      for (int r = 0; r < 2; ++r) {
        add(u, static_cast<int>(rng.next_below(dense)));
      }
    }
    lo += size;
  }
  for (int u = dense; u < n; ++u) {
    for (int r = 0; r < 4; ++r) {
      add(u, static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))));
    }
  }
  g.finalize();
  return g;
}

// The oracle's exact buddy count runs two kernels — a bitset AND-popcount
// when both rows carry an adjacency bitset (degree >= 64) and a stamp
// probe otherwise. Each instance pins which kernels it reaches; every one
// must reproduce the brute-force buddy graph and decomposition at every
// worker count.
TEST(Acd, OracleBuddyGraphMatchesBruteForce) {
  enum class Kernels { kBitsetOnly, kStampOnly, kBoth };
  struct Case {
    std::string label;
    graph::Graph g;
    Kernels kernels;
  };
  Case cases[] = {
      {"delta256 (bitset rows only)", planted_graph(256, 31),
       Kernels::kBitsetOnly},
      {"delta40 (stamp probe only)", planted_graph(40, 32),
       Kernels::kStampOnly},
      {"straddles degree 64", straddle_graph(33), Kernels::kBoth},
  };
  for (const auto& c : cases) {
    const auto& g = c.g;
    const auto cg = cluster::ClusterGraph::singleton(g);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    const double eps = 0.45;

    // Which kernels the high-high edges reach at xi = 0.2: both rows
    // with a bitset, one, or neither.
    int kernel_edges[3] = {0, 0, 0};
    for (const auto& [u, v] : g.edges()) {
      if (std::min(g.degree(u), g.degree(v)) < 0.6 * rt.delta()) continue;
      ++kernel_edges[g.has_bitset_row(u) + g.has_bitset_row(v)];
    }
    const std::string& label = c.label;
    const bool bitset = c.kernels != Kernels::kStampOnly;
    const bool stamp = c.kernels != Kernels::kBitsetOnly;
    EXPECT_EQ(kernel_edges[2] > 0, bitset) << label;
    EXPECT_EQ(kernel_edges[1] > 0, bitset && stamp) << label;
    EXPECT_EQ(kernel_edges[0] > 0, stamp) << label;

    // Sweep the buddy slack xi so the predicate's threshold crosses the
    // bulk of the union sizes: an intersection count off by even one
    // flips some buddy edge. eps only bounds the clique size check.
    const auto unions = merged_union_sizes(g);
    const int max_size = static_cast<int>((1.0 + 3.0 * eps) * rt.delta()) + 1;
    int decompositions = 0;
    for (int step = 1; step <= 20; ++step) {
      const double xi = 0.02 * step;
      AcdResult want;
      const auto want_buddy_deg =
          reference_oracle_acd(g, rt.delta(), xi, unions, &want);
      bool want_too_large = false;
      for (const auto& mem : want.members) {
        want_too_large |= static_cast<int>(mem.size()) > max_size;
      }
      decompositions += !want_too_large && want.num_cliques > 0;
      for (const int threads : {1, 2, 3, 4}) {
        exec::ParallelRound par(threads);
        AcdParams params;
        params.eps = eps;
        params.xi = xi;
        params.use_fingerprints = false;
        params.par = &par;
        StreamCtx streams(7);
        AcdResult got;
        AcdScratch scratch;
        bool threw = false;
        try {
          compute_acd(rt, params, streams, &got, &scratch);
        } catch (const ContractViolation&) {
          threw = true;  // merged almost-cliques, as the reference says
        }
        const std::string at = label + " xi=" + std::to_string(xi) +
                               " threads=" + std::to_string(threads);
        EXPECT_EQ(scratch.buddy_deg, want_buddy_deg) << at;
        ASSERT_EQ(threw, want_too_large) << at;
        if (threw) continue;
        EXPECT_EQ(got.clique_of, want.clique_of) << at;
        ASSERT_EQ(got.num_cliques, want.num_cliques) << at;
        for (int k = 0; k < want.num_cliques; ++k) {
          EXPECT_EQ(got.members[static_cast<std::size_t>(k)],
                    want.members[static_cast<std::size_t>(k)])
              << at << " clique " << k;
        }
      }
    }
    EXPECT_GT(decompositions, 0) << label;
  }
}

// Buddy degrees from the per-edge flags, and the components of the
// candidate-restricted buddy graph by BFS from each unvisited candidate in
// ascending order: ids in order of each component's smallest vertex,
// members sorted.
struct SerialBuddyGraph {
  std::vector<int> deg;
  AcdResult acd;
};

SerialBuddyGraph serial_buddy_graph(const graph::Graph& h,
                                    const std::vector<char>& buddy,
                                    int delta, double xi) {
  const int n = h.n();
  const auto edges = h.edges();
  SerialBuddyGraph out;
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!buddy[e]) continue;
    const auto& [u, v] = edges[e];
    adj[static_cast<std::size_t>(u)].push_back(v);
    adj[static_cast<std::size_t>(v)].push_back(u);
  }
  out.deg.assign(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    out.deg[static_cast<std::size_t>(v)] =
        static_cast<int>(adj[static_cast<std::size_t>(v)].size());
  }
  const auto candidate = [&](int v) {
    return out.deg[static_cast<std::size_t>(v)] >= (1.0 - 2.0 * xi) * delta;
  };
  auto& acd = out.acd;
  acd.clique_of.assign(static_cast<std::size_t>(n), -1);
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (int src = 0; src < n; ++src) {
    if (!candidate(src) || seen[static_cast<std::size_t>(src)]) continue;
    std::vector<int> comp{src};
    seen[static_cast<std::size_t>(src)] = 1;
    for (std::size_t head = 0; head < comp.size(); ++head) {
      for (const int u : adj[static_cast<std::size_t>(comp[head])]) {
        if (!candidate(u) || seen[static_cast<std::size_t>(u)]) continue;
        seen[static_cast<std::size_t>(u)] = 1;
        comp.push_back(u);
      }
    }
    if (static_cast<int>(comp.size()) < std::max(2, delta / 2)) continue;
    std::sort(comp.begin(), comp.end());
    for (const int v : comp) {
      acd.clique_of[static_cast<std::size_t>(v)] =
          static_cast<int>(acd.members.size());
    }
    acd.members.push_back(comp);
  }
  acd.num_cliques = static_cast<int>(acd.members.size());
  return out;
}

// The buddy flags and degrees come from one parallel pass over balanced
// row ranges, and the components from a union-find sweep over the flags.
// Flags, degrees, clique ids and members must equal the serial reference
// in both modes and at every worker count.
TEST(Acd, ParallelBuddyFlagsAndDegreesMatchSerial) {
  // E1-like: cliques at the front of the id space, then a sparse
  // low-degree tail three times their size.
  const auto e1_like = [] {
    graph::PlantedSpec spec;
    spec.delta = 96;
    spec.num_cliques = 6;
    spec.anti_deg = 2;
    spec.external_deg = 9;
    spec.num_sparse = 1800;
    spec.sparse_avg_deg = 6.0;
    Rng rng(41);
    return graph::make_planted_acd(spec, rng).g;
  };
  // The same graph under ids v -> n - 1 - v: the cliques move to the end,
  // so the last row ranges (and the very last rows) carry the buddies.
  const auto reversed = [](const graph::Graph& g) {
    graph::Graph r(g.n());
    for (const auto& [u, v] : g.edges()) {
      r.add_edge(g.n() - 1 - u, g.n() - 1 - v);
    }
    r.finalize();
    return r;
  };
  // The same graph under a fixed random relabeling: the cliques' ids
  // interleave with each other and with the sparse tail, so the unions
  // do not run in the order of each component's smallest vertex.
  const auto shuffled = [](const graph::Graph& g) {
    Rng rng(44);
    const auto id = rng.permutation(g.n());
    graph::Graph r(g.n());
    for (const auto& [u, v] : g.edges()) {
      r.add_edge(id[static_cast<std::size_t>(u)],
                 id[static_cast<std::size_t>(v)]);
    }
    r.finalize();
    return r;
  };
  // Two 40-cliques at ids 0..79 and, at id 81, a high-degree vertex that
  // is a buddy of 8 members of the first and 7 of the second (joint sizes
  // 49 and 50 <= 1.3 Delta) but, with its one other edge to the
  // low-degree vertex 80, falls one buddy short of the candidate
  // threshold: it must not join the two cliques into one component.
  const auto non_candidate_bridge = [] {
    graph::Graph g(82);
    for (const int lo : {0, 40}) {
      for (int u = lo; u < lo + 40; ++u) {
        for (int v = u + 1; v < lo + 40; ++v) g.add_edge(u, v);
      }
    }
    for (int u = 0; u < 8; ++u) g.add_edge(u, 81);
    for (int u = 40; u < 47; ++u) g.add_edge(u, 81);
    g.add_edge(80, 81);
    g.finalize();
    return g;
  };
  const struct {
    std::string label;
    graph::Graph g;
  } cases[] = {
      {"e1-like", e1_like()},
      {"e1-like, dense tail", reversed(e1_like())},
      {"e1-like, shuffled ids", shuffled(e1_like())},
      {"delta40 (no bitset rows)", planted_graph(40, 42)},
      {"mixed rows", straddle_graph(43)},
      {"non-candidate bridge", non_candidate_bridge()},
  };
  for (const auto& c : cases) {
    const auto& g = c.g;
    const auto cg = cluster::ClusterGraph::singleton(g);
    for (const bool fingerprints : {false, true}) {
      std::vector<char> first_flags;
      int cliques = 0;
      // One scratch for every worker count: warm reuse must not leak the
      // previous run's counts or roots.
      AcdScratch scratch;
      for (const int threads : {1, 2, 3, 4, 8}) {
        const std::string at = c.label +
                               (fingerprints ? " fingerprint" : " oracle") +
                               " threads=" + std::to_string(threads);
        net::Ledger ledger(cg.default_bandwidth());
        cluster::Runtime rt(cg, ledger);
        exec::ParallelRound par(threads);
        AcdParams params;
        params.eps = 0.45;
        params.xi = 0.3;
        params.use_fingerprints = fingerprints;
        params.par = &par;
        StreamCtx streams(11);
        AcdResult got;
        bool threw = false;
        try {
          compute_acd(rt, params, streams, &got, &scratch);
        } catch (const ContractViolation&) {
          threw = true;
        }
        ASSERT_EQ(scratch.buddy.size(), static_cast<std::size_t>(g.m()))
            << at;
        if (first_flags.empty()) first_flags = scratch.buddy;
        EXPECT_EQ(scratch.buddy, first_flags) << at;
        const auto want =
            serial_buddy_graph(g, scratch.buddy, rt.delta(), params.xi);
        EXPECT_EQ(scratch.buddy_deg, want.deg) << at;
        EXPECT_FALSE(threw) << at;
        if (threw) continue;
        EXPECT_EQ(got.clique_of, want.acd.clique_of) << at;
        ASSERT_EQ(got.num_cliques, want.acd.num_cliques) << at;
        for (int k = 0; k < got.num_cliques; ++k) {
          EXPECT_EQ(got.members[static_cast<std::size_t>(k)],
                    want.acd.members[static_cast<std::size_t>(k)])
              << at << " clique " << k;
        }
        cliques = got.num_cliques;
      }
      EXPECT_GT(cliques, 0) << c.label;
    }
  }
}

// Two K_40 joined by a perfect matching: at xi = 1.5 every edge is a
// buddy edge (joint size at most 80 = 2 Delta), so both cliques merge
// into one component of 80 > (1 + 3 eps) Delta and the size check fails.
// The oracle is deterministic, so it throws after one attempt; fingerprint
// mode retries with fresh samples and throws after three. Either way the
// ledger holds exactly the attempts' charges.
TEST(Acd, OracleSizeFailureChargesOneAttempt) {
  const int s = 40;
  graph::Graph g(2 * s);
  for (int u = 0; u < s; ++u) {
    for (int v = u + 1; v < s; ++v) {
      g.add_edge(u, v);
      g.add_edge(s + u, s + v);
    }
    g.add_edge(u, s + u);
  }
  g.finalize();
  const auto cg = cluster::ClusterGraph::singleton(g);
  const auto run = [&](bool fingerprints, double xi, bool* threw) {
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    AcdParams params;
    params.eps = 0.05;
    params.xi = xi;
    params.use_fingerprints = fingerprints;
    params.measure_bits = false;  // fixed per-attempt charges
    StreamCtx streams(3);
    AcdResult res;
    AcdScratch scratch;
    *threw = false;
    try {
      compute_acd(rt, params, streams, &res, &scratch);
    } catch (const ContractViolation& e) {
      *threw = true;
      // The oracle stops after its one deterministic attempt; fingerprint
      // mode redraws samples up to three times.
      const std::string want = fingerprints ? "ACD failed 3 attempts:"
                                            : "ACD failed 1 attempt:";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
    return ledger.totals_snapshot();
  };
  for (const bool fingerprints : {false, true}) {
    bool threw = false;
    // xi = 0.3: only intra-clique edges (joint size 42) are buddies; one
    // attempt passes.
    const auto one = run(fingerprints, 0.3, &threw);
    ASSERT_FALSE(threw) << fingerprints;
    const auto failed = run(fingerprints, 1.5, &threw);
    ASSERT_TRUE(threw) << fingerprints;
    const int attempts = fingerprints ? 3 : 1;
    EXPECT_EQ(failed.h_rounds, attempts * one.h_rounds) << fingerprints;
    EXPECT_EQ(failed.g_rounds, attempts * one.g_rounds) << fingerprints;
  }
}

TEST(Acd, VerifierCatchesBadDecomposition) {
  const auto g = graph::path(10);
  AcdResult bad;
  bad.num_cliques = 1;
  bad.clique_of.assign(10, 0);
  bad.members = {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}};
  std::string why;
  EXPECT_FALSE(verify_almost_cliques(g, bad, 0.2, &why));
  EXPECT_FALSE(why.empty());
}

}  // namespace
}  // namespace ccg::acd
