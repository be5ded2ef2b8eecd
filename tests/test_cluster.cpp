// Unit tests: cluster graphs, runtime primitives, validators.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "cluster/cluster_graph.hpp"
#include "cluster/runtime.hpp"
#include "cluster/validate.hpp"
#include "cluster/virtual_graph.hpp"
#include "exec/parallel_round.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace ccg::cluster {
namespace {

TEST(ClusterGraph, SingletonIsCongest) {
  auto h = graph::cycle(6);
  const auto cg = ClusterGraph::singleton(h);
  EXPECT_EQ(cg.num_clusters(), 6);
  EXPECT_EQ(cg.n_machines(), 6);
  EXPECT_EQ(cg.dilation(), 0);
  EXPECT_EQ(cg.epoch_depth(), 1);
  for (int v = 0; v < 6; ++v) {
    EXPECT_EQ(cg.cluster(v).size(), 1);
    EXPECT_EQ(cg.cluster(v).leader(), v);
  }
  EXPECT_EQ(cg.links(0, 1).size(), 1u);
}

// A singleton shares H as its machine graph and stores no links: H-edge
// {u, v} is the one link (min, max), in either argument order.
TEST(ClusterGraph, SingletonSharesHAndDerivesLinks) {
  Rng rng(3);
  const auto cg = ClusterGraph::singleton(graph::gnm(40, 160, rng));
  EXPECT_EQ(&cg.machines(), &cg.h());
  for (const auto& [u, v] : cg.h().edges()) {
    for (const auto& [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
      const auto links = cg.links(a, b);
      ASSERT_EQ(links.size(), 1u);
      EXPECT_EQ(links.front(), std::pair(u, v));
    }
  }
  int x = 0, y = 1;
  while (cg.h().has_edge(x, y)) ++y;
  EXPECT_THROW(cg.links(x, y), ContractViolation);
  EXPECT_THROW(cg.links(x, 40), ContractViolation);
}

// FNV hash of every H-edge's ordered link list, H-edges in h().edges()
// order: pins both the links and their order within each list.
std::uint64_t links_hash(const ClusterGraph& cg) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const auto& [u, v] : cg.h().edges()) {
    hash = testing::fnv_mix(hash, u);
    hash = testing::fnv_mix(hash, v);
    hash = testing::fnv_mix(
        hash, static_cast<std::int64_t>(cg.links(u, v).size()));
    for (const auto& [mu, mv] : cg.links(u, v)) {
      hash = testing::fnv_mix(hash, mu);
      hash = testing::fnv_mix(hash, mv);
    }
  }
  return hash;
}

TEST(ClusterGraph, GoldenLinksExpand) {
  // kPath and kBalancedBinary draw no RNG for their trees and attach links
  // at the same random members, so their links coincide.
  const std::pair<ClusterShape, std::uint64_t> pins[] = {
      {ClusterShape::kSingleton, 7641136080686039171ull},
      {ClusterShape::kStar, 1778892454648624507ull},
      {ClusterShape::kPath, 9519911555430089396ull},
      {ClusterShape::kRandomTree, 7081467929526206390ull},
      {ClusterShape::kBalancedBinary, 9519911555430089396ull},
      {ClusterShape::kBridgePath, 4672696505849683227ull},
  };
  for (const auto& [shape, pin] : pins) {
    Rng rng(7);
    const auto h = graph::gnm(30, 90, rng);
    ExpandSpec spec;
    spec.shape = shape;
    spec.size = 5;
    spec.links_per_edge = 2;
    const auto cg = ClusterGraph::expand(h, spec, rng);
    EXPECT_EQ(links_hash(cg), pin) << static_cast<int>(shape);
  }
}

TEST(ClusterGraph, GoldenLinksFromPartition) {
  Rng rng(17);
  const auto g = graph::gnm(300, 1200, rng);
  ASSERT_TRUE(g.is_connected());
  const auto cg =
      ClusterGraph::from_partition(g, random_partition(g, 40, rng));
  EXPECT_EQ(links_hash(cg), 14453292524781491999ull);
  int x = 0, y = 1;
  while (cg.h().has_edge(x, y)) ++y;
  EXPECT_THROW(cg.links(x, y), ContractViolation);
  EXPECT_THROW(cg.links(x, x), ContractViolation);
}

TEST(ClusterGraph, GoldenLinksDistance2) {
  const auto vg = VirtualGraph::distance2(graph::grid(9, 7));
  EXPECT_EQ(links_hash(vg.representation()), 943271399744217815ull);
}

class ExpandShapes : public ::testing::TestWithParam<ClusterShape> {};

TEST_P(ExpandShapes, StructureInvariants) {
  Rng rng(7);
  const auto h = graph::gnm(30, 90, rng);
  ExpandSpec spec;
  spec.shape = GetParam();
  spec.size = 5;
  spec.links_per_edge = 2;
  const auto cg = ClusterGraph::expand(h, spec, rng);

  const int size = spec.shape == ClusterShape::kSingleton ? 1 : 5;
  EXPECT_EQ(cg.n_machines(), 30 * size);
  EXPECT_EQ(cg.num_clusters(), 30);
  EXPECT_EQ(cg.h().m(), h.m());

  for (int v = 0; v < 30; ++v) {
    const auto& c = cg.cluster(v);
    EXPECT_EQ(c.size(), size);
    // Every member maps back.
    for (const int m : c.members) {
      EXPECT_EQ(cg.cluster_of_machine(m), v);
    }
    // Support tree is a tree rooted at the leader.
    EXPECT_EQ(c.parent[0], -1);
    for (int i = 1; i < c.size(); ++i) {
      EXPECT_GE(c.parent[i], 0);
      EXPECT_LT(c.parent[i], i);
    }
  }
  // Every H-edge has >= 1 link; endpoints in right clusters (first in the
  // lower-id cluster).
  for (const auto& [u, v] : h.edges()) {
    const auto links = cg.links(u, v);
    EXPECT_GE(links.size(), 1u);
    EXPECT_LE(links.size(), 2u);
    for (const auto& [mu, mv] : links) {
      EXPECT_EQ(cg.cluster_of_machine(mu), std::min(u, v));
      EXPECT_EQ(cg.cluster_of_machine(mv), std::max(u, v));
      EXPECT_TRUE(cg.machines().has_edge(mu, mv));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, ExpandShapes,
    ::testing::Values(ClusterShape::kSingleton, ClusterShape::kStar,
                      ClusterShape::kPath, ClusterShape::kRandomTree,
                      ClusterShape::kBalancedBinary,
                      ClusterShape::kBridgePath));

TEST(ClusterGraph, DilationByShape) {
  Rng rng(7);
  const auto h = graph::cycle(10);
  ExpandSpec spec;
  spec.size = 9;
  spec.shape = ClusterShape::kStar;
  EXPECT_EQ(ClusterGraph::expand(h, spec, rng).dilation(), 2);
  spec.shape = ClusterShape::kPath;
  EXPECT_EQ(ClusterGraph::expand(h, spec, rng).dilation(), 8);
  // 9-node heap tree: height 3, deepest leaf pair across subtrees at
  // distance 3 + 2.
  spec.shape = ClusterShape::kBalancedBinary;
  EXPECT_EQ(ClusterGraph::expand(h, spec, rng).dilation(), 3 + 2);
}

TEST(ClusterGraph, FromPartitionFigureOne) {
  // Reconstructs a Figure-1-style situation: a network partitioned into 4
  // clusters, H derived by cluster adjacency.
  Rng rng(9);
  const auto g = graph::grid(6, 6);
  const auto assign = random_partition(g, 4, rng);
  const auto cg = ClusterGraph::from_partition(g, assign);
  EXPECT_EQ(cg.num_clusters(), 4);
  EXPECT_EQ(cg.n_machines(), 36);
  // Every machine belongs to its assigned cluster; support trees span.
  int total = 0;
  for (int v = 0; v < 4; ++v) total += cg.cluster(v).size();
  EXPECT_EQ(total, 36);
  // H edges match cluster adjacency in G.
  for (const auto& [mu, mv] : g.edges()) {
    if (assign[mu] != assign[mv]) {
      EXPECT_TRUE(cg.h().has_edge(assign[mu], assign[mv]));
    }
  }
}

TEST(ClusterGraph, FromPartitionRejectsDisconnectedCluster) {
  auto g = graph::path(4);
  // Cluster {0, 3} is disconnected in the path.
  EXPECT_THROW(ClusterGraph::from_partition(g, {0, 1, 1, 0}),
               ContractViolation);
}

TEST(Runtime, HTreeBfsProperties) {
  Rng rng(5);
  const auto h = graph::gnm(40, 200, rng);
  const auto cg = ClusterGraph::singleton(h);
  net::Ledger ledger(cg.default_bandwidth());
  Runtime rt(cg, ledger);

  std::vector<int> subset;
  for (int v = 0; v < 40; v += 2) subset.push_back(v);
  const auto t = rt.build_htree(subset, subset.front(), 10);
  EXPECT_GE(t.size(), 1);
  EXPECT_EQ(t.members[0], subset.front());
  EXPECT_EQ(t.parent[0], -1);
  std::set<int> in_subset(subset.begin(), subset.end());
  for (int i = 1; i < t.size(); ++i) {
    EXPECT_TRUE(in_subset.count(t.members[i]));
    EXPECT_LT(t.parent[i], i);  // parents precede children
    // Tree edges are H-edges.
    EXPECT_TRUE(h.has_edge(t.members[i], t.members[t.parent[i]]));
    EXPECT_EQ(t.depth[i], t.depth[t.parent[i]] + 1);
  }
}

TEST(Runtime, HTreeRespectsMaxHops) {
  const auto h = graph::path(10);
  const auto cg = ClusterGraph::singleton(h);
  net::Ledger ledger(64);
  Runtime rt(cg, ledger);
  std::vector<int> all{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto t = rt.build_htree(all, 0, 3);
  EXPECT_EQ(t.size(), 4);  // 0,1,2,3
  EXPECT_EQ(t.height, 3);
}

TEST(Runtime, TreeAggregateAndPrefixSums) {
  const auto h = graph::path(6);
  const auto cg = ClusterGraph::singleton(h);
  net::Ledger ledger(64);
  Runtime rt(cg, ledger);
  std::vector<int> all{0, 1, 2, 3, 4, 5};
  const auto t = rt.build_htree(all, 0, 10);
  std::vector<std::int64_t> vals(6, 1);
  const auto sum = rt.tree_aggregate<std::int64_t>(
      t, vals, [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(sum, 6);
  const auto prefix = rt.prefix_sums(t, vals);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(prefix[i], i);
}

TEST(Runtime, RandomGroupsOnClique) {
  // Lemma 4.4 regime: a dense clique with |K|/x large.
  const auto h = graph::complete(120);
  const auto cg = ClusterGraph::singleton(h);
  net::Ledger ledger(cg.default_bandwidth());
  Runtime rt(cg, ledger);
  Rng rng(13);
  std::vector<int> members(120);
  for (int i = 0; i < 120; ++i) members[i] = i;
  const auto groups = rt.random_groups(members, 4, rng);
  EXPECT_TRUE(rt.verify_random_groups(members, groups, 4));
}

TEST(Validate, ProperColorings) {
  const auto h = graph::cycle(5);
  std::vector<int> ok{0, 1, 0, 1, 2};
  EXPECT_TRUE(is_proper_total(h, ok, 3));
  std::vector<int> bad{0, 0, 1, 0, 1};
  EXPECT_FALSE(is_proper_partial(h, bad));
  std::vector<int> partial{0, kUncolored, 0, 1, kUncolored};
  EXPECT_TRUE(is_proper_partial(h, partial));
  EXPECT_EQ(count_uncolored(partial), 2);
  EXPECT_THROW(check_proper_total(h, partial, 3), ContractViolation);
}

// The sharded total check gives the inline verdict and names the lowest
// failing vertex whatever the worker count, so its messages are
// deterministic.
TEST(Validate, ShardedTotalCheckNamesLowestFailingVertex) {
  Rng rng(29);
  const auto h = graph::gnm(3000, 12000, rng);
  const int num_colors = h.max_degree() + 1;
  std::vector<int> color(static_cast<std::size_t>(h.n()), kUncolored);
  for (int v = 0; v < h.n(); ++v) {  // greedy: proper and total
    std::set<int> used;
    for (const int u : h.neighbors(v)) used.insert(color[u]);
    int c = 0;
    while (used.count(c)) ++c;
    color[v] = c;
  }
  exec::ParallelRound one(1), four(4);
  const auto message = [&](const std::vector<int>& col,
                           exec::ParallelRound* par) -> std::string {
    try {
      check_proper_total(h, col, num_colors, par);
    } catch (const ContractViolation& e) {
      return e.what();
    }
    return "";
  };
  const auto expect_all = [&](const std::vector<int>& col, bool proper,
                              const std::string& needle) {
    const std::string inline_msg = message(col, nullptr);
    EXPECT_NE(inline_msg.find(needle), std::string::npos) << inline_msg;
    for (exec::ParallelRound* par : {&one, &four}) {
      EXPECT_EQ(is_proper_total(h, col, num_colors, par), proper);
      EXPECT_EQ(message(col, par), inline_msg);
    }
    EXPECT_EQ(is_proper_total(h, col, num_colors), proper);
  };
  expect_all(color, true, "");

  auto bad = color;
  ASSERT_GT(h.degree(2400), 0);
  const int u = h.neighbors(2400)[0];
  bad[2400] = color[u];            // monochromatic edge
  bad[2900] = num_colors;          // out of range
  bad[1700] = kUncolored;
  bad[2100] = kUncolored;
  expect_all(bad, false, "vertex 1700 left uncolored");
  bad[1700] = color[1700];
  bad[2100] = color[2100];
  expect_all(bad, false, "vertex 2900 color out of range");
  bad[2900] = color[2900];
  expect_all(bad, false, "coloring is not proper");
}

TEST(Ledger, EpochDepthDrivesGRounds) {
  Rng rng(3);
  const auto h = graph::cycle(8);
  ExpandSpec spec;
  spec.shape = ClusterShape::kPath;
  spec.size = 6;
  const auto cg = ClusterGraph::expand(h, spec, rng);
  net::Ledger ledger(64);
  Runtime rt(cg, ledger);
  rt.charge(1, 32);
  // One H-round costs epoch_depth G-rounds (2*height+1 = 11).
  EXPECT_EQ(ledger.g_rounds(), 2 * 5 + 1);
}

}  // namespace
}  // namespace ccg::cluster
