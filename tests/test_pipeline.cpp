// End-to-end tests: the Theorem 1.2 pipeline, the Theorem 1.1 pipeline,
// the dispatcher, and the baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "baseline/baselines.hpp"
#include "cluster/validate.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "lowdeg/lowdeg.hpp"

namespace ccg {
namespace {

color::Params pipeline_params(int n, std::uint64_t seed) {
  auto p = color::Params::defaults_for(n, seed);
  p.eps = 0.2;  // lenient detection margin for the planted specs below
  p.use_fingerprint_acd = false;  // oracle ACD: fast, identical charges
  p.measure_bits = false;
  // The CI TSan job re-runs this binary with CCG_TEST_THREADS=4 so every
  // end-to-end configuration exercises the parallel round engine; results
  // are bit-identical for any value (tests stay green unchanged).
  if (const char* env = std::getenv("CCG_TEST_THREADS")) {
    p.threads = std::max(1, std::atoi(env));
  }
  return p;
}

TEST(PipelineHighDegree, MixedInstanceColorsProperly) {
  Rng rng(1);
  graph::PlantedSpec spec;
  spec.delta = 160;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 20;  // non-cabals (e + 2a + O(1) <= eps*Delta)
  spec.num_sparse = 300;
  spec.sparse_avg_deg = 40.0;
  spec.external_to_sparse = 0.3;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = color::color_high_degree(
      rt, pipeline_params(planted.g.n(), 11));
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  EXPECT_EQ(res.num_colors, planted.delta + 1);
  EXPECT_EQ(res.num_cliques, 4);
  EXPECT_GT(res.sparse_count, 0);
  EXPECT_GT(res.h_rounds, 0);
  // The safety net should handle at most a tiny fraction.
  EXPECT_LE(res.fallback_count, planted.g.n() / 20);
}

TEST(PipelineHighDegree, CabalHeavyInstance) {
  Rng rng(2);
  graph::PlantedSpec spec;
  spec.delta = 150;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 4;  // e_K < ell -> cabals
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = color::color_high_degree(
      rt, pipeline_params(planted.g.n(), 13));
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  EXPECT_EQ(res.num_cabals, 4);
  EXPECT_LE(res.fallback_count, planted.g.n() / 20);
}

TEST(PipelineHighDegree, PureCliquesDeltaPlusOne) {
  // (Delta+1)-cliques with zero external edges: H needs exactly Delta+1
  // colors; the tightest case for the clique palette.
  Rng rng(3);
  graph::PlantedSpec spec;
  spec.delta = 120;
  spec.num_cliques = 3;
  spec.anti_deg = 0;
  spec.external_deg = 2;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = color::color_high_degree(
      rt, pipeline_params(planted.g.n(), 17));
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
}

TEST(PipelineHighDegree, RunsOnExpandedClusters) {
  Rng rng(4);
  graph::PlantedSpec spec;
  spec.delta = 120;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 12;
  spec.num_sparse = 150;
  spec.sparse_avg_deg = 30.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  cluster::ExpandSpec es;
  es.shape = cluster::ClusterShape::kRandomTree;
  es.size = 4;
  es.links_per_edge = 2;
  const auto cg = cluster::ClusterGraph::expand(planted.g, es, rng);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = color::color_high_degree(
      rt, pipeline_params(planted.g.n(), 19));
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  // d > 0: G-rounds must strictly exceed H-rounds.
  EXPECT_GT(res.g_rounds, res.h_rounds);
  EXPECT_GT(res.dilation, 0);
}

TEST(PipelineLowDegree, LogarithmicRegime) {
  Rng rng(5);
  const auto g = graph::gnm(500, 2000, rng);  // Delta ~ O(log n)
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res =
      lowdeg::color_low_degree(rt, pipeline_params(g.n(), 23));
  cluster::check_proper_total(g, res.colors, res.num_colors);
}

TEST(PipelineLowDegree, PolylogRegimeWithStructure) {
  Rng rng(6);
  graph::PlantedSpec spec;
  spec.delta = 60;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 10;
  spec.num_sparse = 200;
  spec.sparse_avg_deg = 20.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res =
      lowdeg::color_low_degree(rt, pipeline_params(planted.g.n(), 29));
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
}

TEST(PipelineDeterminism, FullPipelineBitIdenticalAcrossThreadCounts) {
  // End-to-end acceptance bar of the parallel round engine: the *full*
  // high-degree pipeline — including the colorful/fingerprint matchings,
  // the anti-matching coloring, put-aside computation + coloring, and the
  // fallback safety net — must be bit-identical for every worker count.
  // (test_exec pins the same property per round; this pins the
  // composition under the standard test configuration, with the
  // cabal-heavy shape driving the put-aside/donation phases.)
  Rng rng(77);
  struct Shape {
    const char* name;
    graph::PlantedGraph planted;
  };
  std::vector<Shape> shapes;
  {
    graph::PlantedSpec spec;  // cabal-heavy: put-aside + donation paths
    spec.delta = 150;
    spec.num_cliques = 4;
    spec.anti_deg = 2;
    spec.external_deg = 4;
    shapes.push_back({"cabal_heavy", graph::make_planted_acd(spec, rng)});
  }
  {
    graph::PlantedSpec spec;  // mixture: matchings + sparse + fallback
    spec.delta = 140;
    spec.num_cliques = 4;
    spec.anti_deg = 2;
    spec.external_deg = 18;
    spec.num_sparse = 250;
    spec.sparse_avg_deg = 35.0;
    spec.external_to_sparse = 0.3;
    shapes.push_back({"mixture", graph::make_planted_acd(spec, rng)});
  }
  for (const auto& shape : shapes) {
    const auto& g = shape.planted.g;
    auto run = [&](int threads) {
      const auto cg = cluster::ClusterGraph::singleton(g);
      net::Ledger ledger(cg.default_bandwidth());
      cluster::Runtime rt(cg, ledger);
      auto params = pipeline_params(g.n(), 137);
      params.threads = threads;
      auto res = color::color_high_degree(rt, params);
      cluster::check_proper_total(g, res.colors, res.num_colors);
      return res;
    };
    const auto base = run(1);
    for (const int threads : {2, 8}) {
      const auto res = run(threads);
      ASSERT_EQ(res.colors, base.colors)
          << shape.name << " threads " << threads;
      EXPECT_EQ(res.h_rounds, base.h_rounds) << shape.name;
      EXPECT_EQ(res.g_rounds, base.g_rounds) << shape.name;
      EXPECT_EQ(res.fallback_count, base.fallback_count) << shape.name;
      EXPECT_EQ(res.retry_count, base.retry_count) << shape.name;
      EXPECT_EQ(res.num_cabals, base.num_cabals) << shape.name;
    }
  }
}

TEST(PipelineDeterminism, LowDegreeBitIdenticalAcrossThreadCounts) {
  // Same acceptance bar for the Theorem 1.1 path: learn/shatter, the
  // polylog cabal machinery and the finisher all run on the round engine,
  // so the low-degree coloring must not depend on the worker count.
  Rng rng(88);
  struct Shape {
    const char* name;
    graph::Graph g;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"gnm", graph::gnm(500, 2000, rng)});
  {
    graph::PlantedSpec spec;  // polylog regime with dense structure
    spec.delta = 60;
    spec.num_cliques = 3;
    spec.anti_deg = 2;
    spec.external_deg = 10;
    spec.num_sparse = 200;
    spec.sparse_avg_deg = 20.0;
    shapes.push_back({"planted", graph::make_planted_acd(spec, rng).g});
  }
  for (const auto& shape : shapes) {
    auto run = [&](int threads) {
      const auto cg = cluster::ClusterGraph::singleton(shape.g);
      net::Ledger ledger(cg.default_bandwidth());
      cluster::Runtime rt(cg, ledger);
      auto params = pipeline_params(shape.g.n(), 139);
      params.threads = threads;
      auto res = lowdeg::color_low_degree(rt, params);
      cluster::check_proper_total(shape.g, res.colors, res.num_colors);
      return res;
    };
    const auto base = run(1);
    for (const int threads : {2, 8}) {
      const auto res = run(threads);
      ASSERT_EQ(res.colors, base.colors)
          << shape.name << " threads " << threads;
      EXPECT_EQ(res.h_rounds, base.h_rounds) << shape.name;
      EXPECT_EQ(res.fallback_count, base.fallback_count) << shape.name;
    }
  }
}

TEST(Dispatcher, PicksPathByDelta) {
  Rng rng(7);
  auto params = pipeline_params(400, 31);
  // Low-degree input.
  const auto sparse_g = graph::gnm(400, 1200, rng);
  {
    const auto cg = cluster::ClusterGraph::singleton(sparse_g);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    EXPECT_LT(rt.delta(), params.delta_low(sparse_g.n()));
    const auto res = lowdeg::color_cluster_graph(rt, params);
    cluster::check_proper_total(sparse_g, res.colors, res.num_colors);
  }
  // High-degree input.
  graph::PlantedSpec spec;
  spec.delta = 200;
  spec.num_cliques = 2;
  spec.anti_deg = 0;
  spec.external_deg = 8;
  const auto planted = graph::make_planted_acd(spec, rng);
  {
    const auto cg = cluster::ClusterGraph::singleton(planted.g);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    EXPECT_GE(rt.delta(), params.delta_low(planted.g.n()));
    const auto res = lowdeg::color_cluster_graph(rt, params);
    cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  }
}

TEST(Baselines, GreedyUsesAtMostDeltaPlusOne) {
  Rng rng(8);
  const auto g = graph::gnm(300, 2500, rng);
  const auto colors = baseline::greedy_coloring(g);
  cluster::check_proper_total(g, colors, g.max_degree() + 1);
}

TEST(Baselines, UniformTrialProper) {
  Rng rng(9);
  const auto g = graph::gnm(300, 1800, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = baseline::uniform_trial_baseline(rt, 5, 200);
  cluster::check_proper_total(g, res.colors, res.num_colors);
}

TEST(Baselines, PaletteSparsificationProper) {
  Rng rng(10);
  const auto g = graph::gnm(300, 3000, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res =
      baseline::palette_sparsification_baseline(rt, 7, 1.0, 400);
  cluster::check_proper_total(g, res.colors, res.num_colors);
  // Lists are small: max message obeys the sparsified budget.
  EXPECT_GT(res.h_rounds, 0);
}


TEST(PipelineEverythingOn, AllFidelityFlagsSimultaneously) {
  // The maximum-fidelity configuration: fingerprint ACD (no oracle),
  // measured bits, representative-set MCT, Ghaffari-Kuhn finisher — all
  // paper machinery engaged in one run, on a mixed instance.
  Rng rng(401);
  graph::PlantedSpec spec;
  spec.delta = 110;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 10;
  spec.num_sparse = 220;
  spec.sparse_avg_deg = 28.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  auto params = color::Params::defaults_for(planted.g.n(), 409);
  params.use_fingerprint_acd = true;
  params.measure_bits = true;
  params.use_representative_sets = true;
  params.finisher = color::Params::Finisher::kGhaffariKuhn;
  const auto res = lowdeg::color_cluster_graph(rt, params);
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  EXPECT_LE(res.max_bits_per_link_round, ledger.bandwidth());
}

TEST(PipelineEverythingOn, EstimatedWeightsOnExpandedClusters) {
  // Estimated GK weights + non-trivial cluster shapes together.
  Rng rng(419);
  const auto g = graph::gnm(700, 4200, rng);
  cluster::ExpandSpec es;
  es.shape = cluster::ClusterShape::kStar;
  es.size = 3;
  const auto cg = cluster::ClusterGraph::expand(g, es, rng);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  auto params = color::Params::defaults_for(g.n(), 421);
  params.finisher = color::Params::Finisher::kGhaffariKuhn;
  params.gk_estimated_weights = true;
  params.fingerprint_t = 64;
  const auto res = lowdeg::color_cluster_graph(rt, params);
  cluster::check_proper_total(g, res.colors, res.num_colors);
}

// ---- Golden pins of the whole pipeline ----
//
// Every calibrated constant (src/color/params.hpp) sets some phase's
// trial count, threshold or round budget, so changing one moves the
// coloring or a per-phase ledger row. Pinned at threads {1,4} for four
// runs: the oracle high-degree path on the E1 mixture and on cabals with
// outliers, the fingerprint ACD with measured bits, and the polylog
// low-degree path.

struct PhasePin {
  std::string name;
  std::int64_t h_rounds = 0;
  std::int64_t g_rounds = 0;
  std::int64_t total_bits = 0;
  int max_message_bits = 0;
  bool operator==(const PhasePin&) const = default;
};

// Prints a row as it is written below, so a failure shows the new pins.
std::ostream& operator<<(std::ostream& os, const PhasePin& p) {
  return os << "{\"" << p.name << "\", " << p.h_rounds << ", " << p.g_rounds
            << ", " << p.total_bits << ", " << p.max_message_bits << "}";
}

std::vector<PhasePin> phase_pins(const color::Result& res) {
  std::vector<PhasePin> out;
  for (const auto& p : res.phases) {
    out.push_back({p.name, p.h_rounds, p.g_rounds, p.total_bits,
                   p.max_message_bits});
  }
  return out;
}

enum class Path { kHigh, kLow };

void expect_pipeline_pins(const cluster::ClusterGraph& cg,
                          const color::Params& params, Path path,
                          std::uint64_t colors_hash,
                          const std::vector<PhasePin>& phases) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    auto p = params;
    p.threads = threads;
    color::State st(rt, p);
    if (path == Path::kHigh) {
      color::run_high_degree(st);
    } else {
      lowdeg::run_low_degree(st);
    }
    const auto res = color::finalize_result(st);
    cluster::check_proper_total(cg.h(), res.colors, res.num_colors);
    EXPECT_EQ(testing::coloring_hash(res.colors), colors_hash);
    EXPECT_EQ(phase_pins(res), phases);
  }
}

TEST(PipelinePins, DerivedThresholds) {
  // The regime switch and the reserved-prefix cap: the pipeline runs
  // below call each path directly, so these pin the dispatch side.
  const color::Params params;
  EXPECT_EQ(params.delta_low(1000), 76);
  EXPECT_EQ(params.delta_low(100000), 132);
  EXPECT_EQ(params.reserved_cap(256), 89);
  EXPECT_EQ(params.reserved_cap(1000), 350);
}

TEST(PipelinePins, OracleHighDegreeE1Mixture) {
  Rng rng(1001);
  graph::PlantedSpec spec;  // the E1 mixture perfbench's oracle_dense solves
  spec.delta = 256;
  spec.num_cliques = 20;
  spec.anti_deg = 2;
  spec.external_deg = 24;
  spec.num_sparse = 3200;
  spec.sparse_avg_deg = 64.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  expect_pipeline_pins(cluster::ClusterGraph::singleton(planted.g),
                       pipeline_params(planted.g.n(), 1003),
                       Path::kHigh, 17955717656001291614ull,
                       {{"1-acd", 11, 61, 0, 430},
                        {"2-slack-generation", 2, 2, 0, 26},
                        {"3-sparse", 24, 24, 0, 28},
                        {"4a-matching", 55, 76, 0, 272},
                        {"4b-easy", 0, 0, 0, 0},
                        {"4c-outliers", 0, 0, 0, 0},
                        {"4d-sct", 5, 5, 0, 26},
                        {"4e-complete", 32, 72, 0, 430},
                        {"4-noncabals", 92, 153, 0, 430},
                        {"5-cabals", 0, 0, 0, 0}});
}

// A cabal-heavy planted graph in which members 1..4 of every block also
// get extra[i] neighbors in the other blocks, so their external degrees
// straddle the cabal inlier rule's kInlierExtFactor * ẽ_K threshold.
graph::Graph with_outliers(const graph::PlantedGraph& planted) {
  constexpr int kExtra[] = {8, 16, 32, 80};
  const auto& g = planted.g;
  std::vector<int> extra(static_cast<std::size_t>(g.n()), 0);
  std::vector<int> seen(static_cast<std::size_t>(planted.num_cliques), 0);
  for (int v = 0; v < g.n(); ++v) {
    const int k = planted.clique_of[static_cast<std::size_t>(v)];
    if (k < 0) continue;
    const int i = seen[static_cast<std::size_t>(k)]++;
    if (i >= 1 && i <= 4) extra[static_cast<std::size_t>(v)] = kExtra[i - 1];
  }
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < g.n(); ++u) {
    for (const int v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  for (int v = 0; v < g.n(); ++v) {
    const int k = planted.clique_of[static_cast<std::size_t>(v)];
    int added = 0;
    for (int u = 0; u < g.n() && added < extra[static_cast<std::size_t>(v)];
         u += 3) {
      if (planted.clique_of[static_cast<std::size_t>(u)] == k ||
          extra[static_cast<std::size_t>(u)] > 0 || g.has_edge(u, v)) {
        continue;
      }
      edges.emplace_back(std::min(u, v), std::max(u, v));
      ++added;
    }
  }
  return graph::Graph::from_edges(g.n(), edges);
}

TEST(PipelinePins, OracleHighDegreeCabalOutliers) {
  Rng rng(1031);
  graph::PlantedSpec spec;
  spec.delta = 150;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 2;
  const auto g = with_outliers(graph::make_planted_acd(spec, rng));
  expect_pipeline_pins(cluster::ClusterGraph::singleton(g),
                       pipeline_params(g.n(), 1033), Path::kHigh,
                       13101121598972376156ull,
                       {{"1-acd", 11, 55, 0, 310},
                        {"2-slack-generation", 2, 2, 0, 20},
                        {"3-sparse", 0, 0, 0, 0},
                        {"4-noncabals", 0, 0, 0, 0},
                        {"5-cabals", 79, 106, 0, 212}});
}

TEST(PipelinePins, FingerprintHighDegreeMeasuredBits) {
  Rng rng(1011);
  graph::PlantedSpec spec;
  spec.delta = 128;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 12;
  spec.num_sparse = 400;
  spec.sparse_avg_deg = 32.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  auto params = pipeline_params(planted.g.n(), 1013);
  params.use_fingerprint_acd = true;
  params.measure_bits = true;
  expect_pipeline_pins(cluster::ClusterGraph::singleton(planted.g), params,
                       Path::kHigh, 132891612967561136ull,
                       {{"1-acd", 19, 189, 0, 756},
                        {"2-slack-generation", 2, 2, 0, 20},
                        {"3-sparse", 64, 64, 0, 40},
                        {"4a-matching", 52, 73, 0, 220},
                        {"4b-easy", 0, 0, 0, 0},
                        {"4c-outliers", 0, 0, 0, 0},
                        {"4d-sct", 5, 5, 0, 20},
                        {"4e-complete", 33, 81, 0, 328},
                        {"4-noncabals", 90, 159, 0, 328},
                        {"5-cabals", 68, 95, 0, 220}});
}

// The only pin whose solve reads G-links: measured fingerprint
// aggregation climbs each cluster's support tree from the designated link
// endpoints (the full_stack perfbench shape at a smaller Delta).
TEST(PipelinePins, FingerprintMeasuredBitsOnClusterTrees) {
  Rng rng(1041);
  graph::PlantedSpec spec;
  spec.delta = 96;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 10;
  spec.num_sparse = 300;
  spec.sparse_avg_deg = 24.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  cluster::ExpandSpec es;
  es.shape = cluster::ClusterShape::kRandomTree;
  es.size = 4;
  const auto cg = cluster::ClusterGraph::expand(planted.g, es, rng);
  auto params = pipeline_params(planted.g.n(), 1043);
  params.use_fingerprint_acd = true;
  params.measure_bits = true;
  expect_pipeline_pins(cg, params, Path::kHigh, 3318721582020447718ull,
                       {{"1-acd", 11, 630, 0, 724},
                        {"2-slack-generation", 2, 14, 0, 20},
                        {"3-sparse", 54, 378, 0, 40},
                        {"4-noncabals", 0, 0, 0, 0},
                        {"5-cabals", 65, 623, 0, 214}});
}

TEST(PipelinePins, LowDegreePolylogRegime) {
  Rng rng(1021);
  graph::PlantedSpec spec;
  spec.delta = 60;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 9;  // near ell: one cabal beside two non-cabals
  spec.num_sparse = 200;
  spec.sparse_avg_deg = 15.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  expect_pipeline_pins(cluster::ClusterGraph::singleton(planted.g),
                       pipeline_params(planted.g.n(), 1023),
                       Path::kLow, 2592355032622047309ull,
                       {{"lowdeg-acd", 11, 55, 0, 286},
                        {"lowdeg-slackgen", 2, 2, 0, 18},
                        {"lowdeg-sparse", 20, 20, 0, 18},
                        {"lowdeg-noncabals", 38, 38, 0, 18},
                        {"lowdeg-cabals", 64, 85, 0, 200}});
}

}  // namespace
}  // namespace ccg
