#include "cluster/cluster_graph.hpp"

#include <algorithm>
#include <queue>

#include "common/mathutil.hpp"

namespace ccg::cluster {

namespace {

// Fill depth/height/diameter of a cluster whose members/parent are set.
void finish_cluster(Cluster& c) {
  const int s = c.size();
  c.depth.assign(static_cast<std::size_t>(s), 0);
  // parent[] is topologically usable only if parents precede children; all
  // our constructions satisfy parent_index < child_index except BFS trees,
  // which also do (BFS discovery order). Verify while computing depth.
  for (int i = 1; i < s; ++i) {
    const int p = c.parent[static_cast<std::size_t>(i)];
    CCG_CHECK(p >= 0 && p < i);
    c.depth[static_cast<std::size_t>(i)] =
        c.depth[static_cast<std::size_t>(p)] + 1;
  }
  c.height = 0;
  for (const int d : c.depth) c.height = std::max(c.height, d);

  // Tree diameter via double BFS on the member-level tree.
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(s));
  for (int i = 1; i < s; ++i) {
    const int p = c.parent[static_cast<std::size_t>(i)];
    adj[static_cast<std::size_t>(i)].push_back(p);
    adj[static_cast<std::size_t>(p)].push_back(i);
  }
  const auto farthest = [&](int src) {
    std::vector<int> dist(static_cast<std::size_t>(s), -1);
    dist[static_cast<std::size_t>(src)] = 0;
    std::queue<int> q;
    q.push(src);
    int best = src;
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      if (dist[static_cast<std::size_t>(v)] >
          dist[static_cast<std::size_t>(best)]) {
        best = v;
      }
      for (const int u : adj[static_cast<std::size_t>(v)]) {
        if (dist[static_cast<std::size_t>(u)] == -1) {
          dist[static_cast<std::size_t>(u)] =
              dist[static_cast<std::size_t>(v)] + 1;
          q.push(u);
        }
      }
    }
    return std::pair<int, int>{best, dist[static_cast<std::size_t>(best)]};
  };
  const auto [far_node, unused] = farthest(0);
  (void)unused;
  c.diameter = farthest(far_node).second;
}

}  // namespace

void ClusterGraph::index_h_edges() {
  const int n = h_.n();
  upper_off_.resize(static_cast<std::size_t>(n) + 1);
  upper_off_[0] = 0;
  for (int u = 0; u < n; ++u) {
    const auto nb = h_.neighbors(u);
    upper_off_[static_cast<std::size_t>(u) + 1] =
        upper_off_[static_cast<std::size_t>(u)] +
        (nb.end() - std::upper_bound(nb.begin(), nb.end(), u));
  }
}

std::int64_t ClusterGraph::edge_index(int u, int v) const {
  const auto [a, b] = std::minmax(u, v);
  CCG_CHECK_MSG(a >= 0 && b < num_clusters(),
                "no links for H-edge " << u << "," << v);
  const auto nb = h_.neighbors(a);
  const auto it = std::lower_bound(nb.begin(), nb.end(), b);
  CCG_CHECK_MSG(it != nb.end() && *it == b,
                "no links for H-edge " << u << "," << v);
  // Row a ends with its upper neighbors, the last of them is edge
  // upper_off_[a + 1] - 1; b sits (nb.end() - it) places from the end.
  return upper_off_[static_cast<std::size_t>(a) + 1] - (nb.end() - it);
}

LinkSpan ClusterGraph::links(int u, int v) const {
  if (singleton_) {
    CCG_CHECK_MSG(u >= 0 && u < num_clusters() && v >= 0 &&
                      v < num_clusters() && h_.has_edge(u, v),
                  "no links for H-edge " << u << "," << v);
    return LinkSpan(std::minmax(u, v));
  }
  const auto e = static_cast<std::size_t>(edge_index(u, v));
  const auto b = static_cast<std::size_t>(link_off_[e]);
  return {link_pairs_.data() + b,
          static_cast<std::size_t>(link_off_[e + 1]) - b};
}

void ClusterGraph::set_dilation() {
  for (const auto& c : clusters_) {
    dilation_ = std::max(dilation_, c.diameter);
    max_height_ = std::max(max_height_, c.height);
  }
}

int ClusterGraph::default_bandwidth(int beta) const {
  return beta *
         std::max(1, ceil_log2(static_cast<std::uint64_t>(
                        std::max(2, n_machines()))));
}

ClusterGraph ClusterGraph::singleton(graph::Graph h) {
  h.finalize();
  ClusterGraph cg;
  cg.singleton_ = true;
  cg.h_ = std::move(h);
  const int n = cg.h_.n();
  cg.cluster_of_.resize(static_cast<std::size_t>(n));
  cg.clusters_.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    cg.cluster_of_[static_cast<std::size_t>(v)] = v;
    auto& c = cg.clusters_[static_cast<std::size_t>(v)];
    c.members = {v};
    c.parent = {-1};
    c.depth = {0};  // a one-machine tree: height and diameter stay 0
  }
  return cg;
}

ClusterGraph ClusterGraph::expand(const graph::Graph& h,
                                  const ExpandSpec& spec, Rng& rng) {
  CCG_CHECK(spec.size >= 1 && spec.links_per_edge >= 1);
  const int size =
      spec.shape == ClusterShape::kSingleton ? 1 : spec.size;
  const int n_h = h.n();
  ClusterGraph cg;
  cg.h_ = h;
  cg.h_.finalize();
  graph::Graph machines(n_h * size);
  cg.cluster_of_.resize(static_cast<std::size_t>(n_h) *
                        static_cast<std::size_t>(size));
  cg.clusters_.resize(static_cast<std::size_t>(n_h));

  for (int v = 0; v < n_h; ++v) {
    auto& c = cg.clusters_[static_cast<std::size_t>(v)];
    c.members.resize(static_cast<std::size_t>(size));
    c.parent.assign(static_cast<std::size_t>(size), -1);
    for (int i = 0; i < size; ++i) {
      const int m = v * size + i;
      c.members[static_cast<std::size_t>(i)] = m;
      cg.cluster_of_[static_cast<std::size_t>(m)] = v;
    }
    for (int i = 1; i < size; ++i) {
      int p = 0;
      switch (spec.shape) {
        case ClusterShape::kSingleton:
          p = -1;
          break;
        case ClusterShape::kStar:
          p = 0;
          break;
        case ClusterShape::kPath:
        case ClusterShape::kBridgePath:
          p = i - 1;
          break;
        case ClusterShape::kRandomTree:
          p = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i)));
          break;
        case ClusterShape::kBalancedBinary:
          p = (i - 1) / 2;
          break;
      }
      c.parent[static_cast<std::size_t>(i)] = p;
      machines.add_edge(c.members[static_cast<std::size_t>(i)],
                        c.members[static_cast<std::size_t>(p)]);
    }
    finish_cluster(c);
  }

  // Attach point inside cluster `v` for an H-edge toward `other`.
  const auto attach = [&](int v, int other) -> int {
    const auto& c = cg.clusters_[static_cast<std::size_t>(v)];
    switch (spec.shape) {
      case ClusterShape::kSingleton:
        return c.members[0];
      case ClusterShape::kStar:
        if (size == 1) return c.members[0];
        return c.members[1 + static_cast<std::size_t>(rng.next_below(
                                 static_cast<std::uint64_t>(size - 1)))];
      case ClusterShape::kBridgePath:
        // All links at the two path ends, split by neighbor parity: the
        // Fig. 2/3 shape where information about half the neighbors must
        // cross the single central link.
        return (other % 2 == 0) ? c.members.front() : c.members.back();
      default:
        return c.members[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(size)))];
    }
  };

  // H-edges in h_.edges() order; each edge's distinct links ascending.
  cg.index_h_edges();
  cg.link_off_.reserve(static_cast<std::size_t>(cg.h_.m()) + 1);
  cg.link_off_.push_back(0);
  auto& pairs = cg.link_pairs_;
  pairs.reserve(static_cast<std::size_t>(cg.h_.m()) *
                static_cast<std::size_t>(spec.links_per_edge));
  for (const auto& [u, v] : cg.h_.edges()) {
    const auto first = static_cast<std::ptrdiff_t>(pairs.size());
    for (int i = 0; i < spec.links_per_edge; ++i) {
      const int mu = attach(u, v);
      const int mv = attach(v, u);
      pairs.emplace_back(mu, mv);
    }
    std::sort(pairs.begin() + first, pairs.end());
    pairs.erase(std::unique(pairs.begin() + first, pairs.end()), pairs.end());
    for (auto it = pairs.begin() + first; it != pairs.end(); ++it) {
      machines.add_edge(it->first, it->second);
    }
    cg.link_off_.push_back(static_cast<std::int64_t>(pairs.size()));
  }
  machines.finalize();
  cg.machines_ = std::move(machines);
  cg.set_dilation();
  return cg;
}

ClusterGraph ClusterGraph::from_partition(graph::Graph g,
                                          std::vector<int> cluster_of) {
  g.finalize();
  CCG_CHECK(static_cast<int>(cluster_of.size()) == g.n());
  int k = 0;
  for (const int c : cluster_of) {
    CCG_CHECK(c >= 0);
    k = std::max(k, c + 1);
  }
  ClusterGraph cg;
  cg.cluster_of_ = std::move(cluster_of);
  cg.clusters_.resize(static_cast<std::size_t>(k));
  for (int m = 0; m < g.n(); ++m) {
    cg.clusters_[static_cast<std::size_t>(cg.cluster_of_[
                     static_cast<std::size_t>(m)])]
        .members.push_back(m);
  }

  // Support trees: BFS from the leader (minimum-id member) restricted to
  // intra-cluster edges; members are reordered into BFS discovery order so
  // parents precede children.
  std::vector<int> member_index(static_cast<std::size_t>(g.n()), -1);
  for (int c = 0; c < k; ++c) {
    auto& cl = cg.clusters_[static_cast<std::size_t>(c)];
    CCG_CHECK_MSG(!cl.members.empty(), "empty cluster " << c);
    std::sort(cl.members.begin(), cl.members.end());
    const int leader = cl.members.front();
    std::vector<int> order;
    std::vector<int> parent_of;  // aligned with order
    order.reserve(cl.members.size());
    std::queue<int> q;
    q.push(leader);
    member_index[static_cast<std::size_t>(leader)] = 0;
    order.push_back(leader);
    parent_of.push_back(-1);
    while (!q.empty()) {
      const int m = q.front();
      q.pop();
      for (const int u : g.neighbors(m)) {
        if (cg.cluster_of_[static_cast<std::size_t>(u)] != c) continue;
        if (member_index[static_cast<std::size_t>(u)] != -1) continue;
        member_index[static_cast<std::size_t>(u)] =
            static_cast<int>(order.size());
        order.push_back(u);
        parent_of.push_back(member_index[static_cast<std::size_t>(m)]);
        q.push(u);
      }
    }
    CCG_CHECK_MSG(order.size() == cl.members.size(),
                  "cluster " << c << " is not connected in G");
    cl.members = std::move(order);
    cl.parent = std::move(parent_of);
    finish_cluster(cl);
  }

  // H-edges: the cluster pairs of the crossing G-edges, sorted and
  // deduplicated. `crossing` keeps each crossing G-edge's link, normalized
  // so that first lives in the lower-id cluster, in g's edge order.
  std::vector<std::pair<int, int>> pairs;
  std::vector<std::pair<int, int>> crossing;
  for (int mu = 0; mu < g.n(); ++mu) {
    const int cu = cg.cluster_of_[static_cast<std::size_t>(mu)];
    for (const int mv : g.neighbors(mu)) {
      const int cv = cg.cluster_of_[static_cast<std::size_t>(mv)];
      if (mv < mu || cu == cv) continue;
      pairs.push_back(std::minmax(cu, cv));
      crossing.push_back(cu < cv ? std::pair{mu, mv} : std::pair{mv, mu});
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  cg.h_ = graph::Graph::from_edges(k, pairs);
  cg.index_h_edges();

  // Counting sort of the links by H-edge index; stable, so each H-edge
  // lists its links in g's edge order.
  std::vector<std::int64_t> edge_of(crossing.size());
  cg.link_off_.assign(pairs.size() + 1, 0);
  for (std::size_t i = 0; i < crossing.size(); ++i) {
    const auto& [mu, mv] = crossing[i];
    edge_of[i] =
        cg.edge_index(cg.cluster_of_[static_cast<std::size_t>(mu)],
                      cg.cluster_of_[static_cast<std::size_t>(mv)]);
    ++cg.link_off_[static_cast<std::size_t>(edge_of[i]) + 1];
  }
  for (std::size_t e = 0; e < pairs.size(); ++e) {
    cg.link_off_[e + 1] += cg.link_off_[e];
  }
  std::vector<std::int64_t> cursor(cg.link_off_.begin(),
                                   cg.link_off_.end() - 1);
  cg.link_pairs_.resize(crossing.size());
  for (std::size_t i = 0; i < crossing.size(); ++i) {
    cg.link_pairs_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(edge_of[i])]++)] = crossing[i];
  }
  cg.machines_ = std::move(g);
  cg.set_dilation();
  return cg;
}

std::vector<int> random_partition(const graph::Graph& g, int k, Rng& rng) {
  CCG_CHECK(k >= 1 && k <= g.n());
  CCG_CHECK_MSG(g.is_connected(), "random_partition needs a connected G");
  std::vector<int> assign(static_cast<std::size_t>(g.n()), -1);
  const auto seeds_perm = rng.permutation(g.n());
  std::queue<int> q;
  for (int i = 0; i < k; ++i) {
    const int s = seeds_perm[static_cast<std::size_t>(i)];
    assign[static_cast<std::size_t>(s)] = i;
    q.push(s);
  }
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (const int u : g.neighbors(v)) {
      if (assign[static_cast<std::size_t>(u)] == -1) {
        assign[static_cast<std::size_t>(u)] =
            assign[static_cast<std::size_t>(v)];
        q.push(u);
      }
    }
  }
  return assign;
}

}  // namespace ccg::cluster
