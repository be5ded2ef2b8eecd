#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <queue>
#include <set>
#include <utility>

namespace ccg::graph {

Graph gnp(int n, double p, Rng& rng) {
  Graph g(n);
  if (p <= 0.0) {
    g.finalize();
    return g;
  }
  // Geometric skipping for sparse p.
  if (p >= 1.0) {
    for (int u = 0; u < n; ++u)
      for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
    g.finalize();
    return g;
  }
  const double log1p_ = std::log(1.0 - p);
  std::int64_t idx = -1;
  const std::int64_t total =
      static_cast<std::int64_t>(n) * (n - 1) / 2;
  // Decode the linear index to (row, col) of the upper triangle. The index
  // only grows, so the row and its first index carry across samples.
  int row = 0;
  std::int64_t row_start = 0;
  std::int64_t row_len = n - 1;
  for (;;) {
    double u = rng.next_double();
    while (u <= 0.0) u = rng.next_double();
    idx += 1 + static_cast<std::int64_t>(std::floor(std::log(u) / log1p_));
    if (idx >= total) break;
    while (idx - row_start >= row_len) {
      row_start += row_len;
      ++row;
      --row_len;
    }
    const int col = row + 1 + static_cast<int>(idx - row_start);
    g.add_edge(row, col);
  }
  g.finalize();
  return g;
}

Graph gnm(int n, std::int64_t m, Rng& rng) {
  Graph g(n);
  std::set<std::pair<int, int>> used;
  const std::int64_t max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
  CCG_CHECK(m <= max_m);
  while (static_cast<std::int64_t>(used.size()) < m) {
    int u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (used.insert({u, v}).second) g.add_edge(u, v);
  }
  g.finalize();
  return g;
}

Graph random_tree(int n, Rng& rng) {
  Graph g(n);
  for (int v = 1; v < n; ++v) {
    const int parent =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(v)));
    g.add_edge(parent, v);
  }
  g.finalize();
  return g;
}

Graph path(int n) {
  Graph g(n);
  for (int v = 1; v < n; ++v) g.add_edge(v - 1, v);
  g.finalize();
  return g;
}

Graph cycle(int n) {
  CCG_CHECK(n >= 3);
  Graph g(n);
  for (int v = 1; v < n; ++v) g.add_edge(v - 1, v);
  g.add_edge(n - 1, 0);
  g.finalize();
  return g;
}

Graph star(int n) {
  CCG_CHECK(n >= 1);
  Graph g(n);
  for (int v = 1; v < n; ++v) g.add_edge(0, v);
  g.finalize();
  return g;
}

Graph complete(int n) {
  Graph g(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  g.finalize();
  return g;
}

Graph grid(int w, int h) {
  Graph g(w * h);
  const auto id = [w](int x, int y) { return y * w + x; };
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (x + 1 < w) g.add_edge(id(x, y), id(x + 1, y));
      if (y + 1 < h) g.add_edge(id(x, y), id(x, y + 1));
    }
  }
  g.finalize();
  return g;
}

Graph graph_power(const Graph& g, int k) {
  CCG_CHECK(k >= 1);
  Graph p(g.n());
  std::vector<int> dist(static_cast<std::size_t>(g.n()), -1);
  std::vector<int> touched;
  for (int s = 0; s < g.n(); ++s) {
    // Bounded BFS to depth k.
    touched.clear();
    dist[static_cast<std::size_t>(s)] = 0;
    touched.push_back(s);
    std::queue<int> q;
    q.push(s);
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      const int dv = dist[static_cast<std::size_t>(v)];
      if (dv == k) continue;
      for (const int u : g.neighbors(v)) {
        if (dist[static_cast<std::size_t>(u)] == -1) {
          dist[static_cast<std::size_t>(u)] = dv + 1;
          touched.push_back(u);
          q.push(u);
        }
      }
    }
    for (const int u : touched) {
      if (u > s) p.add_edge(s, u);
      dist[static_cast<std::size_t>(u)] = -1;
    }
  }
  p.finalize();
  return p;
}

Graph chung_lu(int n, double avg_deg, double gamma, Rng& rng) {
  CCG_CHECK(n >= 2 && avg_deg > 0 && gamma > 2.0);
  // Weights w_i ~ (i+1)^(-beta), beta = 1/(gamma-1), scaled to hit the
  // requested average degree; edge {i,j} appears w.p. w_i w_j / W.
  // Expected degree of i is w_i (since deg_i = w_i * sum_j w_j / W with
  // W = sum w): scale the raw power-law weights so W = avg_deg * n.
  const double beta = 1.0 / (gamma - 1.0);
  std::vector<double> w(static_cast<std::size_t>(n));
  double raw_sum = 0;
  for (int i = 0; i < n; ++i) {
    w[static_cast<std::size_t>(i)] =
        std::pow(static_cast<double>(i + 1), -beta);
    raw_sum += w[static_cast<std::size_t>(i)];
  }
  const double sum_w = avg_deg * n;
  for (auto& x : w) x *= sum_w / raw_sum;

  Graph g(n);
  // Efficient Chung-Lu sampling (Miller-Hagberg): vertices sorted by
  // weight descending (they already are), skip runs geometrically.
  for (int i = 0; i < n; ++i) {
    int j = i + 1;
    double p = std::min(
        1.0, w[static_cast<std::size_t>(i)] *
                 w[static_cast<std::size_t>(static_cast<std::size_t>(
                     std::min(j, n - 1)))] /
                 sum_w);
    while (j < n && p > 0) {
      if (p < 1.0) {
        double u = rng.next_double();
        while (u <= 0.0) u = rng.next_double();
        j += static_cast<int>(std::floor(std::log(u) / std::log1p(-p)));
      }
      if (j >= n) break;
      const double q = std::min(
          1.0, w[static_cast<std::size_t>(i)] *
                   w[static_cast<std::size_t>(j)] / sum_w);
      if (rng.next_double() < q / p) g.add_edge(i, j);
      p = q;
      ++j;
    }
  }
  g.finalize();
  return g;
}

Graph caveman(int cliques, int size, int bridges, Rng& rng) {
  CCG_CHECK(cliques >= 2 && size >= 2 && bridges >= 1);
  const int n = cliques * size;
  Graph g(n);
  for (int k = 0; k < cliques; ++k) {
    const int base = k * size;
    for (int a = 0; a < size; ++a) {
      for (int b = a + 1; b < size; ++b) {
        g.add_edge(base + a, base + b);
      }
    }
  }
  // Ring: `bridges` distinct random pairs between consecutive blocks.
  for (int k = 0; k < cliques; ++k) {
    const int lo = k * size;
    const int hi = ((k + 1) % cliques) * size;
    std::set<std::pair<int, int>> used;
    while (static_cast<int>(used.size()) < std::min(bridges, size * size)) {
      const int a =
          lo + static_cast<int>(rng.next_below(
                   static_cast<std::uint64_t>(size)));
      const int b =
          hi + static_cast<int>(rng.next_below(
                   static_cast<std::uint64_t>(size)));
      if (used.insert({a, b}).second) g.add_edge(a, b);
    }
  }
  g.finalize();
  return g;
}

namespace {

// Adds in-block edges for one planted block: complete graph minus a
// circulant of anti-edges on randomly relabelled vertices, so every vertex
// has anti-degree exactly `anti`.
void add_block_edges(Graph& g, const std::vector<int>& members, int anti,
                     Rng& rng) {
  const int s = static_cast<int>(members.size());
  CCG_CHECK_MSG(anti >= 0 && anti <= s - 2,
                "anti-degree " << anti << " infeasible for block size " << s);
  // anti must make an anti-degree-regular graph realizable: s*anti even.
  // The circulant uses offsets 1..anti/2 (each contributing 2 to the
  // anti-degree) plus the diametral matching when anti is odd (needs even s).
  CCG_CHECK_MSG(anti % 2 == 0 || s % 2 == 0,
                "odd anti-degree needs even block size");
  auto label = rng.permutation(s);
  std::vector<bool> anti_mark;
  // anti_adjacent(i, j) in circulant terms.
  const auto is_anti = [&](int i, int j) {
    int diff = std::abs(i - j);
    diff = std::min(diff, s - diff);
    if (diff >= 1 && diff <= anti / 2) return true;
    if (anti % 2 == 1 && diff == s / 2) return true;
    return false;
  };
  (void)anti_mark;
  for (int i = 0; i < s; ++i) {
    for (int j = i + 1; j < s; ++j) {
      if (!is_anti(label[static_cast<std::size_t>(i)],
                   label[static_cast<std::size_t>(j)])) {
        g.add_edge(members[static_cast<std::size_t>(i)],
                   members[static_cast<std::size_t>(j)]);
      }
    }
  }
}

}  // namespace

PlantedGraph make_planted_acd(const PlantedSpec& spec, Rng& rng) {
  CCG_CHECK(spec.num_cliques >= 1 || spec.num_sparse > 0);
  CCG_CHECK(spec.delta >= 2);
  const int block_size = spec.delta + 1 - spec.external_deg + spec.anti_deg;
  CCG_CHECK_MSG(block_size >= 2, "block size too small; lower external_deg");
  if (spec.num_cliques == 1) {
    CCG_CHECK_MSG(spec.external_deg == 0 || spec.num_sparse > 0,
                  "external edges need a second block or sparse part");
  }

  const int n_dense = spec.num_cliques * block_size;
  const int n = n_dense + spec.num_sparse;
  Graph g(n);
  std::vector<int> clique_of(static_cast<std::size_t>(n), -1);

  // Dense blocks.
  std::vector<std::vector<int>> blocks(
      static_cast<std::size_t>(spec.num_cliques));
  for (int c = 0; c < spec.num_cliques; ++c) {
    auto& members = blocks[static_cast<std::size_t>(c)];
    members.reserve(static_cast<std::size_t>(block_size));
    for (int i = 0; i < block_size; ++i) {
      const int v = c * block_size + i;
      members.push_back(v);
      clique_of[static_cast<std::size_t>(v)] = c;
    }
    add_block_edges(g, members, spec.anti_deg, rng);
  }

  // External edges via stub matching. Each dense vertex owns external_deg
  // stubs; a configurable fraction is wired into the sparse part.
  std::vector<int> stubs;
  std::vector<int> sparse_stubs;
  for (int v = 0; v < n_dense; ++v) {
    for (int i = 0; i < spec.external_deg; ++i) {
      if (spec.num_sparse > 0 && rng.next_bool(spec.external_to_sparse)) {
        sparse_stubs.push_back(v);
      } else {
        stubs.push_back(v);
      }
    }
  }
  std::set<std::pair<int, int>> ext_used;
  const auto try_add_external = [&](int u, int v) {
    if (u == v) return false;
    if (clique_of[static_cast<std::size_t>(u)] ==
            clique_of[static_cast<std::size_t>(v)] &&
        clique_of[static_cast<std::size_t>(u)] != -1) {
      return false;
    }
    auto key = std::minmax(u, v);
    if (!ext_used.insert({key.first, key.second}).second) return false;
    g.add_edge(u, v);
    return true;
  };
  // Shuffle and pair adjacent stubs; a bounded number of reshuffle passes
  // retires conflicting pairs.
  for (int pass = 0; pass < 20 && stubs.size() >= 2; ++pass) {
    const auto perm = rng.permutation(static_cast<int>(stubs.size()));
    std::vector<int> rest;
    for (std::size_t i = 0; i + 1 < perm.size(); i += 2) {
      const int u = stubs[static_cast<std::size_t>(perm[i])];
      const int v = stubs[static_cast<std::size_t>(perm[i + 1])];
      if (!try_add_external(u, v)) {
        rest.push_back(u);
        rest.push_back(v);
      }
    }
    if (perm.size() % 2 == 1) {
      rest.push_back(stubs[static_cast<std::size_t>(perm.back())]);
    }
    stubs = std::move(rest);
  }

  // Sparse background: G(n_s, p) with expected degree sparse_avg_deg, then
  // attach dense->sparse stubs to random sparse vertices with spare
  // capacity (degree < delta).
  if (spec.num_sparse > 0) {
    const int n_s = spec.num_sparse;
    const double p =
        n_s > 1 ? std::min(1.0, spec.sparse_avg_deg / (n_s - 1)) : 0.0;
    Graph sp = gnp(n_s, p, rng);
    for (const auto& [u, v] : sp.edges()) {
      g.add_edge(n_dense + u, n_dense + v);
    }
    std::vector<int> sparse_deg(static_cast<std::size_t>(n_s), 0);
    for (int v = 0; v < n_s; ++v) sparse_deg[static_cast<std::size_t>(v)] =
        sp.degree(v);
    for (const int u : sparse_stubs) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        const int sv = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(n_s)));
        if (sparse_deg[static_cast<std::size_t>(sv)] >= spec.delta) continue;
        if (try_add_external(u, n_dense + sv)) {
          ++sparse_deg[static_cast<std::size_t>(sv)];
          break;
        }
      }
    }
  }

  g.finalize();
  PlantedGraph out;
  out.delta = g.max_degree();
  out.g = std::move(g);
  out.clique_of = std::move(clique_of);
  out.num_cliques = spec.num_cliques;
  return out;
}

}  // namespace ccg::graph
