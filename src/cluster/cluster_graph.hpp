// Cluster graphs (paper, Definition 3.1).
//
// A cluster graph H over a communication network G partitions the machines
// V_G into disjoint connected clusters V(v); H has an edge {u, v} iff some
// G-link connects V(u) and V(v). Each cluster elects a leader and carries a
// support tree T(v) spanning V(v); one H-round is broadcast on T(v) +
// inter-cluster edge computation + aggregation on T(v) (Section 3.2).
//
// Three constructions are provided:
//  * singleton  — every machine is its own cluster: H = G, the CONGEST case.
//  * expand     — start from the conflict graph H and *build* G by blowing
//                 every vertex up into a cluster of a chosen shape. This is
//                 the controlled direction used by benches; the BridgePath
//                 shape reproduces the adversarial topology of Figures 2/3
//                 (all inter-cluster information crosses one bridge link).
//  * from_partition — start from G plus a machine->cluster assignment and
//                 derive H, the direction of Definition 3.1 / Figure 1.
//
// Link storage. H's edges are numbered in h().edges() order: row u's
// upper neighbors v > u, rows ascending (the index ComputeACD's pass A
// uses). H-edge e's G-links are link_pairs_[link_off_[e], link_off_[e+1]),
// one flat array beside H's CSR. A singleton stores no links and no copy
// of H: its H-edge {u, v} is the one G-link (min(u, v), max(u, v)), and
// machines() is h() itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace ccg::cluster {

struct Cluster {
  std::vector<int> members;  // machine ids; members[0] is the leader
  std::vector<int> parent;   // support-tree parent as *member index*; -1 root
  std::vector<int> depth;    // member depth in the support tree
  int height = 0;            // max depth
  int diameter = 0;          // support-tree diameter in G-edges

  int size() const { return static_cast<int>(members.size()); }
  int leader() const { return members.front(); }
};

enum class ClusterShape {
  kSingleton,       // one machine
  kStar,            // leader center, size-1 leaves
  kPath,            // path; leader at one end
  kRandomTree,      // uniform random recursive tree
  kBalancedBinary,  // complete-ish binary tree
  kBridgePath,      // path whose inter-cluster links attach only at the two
                    // ends, split by neighbor parity (Fig. 2/3 topology)
};

struct ExpandSpec {
  ClusterShape shape = ClusterShape::kStar;
  int size = 4;            // machines per cluster, >= 1
  int links_per_edge = 1;  // parallel G-links per H-edge, >= 1
};

// The G-links of one H-edge: a view into the flat link array, or the one
// link a singleton H-edge carries by value. Copy an element out before the
// view goes away.
class LinkSpan {
 public:
  using Link = std::pair<int, int>;
  LinkSpan(const Link* data, std::size_t size) : data_(data), size_(size) {}
  explicit LinkSpan(Link only) : size_(1), only_(only) {}

  const Link* begin() const { return data_ != nullptr ? data_ : &only_; }
  const Link* end() const { return begin() + size_; }
  std::size_t size() const { return size_; }
  const Link& front() const { return *begin(); }

 private:
  const Link* data_ = nullptr;
  std::size_t size_ = 0;
  Link only_{};
};

class ClusterGraph {
 public:
  static ClusterGraph singleton(graph::Graph h);
  static ClusterGraph expand(const graph::Graph& h, const ExpandSpec& spec,
                             Rng& rng);
  static ClusterGraph from_partition(graph::Graph g,
                                     std::vector<int> cluster_of);

  const graph::Graph& h() const { return h_; }
  const graph::Graph& machines() const {
    return singleton_ ? h_ : machines_;
  }
  int num_clusters() const { return h_.n(); }
  int n_machines() const { return machines().n(); }

  const Cluster& cluster(int v) const {
    return clusters_[static_cast<std::size_t>(v)];
  }
  int cluster_of_machine(int m) const {
    return cluster_of_[static_cast<std::size_t>(m)];
  }

  // Max support-tree diameter: the paper's dilation d.
  int dilation() const { return dilation_; }
  // G-rounds consumed by one <=B-bit H-round chunk: down + across + up.
  int epoch_depth() const { return 2 * max_height_ + 1; }

  // G-links realizing H-edge {u, v} as machine pairs, normalized so that
  // pair.first lives in the lower-id cluster of {u, v}. Non-empty for every
  // H-edge; may contain many parallel links. O(log deg) to find the edge.
  LinkSpan links(int u, int v) const;

  // Default per-link bandwidth B = beta * ceil(log2 n_machines).
  int default_bandwidth(int beta = 4) const;

 private:
  // Fills upper_off_ from h_ (finalized).
  void index_h_edges();
  // Index of H-edge {u, v} in h_.edges() order; CCG_CHECKs that it exists.
  std::int64_t edge_index(int u, int v) const;
  void set_dilation();

  graph::Graph h_;
  graph::Graph machines_;  // empty when singleton_: machines() is h_
  bool singleton_ = false;
  std::vector<int> cluster_of_;
  std::vector<Cluster> clusters_;
  // upper_off_[u] = #H-edges {x, y}, x < y, with x < u (n + 1 entries);
  // link_off_ has one entry per H-edge plus one. All three are empty for
  // singletons.
  std::vector<std::int64_t> upper_off_;
  std::vector<std::int64_t> link_off_;
  std::vector<std::pair<int, int>> link_pairs_;
  int dilation_ = 0;
  int max_height_ = 0;
};

// Grow `k` clusters over G by parallel multi-source BFS from random seeds;
// returns a machine->cluster assignment with connected clusters covering G.
// Requires G connected.
std::vector<int> random_partition(const graph::Graph& g, int k, Rng& rng);

}  // namespace ccg::cluster
