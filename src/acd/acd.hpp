// Almost-clique decomposition on cluster graphs (paper, Section 5.4,
// Definitions 4.1/4.2, Proposition 4.3).
//
// ComputeACD partitions V_H into sparse vertices and eps-almost-cliques
// using only fingerprint-based estimates:
//   1. estimate degrees d̂(v); low-degree vertices answer No on all edges;
//   2. for surviving edges, estimate F ≈ |N(u) ∪ N(v)| from the union of
//      neighborhood fingerprints; an edge is a *buddy edge* when
//      F <= (1 + 1.5 xi') Delta (Lemma 5.8's xi-buddy predicate);
//   3. count per-vertex buddy degrees (fingerprints again); vertices with
//      >= (1 - 2 xi) Delta buddy edges are dense candidates;
//   4. almost-cliques = connected components of the buddy graph restricted
//      to dense candidates ([ACK19, Lemma 4.8]); they have diameter <= 2,
//      so an O(1)-round BFS elects each component's leader (Lemma 3.2).
//      The simulator finds them by union-find over the buddy flags.
//
// An exact oracle mode computes the same decomposition from true degrees
// and true joint-neighborhood sizes while charging identical rounds; the
// pipeline uses it at large scale (DESIGN.md substitution #1, ablation E18
// quantifies the difference). It decides the buddy predicate only on
// edges whose endpoints both pass step 1's filter, as
// |N(u) ∩ N(v)| >= deg u + deg v - floor((1 + xi) Delta), which is exactly
// |N(u) ∪ N(v)| <= (1 + xi) Delta. When both rows carry an adjacency
// bitset (graph::Graph keeps one per row of degree >= 64), u's four
// densest words (bits::densest_four, picked once per row) settle the edge
// when their count reaches the bound or cannot with the rest of u's row.
// Only an edge they leave open packs u's row, densest words first, and
// bits::and_popcount_at_least stops as soon as the count or the popcount
// of the unread words settles it; rows without a bitset use a stamp
// probe.
//
// Both modes walk each row's upper neighbors (v > u) in place, with no
// edge list: one contiguous row range per worker, balanced by the upper
// degree of high rows, computes the per-edge buddy flags and the buddy
// degrees in a single parallel pass. A serial union-find sweep over the
// flags then joins candidate buddies, the smaller root winning; each row
// finds its own root once and follows it through the row's unions. Every
// root is its component's smallest vertex, so clique ids go to
// components in order of their smallest vertex and members come out
// ascending, for any worker count and any union order.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/runtime.hpp"
#include "common/rng.hpp"
#include "sketch/approx_count.hpp"

namespace ccg::exec {
class ParallelRound;
}  // namespace ccg::exec

namespace ccg::acd {

struct AcdParams {
  double eps = 0.05;   // epsilon of the decomposition
  double xi = 0.0;     // buddy-predicate slack; 0 -> defaults to eps
  int t = 96;          // fingerprint width for all estimates
  bool use_fingerprints = true;  // false -> exact oracle mode (same cost)
  bool measure_bits = true;
  // Optional round engine: parallelizes the buddy flags and degrees over
  // balanced row ranges. Results are identical with or without it.
  exec::ParallelRound* par = nullptr;
};

struct AcdResult {
  // Almost-clique id per vertex; -1 for sparse vertices.
  std::vector<int> clique_of;
  int num_cliques = 0;
  // Degree estimates d̂(v) from step 1 (exact in oracle mode).
  std::vector<double> degree_est;
  // Members per clique id. Only entries [0, num_cliques) are meaningful:
  // under reuse the outer vector is grow-only, so stale inner vectors may
  // trail past num_cliques.
  std::vector<std::vector<int>> members;

  // Rebind for a new run, keeping every capacity (outer members included).
  void reset(int n) {
    clique_of.assign(static_cast<std::size_t>(n), -1);
    num_cliques = 0;
    degree_est.assign(static_cast<std::size_t>(n), 0.0);
  }
};

// Grow-only working storage for compute_acd/annotate_dense. Owned by the
// caller (color::State keeps one per arena) so back-to-back jobs on warm
// state run the whole decomposition without heap traffic.
struct AcdScratch {
  std::vector<double> union_est;  // fingerprint mode: per edge, edges() order
  std::vector<char> buddy;        // per edge, edges() order: Lemma 5.8
  std::vector<char> high, candidate;    // per vertex
  // upper_off[u]: edges() index of row u's first upper neighbor (v > u).
  std::vector<int> upper_off;
  // range_begin[p, p+1): worker p's rows, balanced by high rows' upper
  // degrees.
  std::vector<int> range_begin;
  // Row p * n + v: how many lower buddies range p gives v.
  std::vector<int> lower_cur;
  // Oracle mode, per worker: the stamp array and u's bitset row packed
  // densest word first (bits::pack_densest_first). The packed row serves
  // only rows with an edge that u's four densest words leave open.
  struct Worker {
    std::vector<int> stamp;
    std::vector<std::uint64_t> row_words;  // nonzero words of u's row
    std::vector<std::int32_t> row_index;   // ... their word indices
    std::vector<std::int32_t> row_rest;    // ... suffix popcounts
  };
  std::vector<Worker> workers;
  // Fingerprint mode: raw per-vertex samples and the aggregated counts
  // (estimates + per-vertex maxima). Both rebind in place, so warm
  // fingerprint decompositions skip the per-vertex buffer rebuilds.
  std::vector<sketch::Fingerprint> raw;
  sketch::CountResult counts;
  std::vector<int> buddy_deg;  // per vertex: buddy edges at v
  // Step 4's union-find: root[v] is v's parent, the smaller vertex of a
  // union; after the sweep, v's component root. comp[r] is the size of
  // the component rooted at r.
  std::vector<int> root, comp;
};

// Stream-based, scratch-backed decomposition: every random draw comes from
// a per-(round, vertex) counter stream of `streams` (bumped internally per
// sampling sub-phase), so results are bit-identical for any worker count
// of params.par. `out` and `scratch` are rebound, never shrunk. Throws
// ContractViolation when an almost-clique exceeds (1 + 3 eps) Delta: after
// 3 fingerprint attempts, or after the first oracle attempt (the oracle is
// deterministic, so a retry would repeat it).
void compute_acd(cluster::Runtime& rt, const AcdParams& params,
                 StreamCtx& streams, AcdResult* out, AcdScratch* scratch);

// Convenience wrapper: fresh result, one-shot scratch, stream space seeded
// from the caller's generator.
AcdResult compute_acd(cluster::Runtime& rt, const AcdParams& params,
                      Rng& rng);

// Definition 4.2 checker: (2i) |K| <= (1+eps')Delta and (2ii) every v in K
// has |N(v) ∩ K| >= (1-eps')|K|. Verified with slack factor eps' =
// slack*eps to accommodate estimate noise (tests use slack values matching
// the constants in Lemma 5.8's guarantee). Returns false with a reason via
// *why if non-null.
bool verify_almost_cliques(const graph::Graph& h,
                           const AcdResult& acd, double eps_prime,
                           std::string* why = nullptr);

// ---- Dense-vertex annotations used by the coloring pipeline ----

struct DenseInfo {
  // ẽ_v: external degree estimate per vertex (0 for sparse).
  std::vector<double> ext_est;
  // exact |K| per clique id (computable exactly by tree aggregation).
  std::vector<int> clique_size;
  // ẽ_K: average external-degree estimate per clique id.
  std::vector<double> avg_ext_est;
  // cabal flag per clique id: ẽ_K < ell.
  std::vector<bool> is_cabal;
};

// Computes ẽ_v by fingerprinting with predicate "u outside K_v"
// (Lemma 5.7), aggregates per-clique averages on clique BFS trees, and
// classifies cabals against the threshold ell (paper: Theta(log^1.1 n)).
// Stream-based primary form: draws (fingerprint mode only) come from
// per-vertex counter streams, results are worker-count independent, and
// `out` is rebound in place.
// `scratch` (optional) hosts the fingerprint-mode sampling buffers — pass
// the compute_acd scratch so warm annotations stay allocation-free.
void annotate_dense(cluster::Runtime& rt, const AcdResult& acd, double ell,
                    int t, bool use_fingerprints, StreamCtx& streams,
                    exec::ParallelRound* par, DenseInfo* out,
                    AcdScratch* scratch = nullptr);

// Convenience wrapper (fresh DenseInfo, stream space seeded from rng).
DenseInfo annotate_dense(cluster::Runtime& rt, const AcdResult& acd,
                         double ell, int t, bool use_fingerprints,
                         Rng& rng, exec::ParallelRound* par = nullptr);

}  // namespace ccg::acd
