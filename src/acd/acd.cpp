#include "acd/acd.hpp"

#include <algorithm>
#include <string>

#include "common/bits.hpp"
#include "common/mathutil.hpp"
#include "exec/parallel_round.hpp"
#include "graph/stats.hpp"
#include "sketch/approx_count.hpp"

namespace ccg::acd {

namespace {

void attempt(cluster::Runtime& rt, const AcdParams& params,
             StreamCtx& streams, AcdResult& res, AcdScratch& s) {
  const auto& h = rt.h();
  const int n = h.n();
  const int delta = rt.delta();
  // Buddy-predicate slack. The paper cascades xi' = 2 xi / c (Lemma 5.8)
  // purely for the union-bound bookkeeping; operationally a single xi at
  // the eps scale realizes the same predicate, and planted instances need
  // (2 e_v + 2 a_v) <= ~xi * Delta to be detected (calibration note in
  // EXPERIMENTS.md).
  const double xi = params.xi > 0 ? params.xi : params.eps;

  sketch::CountOptions opt;
  opt.t = params.t;
  opt.measure_bits = params.measure_bits;

  res.reset(n);

  const auto& edges = s.edges;
  // Lemma 5.8's buddy predicate on an edge's joint neighborhood size.
  const double buddy_limit = (1.0 + xi) * delta;

  if (params.use_fingerprints) {
    // Step 1: degree estimates. The sampling draws from per-(round,
    // vertex) counter streams — sharded by params.par with bit-identical
    // results for every worker count. Samples and aggregates live in the
    // grow-only scratch, so warm attempts run the whole estimation
    // without per-vertex buffer rebuilds.
    streams.bump();
    sketch::sample_raw_fingerprints_stream(n, params.t, streams,
                                           params.par, &s.raw);
    sketch::neighborhood_counts_into(
        rt, s.raw, [](int, int) { return true; }, opt, &s.counts);
    res.degree_est = s.counts.estimate;
  } else {
    // Oracle mode: exact values, identical round charges.
    for (int v = 0; v < n; ++v) {
      res.degree_est[static_cast<std::size_t>(v)] = h.degree(v);
    }
    rt.charge(1, 2 * params.t + 16);
  }

  // High-degree filter (Lemma 5.8): low-degree vertices answer No.
  s.high.assign(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    s.high[static_cast<std::size_t>(v)] =
        res.degree_est[static_cast<std::size_t>(v)] >=
        (1.0 - 2.0 * xi) * delta;
  }
  const auto both_high = [&](int u, int v) {
    return s.high[static_cast<std::size_t>(u)] &&
           s.high[static_cast<std::size_t>(v)];
  };

  // Per-edge buddy flag (edges() order), read by both CSR passes below.
  auto& buddy = s.buddy;
  buddy.resize(edges.size());
  if (params.use_fingerprints) {
    // Step 2: joint-neighborhood estimates from a fresh sampling (the
    // paper samples new variables for the union step).
    streams.bump();
    sketch::sample_raw_fingerprints_stream(n, params.t, streams,
                                           params.par, &s.raw);
    sketch::neighborhood_counts_into(
        rt, s.raw, [](int, int) { return true; }, opt, &s.counts);
    sketch::edge_union_estimates_into(rt, s.counts, opt, &s.union_est);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      buddy[e] = both_high(edges[e].first, edges[e].second) &&
                 s.union_est[e] <= buddy_limit;
    }
  } else {
    // Exact |N(u) ∪ N(v)| = deg u + deg v - |N(u) ∩ N(v)|, needed only on
    // high-high edges (any other edge fails the filter above). When both
    // rows have an adjacency bitset (degree >= 64, under Graph's memory
    // cap) the intersection is an AND-popcount of u's row, packed once
    // per row down to its nonzero words, against v's row. Rows without a
    // bitset fall back to stamping N(u) (once per row: edges() is grouped
    // by u) and probing N(v) against the stamps.
    // Sharded over edge ranges by the round engine when one is supplied:
    // each worker keeps its own packed row and stamp array (a shard that
    // starts mid-row simply redoes that row), and flags are per-edge
    // disjoint, so the result is partition-independent.
    const auto num_workers =
        static_cast<std::size_t>(params.par ? params.par->workers() : 1);
    if (s.workers.size() < num_workers) s.workers.resize(num_workers);
    exec::shards_or_inline(
        params.par, static_cast<std::int64_t>(edges.size()),
        [&](int w, std::int64_t b, std::int64_t e) {
          auto& ws = s.workers[static_cast<std::size_t>(w)];
          ws.stamp.assign(static_cast<std::size_t>(n), -1);
          int packed = -1, stamped = -1;
          const auto common_neighbors = [&](int u, int v) {
            if (h.has_bitset_row(u) && h.has_bitset_row(v)) {
              if (packed != u) {
                packed = u;
                ws.row_words.clear();
                ws.row_index.clear();
                const auto* row = h.bitset_words(u);
                for (std::int64_t i = 0; i < h.bitset_words_per_row(); ++i) {
                  if (row[i] == 0) continue;
                  ws.row_words.push_back(row[i]);
                  ws.row_index.push_back(static_cast<std::int32_t>(i));
                }
              }
              return bits::and_popcount(ws.row_words.data(),
                                        ws.row_index.data(),
                                        ws.row_words.size(),
                                        h.bitset_words(v));
            }
            if (stamped != u) {
              stamped = u;
              for (const int x : h.neighbors(u)) {
                ws.stamp[static_cast<std::size_t>(x)] = u;
              }
            }
            int common = 0;
            for (const int x : h.neighbors(v)) {
              common += (ws.stamp[static_cast<std::size_t>(x)] == u);
            }
            return common;
          };
          for (std::int64_t idx = b; idx < e; ++idx) {
            const auto& [u, v] = edges[static_cast<std::size_t>(idx)];
            char is_buddy = 0;
            if (both_high(u, v)) {
              const int joint =
                  h.degree(u) + h.degree(v) - common_neighbors(u, v);
              is_buddy = joint <= buddy_limit;
            }
            buddy[static_cast<std::size_t>(idx)] = is_buddy;
          }
        });
    rt.charge(3, 2 * params.t + 16);
  }

  // Buddy edges, stored as a flat CSR built by count -> prefix-sum ->
  // fill, so the whole build is allocation-free on warm scratch.
  s.buddy_deg.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (buddy[e]) {
      ++s.buddy_deg[static_cast<std::size_t>(edges[e].first)];
      ++s.buddy_deg[static_cast<std::size_t>(edges[e].second)];
    }
  }
  s.buddy_off.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    s.buddy_off[static_cast<std::size_t>(v) + 1] =
        s.buddy_off[static_cast<std::size_t>(v)] +
        s.buddy_deg[static_cast<std::size_t>(v)];
  }
  s.buddy_cur.assign(s.buddy_off.begin(), s.buddy_off.end() - 1);
  s.buddy_adj.resize(static_cast<std::size_t>(s.buddy_off.back()));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (buddy[e]) {
      const auto& [u, v] = edges[e];
      s.buddy_adj[static_cast<std::size_t>(
          s.buddy_cur[static_cast<std::size_t>(u)]++)] = v;
      s.buddy_adj[static_cast<std::size_t>(
          s.buddy_cur[static_cast<std::size_t>(v)]++)] = u;
    }
  }
  const auto buddies = [&](int v) {
    return std::make_pair(s.buddy_off[static_cast<std::size_t>(v)],
                          s.buddy_off[static_cast<std::size_t>(v) + 1]);
  };

  // Step 3: buddy-degree threshold. Counting buddy edges is one more
  // fingerprint aggregation (predicate known at link machines); the count
  // here is exact adjacency size, noise already lives in the buddy set.
  rt.charge(1, 2 * params.t + 16);
  s.candidate.assign(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    s.candidate[static_cast<std::size_t>(v)] =
        static_cast<double>(s.buddy_deg[static_cast<std::size_t>(v)]) >=
        (1.0 - 2.0 * xi) * delta;
  }

  // Step 4: connected components of the candidate-restricted buddy graph
  // (diameter <= 2 per [ACK19]; leader election is an O(1)-round BFS,
  // Lemma 3.2).
  rt.charge(3, 2 * ceil_log2(static_cast<std::uint64_t>(std::max(2, n))));
  const int min_clique_size = std::max(2, delta / 2);
  auto& comp = s.comp;
  auto& bfs = s.bfs;  // queue as vector + cursor
  for (int src = 0; src < n; ++src) {
    if (!s.candidate[static_cast<std::size_t>(src)] ||
        res.clique_of[static_cast<std::size_t>(src)] != -1) {
      continue;
    }
    comp.clear();
    bfs.clear();
    bfs.push_back(src);
    res.clique_of[static_cast<std::size_t>(src)] = -2;  // visiting marker
    comp.push_back(src);
    for (std::size_t head = 0; head < bfs.size(); ++head) {
      const int v = bfs[head];
      const auto [b, e] = buddies(v);
      for (int i = b; i < e; ++i) {
        const int u = s.buddy_adj[static_cast<std::size_t>(i)];
        if (!s.candidate[static_cast<std::size_t>(u)] ||
            res.clique_of[static_cast<std::size_t>(u)] != -1) {
          continue;
        }
        res.clique_of[static_cast<std::size_t>(u)] = -2;
        comp.push_back(u);
        bfs.push_back(u);
      }
    }
    if (static_cast<int>(comp.size()) < min_clique_size) {
      // Too small to be an almost-clique; members stay sparse. Mark them
      // permanently so we do not revisit (use -3, normalized below).
      for (const int v : comp) {
        res.clique_of[static_cast<std::size_t>(v)] = -3;
      }
      continue;
    }
    const int id = res.num_cliques++;
    for (const int v : comp) {
      res.clique_of[static_cast<std::size_t>(v)] = id;
    }
    // Grow-only member storage: reuse the inner vector of this id when a
    // previous run left one behind.
    if (static_cast<int>(res.members.size()) < res.num_cliques) {
      res.members.emplace_back();
    }
    auto& mem = res.members[static_cast<std::size_t>(id)];
    mem.assign(comp.begin(), comp.end());
    std::sort(mem.begin(), mem.end());
  }
  for (auto& c : res.clique_of) {
    if (c < -1) c = -1;
  }
}

}  // namespace

void compute_acd(cluster::Runtime& rt, const AcdParams& params,
                 StreamCtx& streams, AcdResult* out, AcdScratch* scratch) {
  const int delta = rt.delta();
  const int max_size =
      static_cast<int>((1.0 + 3.0 * params.eps) * delta) + 1;
  // The (u < v) edge list in edges() order, walked off the CSR rows into
  // grow-only scratch once for all attempts.
  const auto& h = rt.h();
  scratch->edges.clear();
  for (int u = 0; u < h.n(); ++u) {
    for (const int v : h.neighbors(u)) {
      if (v > u) scratch->edges.emplace_back(u, v);
    }
  }
  for (int tries = 0; tries < 3; ++tries) {
    attempt(rt, params, streams, *out, *scratch);
    bool ok = true;
    for (int id = 0; id < out->num_cliques; ++id) {
      if (static_cast<int>(
              out->members[static_cast<std::size_t>(id)].size()) >
          max_size) {
        ok = false;
        break;
      }
    }
    if (ok) return;
  }
  CCG_CHECK_MSG(false, "ACD failed 3 attempts: merged almost-cliques; "
                       "raise AcdParams::t");
}

AcdResult compute_acd(cluster::Runtime& rt, const AcdParams& params,
                      Rng& rng) {
  StreamCtx streams(rng.next_u64());
  AcdScratch scratch;
  AcdResult res;
  compute_acd(rt, params, streams, &res, &scratch);
  return res;
}

bool verify_almost_cliques(const graph::Graph& h, const AcdResult& acd,
                           double eps_prime, std::string* why) {
  const int delta = h.max_degree();
  for (int id = 0; id < acd.num_cliques; ++id) {
    const auto& members = acd.members[static_cast<std::size_t>(id)];
    const auto size = static_cast<double>(members.size());
    if (size > (1.0 + eps_prime) * delta) {
      if (why) {
        *why = "clique " + std::to_string(id) + " too large: " +
               std::to_string(members.size());
      }
      return false;
    }
    for (const int v : members) {
      int inside = 0;
      for (const int u : h.neighbors(v)) {
        if (acd.clique_of[static_cast<std::size_t>(u)] == id) ++inside;
      }
      if (inside < (1.0 - eps_prime) * size) {
        if (why) {
          *why = "vertex " + std::to_string(v) + " has only " +
                 std::to_string(inside) + " neighbors in its clique of size " +
                 std::to_string(members.size());
        }
        return false;
      }
    }
  }
  return true;
}

void annotate_dense(cluster::Runtime& rt, const AcdResult& acd, double ell,
                    int t, bool use_fingerprints, StreamCtx& streams,
                    exec::ParallelRound* par, DenseInfo* out,
                    AcdScratch* scratch) {
  const auto& h = rt.h();
  const int n = h.n();
  DenseInfo& info = *out;
  info.ext_est.assign(static_cast<std::size_t>(n), 0.0);

  if (use_fingerprints) {
    sketch::CountOptions opt;
    opt.t = t;
    AcdScratch local;
    AcdScratch& s = scratch != nullptr ? *scratch : local;
    streams.bump();
    sketch::sample_raw_fingerprints_stream(n, t, streams, par, &s.raw);
    sketch::neighborhood_counts_into(
        rt, s.raw,
        [&acd](int v, int u) {
          return acd.clique_of[static_cast<std::size_t>(v)] >= 0 &&
                 acd.clique_of[static_cast<std::size_t>(u)] !=
                     acd.clique_of[static_cast<std::size_t>(v)];
        },
        opt, &s.counts);
    for (int v = 0; v < n; ++v) {
      if (acd.clique_of[static_cast<std::size_t>(v)] >= 0) {
        info.ext_est[static_cast<std::size_t>(v)] =
            s.counts.estimate[static_cast<std::size_t>(v)];
      }
    }
  } else {
    // Exact per-vertex external degrees: independent CSR-row scans with
    // per-vertex disjoint writes, sharded by the round engine if present.
    exec::shards_or_inline(
        par, n, [&](int, std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i) {
            const int v = static_cast<int>(i);
            const int kv = acd.clique_of[static_cast<std::size_t>(v)];
            if (kv < 0) continue;
            int ext = 0;
            for (const int u : h.neighbors(v)) {
              if (acd.clique_of[static_cast<std::size_t>(u)] != kv) ++ext;
            }
            info.ext_est[static_cast<std::size_t>(v)] = ext;
          }
        });
    rt.charge(1, 2 * t + 16);
  }

  // Exact |K| and averages by aggregation on a clique-spanning BFS tree
  // (almost-cliques have diameter <= 2): O(1) rounds.
  rt.charge(2, 64);
  info.clique_size.assign(static_cast<std::size_t>(acd.num_cliques), 0);
  info.avg_ext_est.assign(static_cast<std::size_t>(acd.num_cliques), 0.0);
  for (int v = 0; v < n; ++v) {
    const int kv = acd.clique_of[static_cast<std::size_t>(v)];
    if (kv < 0) continue;
    ++info.clique_size[static_cast<std::size_t>(kv)];
    info.avg_ext_est[static_cast<std::size_t>(kv)] +=
        info.ext_est[static_cast<std::size_t>(v)];
  }
  info.is_cabal.assign(static_cast<std::size_t>(acd.num_cliques), false);
  for (int k = 0; k < acd.num_cliques; ++k) {
    if (info.clique_size[static_cast<std::size_t>(k)] > 0) {
      info.avg_ext_est[static_cast<std::size_t>(k)] /=
          info.clique_size[static_cast<std::size_t>(k)];
    }
    info.is_cabal[static_cast<std::size_t>(k)] =
        info.avg_ext_est[static_cast<std::size_t>(k)] < ell;
  }
}

DenseInfo annotate_dense(cluster::Runtime& rt, const AcdResult& acd,
                         double ell, int t, bool use_fingerprints,
                         Rng& rng, exec::ParallelRound* par) {
  StreamCtx streams(rng.next_u64());
  DenseInfo info;
  annotate_dense(rt, acd, ell, t, use_fingerprints, streams, par, &info);
  return info;
}

}  // namespace ccg::acd
