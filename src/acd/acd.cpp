#include "acd/acd.hpp"

#include <algorithm>
#include <cmath>
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
  // (2 e_v + 2 a_v) <= ~xi * Delta to be detected (DESIGN.md
  // substitution #1).
  const double xi = params.xi > 0 ? params.xi : params.eps;

  sketch::CountOptions opt;
  opt.t = params.t;
  opt.measure_bits = params.measure_bits;

  res.reset(n);

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

  if (params.use_fingerprints) {
    // Step 2: joint-neighborhood estimates from a fresh sampling (the
    // paper samples new variables for the union step).
    streams.bump();
    sketch::sample_raw_fingerprints_stream(n, params.t, streams,
                                           params.par, &s.raw);
    sketch::neighborhood_counts_into(
        rt, s.raw, [](int, int) { return true; }, opt, &s.counts);
    sketch::edge_union_estimates_into(rt, s.counts, opt, &s.union_est);
  }

  // Edge index of row u's upper neighbors (v > u) in h.edges() order,
  // which indexes buddy[] and union_est[]: upper_off[u] counts the upper
  // neighbors of the rows before u. The rows are then cut into one
  // contiguous range per worker, balanced by the upper degree of high
  // rows: only high-high edges cost a kernel call, and E1-like graphs put
  // every dense row at the front.
  const auto parts = params.par ? params.par->workers() : 1;
  const auto P = static_cast<std::size_t>(parts);
  const auto un = static_cast<std::size_t>(n);
  s.upper_off.resize(un + 1);
  s.upper_off[0] = 0;
  for (int u = 0; u < n; ++u) {
    const auto nb = h.neighbors(u);
    s.upper_off[static_cast<std::size_t>(u) + 1] =
        s.upper_off[static_cast<std::size_t>(u)] +
        static_cast<int>(nb.end() - std::upper_bound(nb.begin(), nb.end(), u));
  }
  const auto row_work = [&](std::size_t u) -> std::int64_t {
    return 1 + (s.high[u] ? s.upper_off[u + 1] - s.upper_off[u] : 0);
  };
  std::int64_t work = 0;
  for (std::size_t u = 0; u < un; ++u) work += row_work(u);
  s.range_begin.resize(P + 1);
  {
    // Range p starts at the first row whose prefix reaches p/P of the work.
    std::size_t p = 0;
    std::int64_t prefix = 0;
    for (std::size_t u = 0; u < un; ++u) {
      while (p < P && prefix * parts >= work * static_cast<std::int64_t>(p)) {
        s.range_begin[p++] = static_cast<int>(u);
      }
      prefix += row_work(u);
    }
    while (p <= P) s.range_begin[p++] = n;
  }

  // Pass A, the attempt's one parallel dispatch, one range per worker:
  // the per-edge buddy flags, each row's own upper-buddy count (parked in
  // buddy_deg) and, per range, how many lower buddies the range's rows
  // give every vertex (lower_cur row p). Every write lands in the range's
  // rows or its own lower_cur row, so the flags and counts are
  // partition-independent.
  if (s.workers.size() < P) s.workers.resize(P);
  s.buddy.resize(static_cast<std::size_t>(s.upper_off[un]));
  s.buddy_deg.resize(un);
  s.lower_cur.assign(P * un, 0);
  // joint = deg u + deg v - common is an integer, so joint <= buddy_limit
  // exactly when common >= deg u + deg v - floor(buddy_limit).
  const auto floor_limit =
      static_cast<std::int64_t>(std::floor(buddy_limit));
  const auto words_per_row =
      static_cast<std::size_t>(h.bitset_words_per_row());
  const auto range = [&](AcdScratch::Worker& ws, std::size_t p) {
    int* lower = s.lower_cur.data() + p * un;
    if (!params.use_fingerprints) {
      ws.stamp.assign(un, -1);
      ws.row_words.resize(words_per_row);
      ws.row_index.resize(words_per_row);
      ws.row_rest.resize(words_per_row);
    }
    for (int u = s.range_begin[p]; u < s.range_begin[p + 1]; ++u) {
      const auto uu = static_cast<std::size_t>(u);
      const auto nb = h.neighbors(u);
      const int e0 = s.upper_off[uu];
      const int up = s.upper_off[uu + 1] - e0;
      const int* upper =
          nb.data() + (nb.size() - static_cast<std::size_t>(up));
      char* flag = s.buddy.data() + e0;
      int own = 0;
      if (!s.high[uu]) {
        std::fill(flag, flag + up, char{0});
      } else if (params.use_fingerprints) {
        for (int j = 0; j < up; ++j) {
          flag[j] = s.high[static_cast<std::size_t>(upper[j])] &&
                    s.union_est[static_cast<std::size_t>(e0 + j)] <=
                        buddy_limit;
        }
      } else {
        // Exact |N(u) ∩ N(v)| >= need, needed only on high-high edges.
        // When both rows have an adjacency bitset (degree >= 64, under
        // Graph's memory cap), u's row is packed once, densest words
        // first, and each edge is decided from as few of them as it
        // takes. Rows without a bitset stamp N(u) once and probe N(v).
        std::size_t packed = 0;
        bool is_packed = false, stamped = false;
        const bool u_bits = h.has_bitset_row(u);
        for (int j = 0; j < up; ++j) {
          const int v = upper[j];
          char is_buddy = 0;
          if (s.high[static_cast<std::size_t>(v)]) {
            const auto need = static_cast<int>(
                static_cast<std::int64_t>(h.degree(u)) + h.degree(v) -
                floor_limit);
            if (u_bits && h.has_bitset_row(v)) {
              if (!is_packed) {
                is_packed = true;
                packed = bits::pack_densest_first(
                    h.bitset_words(u), words_per_row, ws.row_words.data(),
                    ws.row_index.data(), ws.row_rest.data());
              }
              is_buddy = bits::and_popcount_at_least(
                  ws.row_words.data(), ws.row_index.data(),
                  ws.row_rest.data(), packed, h.bitset_words(v), need);
            } else {
              if (!stamped) {
                stamped = true;
                for (const int x : nb) {
                  ws.stamp[static_cast<std::size_t>(x)] = u;
                }
              }
              int common = 0;
              for (const int x : h.neighbors(v)) {
                common += (ws.stamp[static_cast<std::size_t>(x)] == u);
              }
              is_buddy = common >= need;
            }
          }
          flag[j] = is_buddy;
        }
      }
      for (int j = 0; j < up; ++j) {
        if (flag[j]) {
          ++own;
          ++lower[static_cast<std::size_t>(upper[j])];
        }
      }
      s.buddy_deg[uu] = own;
    }
  };
  exec::shards_or_inline(
      params.par, parts, [&](int w, std::int64_t b, std::int64_t e) {
        for (std::int64_t p = b; p < e; ++p) {
          range(s.workers[static_cast<std::size_t>(w)],
                static_cast<std::size_t>(p));
        }
      });
  if (!params.use_fingerprints) rt.charge(3, 2 * params.t + 16);

  // Each vertex's buddy degree: its own upper buddies plus the lower
  // buddies every range gives it.
  for (std::size_t p = 0; p < P; ++p) {
    const int* lower = s.lower_cur.data() + p * un;
    for (std::size_t v = 0; v < un; ++v) s.buddy_deg[v] += lower[v];
  }

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
  // Lemma 3.2). Union-find over the flags, the smaller root winning, so
  // every root is its component's smallest vertex: handing out ids in
  // root order and members in vertex order numbers the components by
  // their smallest vertex, whatever order the unions ran in.
  rt.charge(3, 2 * ceil_log2(static_cast<std::uint64_t>(std::max(2, n))));
  s.root.resize(un);
  int* root = s.root.data();
  for (int v = 0; v < n; ++v) root[v] = v;
  const auto find = [root](int v) {
    while (root[v] != v) {
      root[v] = root[root[v]];  // path halving
      v = root[v];
    }
    return v;
  };
  for (int u = 0; u < n; ++u) {
    const auto uu = static_cast<std::size_t>(u);
    if (!s.candidate[uu]) continue;
    const auto nb = h.neighbors(u);
    const int e0 = s.upper_off[uu];
    const int up = s.upper_off[uu + 1] - e0;
    const int* upper = nb.data() + (nb.size() - static_cast<std::size_t>(up));
    const char* flag = s.buddy.data() + e0;
    for (int j = 0; j < up; ++j) {
      if (!flag[j] || !s.candidate[static_cast<std::size_t>(upper[j])]) {
        continue;
      }
      const int a = find(u);
      const int b = find(upper[j]);
      if (a < b) {
        root[b] = a;
      } else {
        root[a] = b;
      }
    }
  }
  // comp[r]: size of the component rooted at r.
  s.comp.assign(un, 0);
  for (int v = 0; v < n; ++v) {
    if (!s.candidate[static_cast<std::size_t>(v)]) continue;
    root[v] = find(v);
    ++s.comp[static_cast<std::size_t>(root[v])];
  }
  // Components below max(2, Delta/2) are too small to be almost-cliques;
  // their members stay sparse.
  const int min_clique_size = std::max(2, delta / 2);
  for (int v = 0; v < n; ++v) {
    const auto vv = static_cast<std::size_t>(v);
    if (!s.candidate[vv] ||
        s.comp[static_cast<std::size_t>(root[v])] < min_clique_size) {
      continue;
    }
    if (root[v] == v) {
      res.clique_of[vv] = res.num_cliques++;
      // Grow-only member storage: reuse the inner vector of this id when
      // a previous run left one behind.
      if (static_cast<int>(res.members.size()) < res.num_cliques) {
        res.members.emplace_back();
      }
      res.members[static_cast<std::size_t>(res.clique_of[vv])].clear();
    }
    const int id = res.clique_of[static_cast<std::size_t>(root[v])];
    res.clique_of[vv] = id;
    res.members[static_cast<std::size_t>(id)].push_back(v);
  }
}

}  // namespace

void compute_acd(cluster::Runtime& rt, const AcdParams& params,
                 StreamCtx& streams, AcdResult* out, AcdScratch* scratch) {
  const int delta = rt.delta();
  const int max_size =
      static_cast<int>((1.0 + 3.0 * params.eps) * delta) + 1;
  // An oracle attempt is a pure function of (graph, eps, xi): a retry
  // would redo the same work. Only fingerprint attempts draw fresh
  // samples.
  const int tries = params.use_fingerprints ? 3 : 1;
  for (int t = 0; t < tries; ++t) {
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
  CCG_CHECK_MSG(false, "ACD failed "
                           << tries << (tries == 1 ? " attempt" : " attempts")
                           << ": merged almost-cliques; raise AcdParams::t");
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
