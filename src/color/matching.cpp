#include "color/matching.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "common/hashing.hpp"
#include "common/mathutil.hpp"
#include "sketch/fingerprint.hpp"

namespace ccg::color {

namespace {

// Per-color verdict buckets. A proposer v with candidate c has a colored
// neighbor holding c iff some u in cb[c] is adjacent to v (exactly
// Coloring::neighbor_uses), and it meets another proposer of c iff some
// u in pb[c] is. About n/C vertices hold a color and a handful propose
// it, far fewer than deg(v) in an almost-clique, so with v's adjacency
// bitset row a verdict probes |cb[c]| + |pb[c]| bits instead of reading
// N(v) twice. Building the buckets costs O(n + C), so a round builds them
// only when the proposers it will run verdicts on (`tested`) would scan
// more than that through bitset rows, and returns whether it did. pb
// holds every proposer of the round (`proposers`), tested or not: a
// tested proposer must still see its clash with any other. Both callables
// call emit(v, candidate(v)) per proposer (c < 0: not proposing).
template <class ForEachTested, class ForEachProposer>
bool build_verdict_buckets(State& st, ForEachTested&& tested,
                           ForEachProposer&& proposers) {
  const auto& h = st.h();
  std::int64_t bitset_scan = 0;
  tested([&](int v, int c) {
    if (c >= 0 && h.has_bitset_row(v)) bitset_scan += h.degree(v);
  });
  if (bitset_scan <= h.n() + st.num_colors()) return false;
  st.ph.cb.build(st.num_colors(), [&](auto&& emit) {
    for (int v = 0; v < h.n(); ++v) emit(v, st.phi.get(v));
  });
  st.ph.pb.build(st.num_colors(), proposers);
  return true;
}

// Bitset probes of a bucket verdict on color c, per tested row.
int bucket_probes(const PhaseScratch& ph, int c) {
  return static_cast<int>(ph.cb.of(c).size() + ph.pb.of(c).size());
}

// True iff some u in `us` with keep(u) is a neighbor of v; probes v's
// adjacency bitset row, which v must have.
template <class Keep>
bool any_bitset_neighbor(const graph::Graph& h, int v,
                         std::span<const int> us, Keep&& keep) {
  for (const int u : us) {
    if (keep(u) && h.bitset_test(v, u)) return true;
  }
  return false;
}

constexpr auto kAny = [](int) { return true; };

// True iff two of the participants on the chain from position `first`
// (linked by `next`, -1 ends it) are non-adjacent.
bool has_non_adjacent_pair(const graph::Graph& h,
                           const std::vector<int>& participants,
                           const std::vector<int>& next, int first) {
  const auto at = [&](int i) {
    return participants[static_cast<std::size_t>(i)];
  };
  for (int i = first; i >= 0; i = next[static_cast<std::size_t>(i)]) {
    for (int j = next[static_cast<std::size_t>(i)]; j >= 0;
         j = next[static_cast<std::size_t>(j)]) {
      if (!h.has_edge(at(i), at(j))) return true;
    }
  }
  return false;
}

// Trials of the cabal fingerprint matching: k = kCabalMatchingKFactor *
// log2 n (Algorithm 7).
int fingerprint_trials(int n) {
  return std::max(8, static_cast<int>(std::lround(
                         kCabalMatchingKFactor * std::log2(std::max(4, n)))));
}

}  // namespace

void colorful_matching_run(State& st, const std::vector<int>& clique_ids,
                           const std::function<int(int)>& target) {
  const auto& h = st.h();
  const int prefix = st.dc.reserved_cap;
  const int span = st.num_colors() - prefix;
  CCG_CHECK(span > 0);
  const int log_bits =
      2 * ceil_log2(static_cast<std::uint64_t>(std::max(2, h.n())));

  auto& sc = st.scratch;
  auto& par = *st.par;
  sc.ensure_vertices(h.n());
  auto& done = st.ph.flags;
  done.assign(clique_ids.size(), 0);
  // Flat participant list per round (shard domain), plus the
  // (clique, color)-keyed grouping buffer and per-bucket chosen list,
  // all reused across rounds (and across calls: they live in the
  // State-owned PhaseScratch).
  auto& participants = sc.tmp_ints;
  auto& keyed = st.ph.keyed;
  auto& chosen = st.ph.chosen;
  for (int round = 0; round < kMatchingRounds; ++round) {
    // Enumerate this round's participants: uncolored members of cliques
    // still short of their target (sequential; no randomness).
    participants.clear();
    for (std::size_t ki = 0; ki < clique_ids.size(); ++ki) {
      const int k = clique_ids[ki];
      if (st.palettes[static_cast<std::size_t>(k)].repeats() >= target(k)) {
        done[ki] = 1;
      }
      if (done[ki]) continue;
      for (const int v : st.dc.acd.members[static_cast<std::size_t>(k)]) {
        if (!st.phi.colored(v)) participants.push_back(v);
      }
    }
    if (participants.empty()) break;
    const auto total = static_cast<std::int64_t>(participants.size());

    // Propose (parallel shards): every participant draws activation and a
    // candidate color from its private counter-based stream and stamps the
    // shared candidate table — per-vertex disjoint writes, so shard
    // boundaries cannot change the outcome.
    sc.begin_round();
    st.bump_trial_round();
    par.shards(total, [&](int, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const int v = participants[static_cast<std::size_t>(i)];
        Rng rng = st.trial_rng(static_cast<std::uint64_t>(v));
        if (!rng.next_bool(0.5)) continue;
        const int c = prefix + static_cast<int>(rng.next_below(
                                   static_cast<std::uint64_t>(span)));
        sc.propose_at(v, c);
      }
    });

    // Viable groups (sequential, O(proposers)): the commit below adopts
    // a color only for >= 2 pairwise non-adjacent survivors of one
    // (clique, color) group, so a proposer whose group holds no
    // non-adjacent pair never adopts, whatever its verdict says. The
    // participants are listed clique by clique; chain each clique's
    // proposers by color and keep the members of groups with a
    // non-adjacent pair. Only they get a verdict (under 1% of the
    // proposers on the dense benchmark instances); the rest get -1.
    auto& viable = st.ph.cm_viable;
    auto& head = st.ph.cm_head;
    auto& next = st.ph.cm_next;
    auto& colors = st.ph.cm_colors;
    viable.clear();
    if (head.size() < static_cast<std::size_t>(st.num_colors())) {
      head.resize(static_cast<std::size_t>(st.num_colors()), -1);
    }
    next.resize(participants.size());
    for (std::size_t lo = 0, hi = 0; lo < participants.size(); lo = hi) {
      const int k = st.dc.clique_of(participants[lo]);
      for (; hi < participants.size() &&
             st.dc.clique_of(participants[hi]) == k;
           ++hi) {
        const int c = sc.candidate(participants[hi]);
        if (c == TrialScratch::kNone) continue;
        int& first = head[static_cast<std::size_t>(c)];
        if (first < 0) colors.push_back(c);
        next[hi] = first;
        first = static_cast<int>(hi);
      }
      for (const int c : colors) {
        const int first = std::exchange(head[static_cast<std::size_t>(c)], -1);
        if (!has_non_adjacent_pair(h, participants, next, first)) continue;
        for (int i = first; i >= 0; i = next[static_cast<std::size_t>(i)]) {
          viable.push_back(i);
        }
      }
      colors.clear();
    }

    // Buckets (sequential): priced by the viable proposers' scans, filled
    // with every proposer.
    const bool buckets = build_verdict_buckets(
        st,
        [&](auto&& emit) {
          for (const int i : viable) {
            const int v = participants[static_cast<std::size_t>(i)];
            emit(v, sc.candidate(v));
          }
        },
        [&](auto&& emit) {
          for (const int v : participants) emit(v, sc.candidate(v));
        });

    // Verdict (parallel shards over the viable proposers): drop candidates
    // clashing with a colored neighbor or with an external candidate on
    // the same color (symmetric drop; conservative) — a pure read of the
    // frozen candidate table. Each proposer takes the cheaper of two
    // exactly equivalent tests: probe its bitset row with c's buckets, or
    // scan N(v).
    auto& verdicts = sc.verdicts;
    verdicts.assign(participants.size(), -1);
    par.shards(static_cast<std::int64_t>(viable.size()),
               [&](int, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const auto pos =
            static_cast<std::size_t>(viable[static_cast<std::size_t>(i)]);
        const int v = participants[pos];
        const int c = sc.candidate(v);
        const int kv = st.dc.clique_of(v);
        const auto external = [&](int u) {
          return st.dc.clique_of(u) != kv;
        };
        bool ok = true;
        if (buckets && h.has_bitset_row(v) &&
            bucket_probes(st.ph, c) < h.degree(v)) {
          ok = !any_bitset_neighbor(h, v, st.ph.cb.of(c), kAny) &&
               !any_bitset_neighbor(h, v, st.ph.pb.of(c), external);
        } else if (st.phi.neighbor_uses(h, v, c)) {
          ok = false;
        } else {
          for (const int u : h.neighbors(v)) {
            if (external(u) && sc.candidate(u) == c) {
              ok = false;
              break;
            }
          }
        }
        if (ok) verdicts[pos] = c;
      }
    });

    // Commit (sequential): per clique and per color, keep a maximal
    // pairwise-non-adjacent even-size subset of the same-color survivors;
    // they all adopt the color (used >= twice => every adopted vertex
    // provides reuse slack). Buckets materialize by sorting
    // (clique * C + color, vertex) pairs.
    keyed.clear();
    for (std::size_t i = 0; i < participants.size(); ++i) {
      if (verdicts[i] < 0) continue;
      const int v = participants[i];
      keyed.emplace_back(
          static_cast<std::int64_t>(st.dc.clique_of(v)) * st.num_colors() +
              verdicts[i],
          v);
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t lo = 0; lo < keyed.size();) {
      std::size_t hi = lo;
      while (hi < keyed.size() && keyed[hi].first == keyed[lo].first) ++hi;
      if (hi - lo >= 2) {
        chosen.clear();
        for (std::size_t i = lo; i < hi; ++i) {
          const int v = keyed[i].second;
          bool ok = true;
          for (const int w : chosen) {
            if (h.has_edge(v, w)) {
              ok = false;
              break;
            }
          }
          if (ok) chosen.push_back(v);
        }
        if (chosen.size() % 2 == 1) chosen.pop_back();
        if (chosen.size() >= 2) {
          const int c = static_cast<int>(keyed[lo].first % st.num_colors());
          for (const int v : chosen) st.assign(v, c);
        }
      }
      lo = hi;
    }
    st.rt->charge(2, log_bits);
  }
}

std::vector<int> colorful_matching(State& st,
                                   const std::vector<int>& clique_ids,
                                   const std::function<int(int)>& target) {
  colorful_matching_run(st, clique_ids, target);
  std::vector<int> achieved;
  achieved.reserve(clique_ids.size());
  for (const int k : clique_ids) {
    achieved.push_back(st.palettes[static_cast<std::size_t>(k)].repeats());
  }
  return achieved;
}

void fingerprint_matching_charge(State& st) {
  const int n = st.h().n();
  const int k_trials = fingerprint_trials(n);
  // Fingerprint aggregation + trial bitmaps + min-wise hash rounds +
  // output dissemination (Lemma 6.3's O(1/eps^2) rounds).
  st.rt->charge(3, 2 * k_trials + 64);
  st.rt->charge(4, k_trials);
  st.rt->charge(3, 4 * ceil_log2(static_cast<std::uint64_t>(
                         std::max(2, n))));
  st.rt->charge(2, k_trials);
}

void fingerprint_matching_into(State& st, int clique_id,
                               const std::vector<int>* subset, bool charge,
                               std::vector<std::pair<int, int>>* out) {
  const auto& h = st.h();
  const auto& members =
      subset ? *subset
             : st.dc.acd.members[static_cast<std::size_t>(clique_id)];
  const int sz = static_cast<int>(members.size());
  if (sz < 2) return;
  const int n = h.n();
  const int k_trials = fingerprint_trials(n);
  const auto szu = static_cast<std::size_t>(sz);
  const auto ktu = static_cast<std::size_t>(k_trials);

  auto& sc = st.scratch;
  auto& par = *st.par;
  auto& fp = sc.fp;
  sc.ensure_vertices(n);

  // Vertex -> position in members via the epoch-stamped candidate table
  // (the paper derives local ids from prefix sums in O(1) rounds).
  sc.begin_round();
  for (int i = 0; i < sz; ++i) sc.propose_at(members[static_cast<std::size_t>(i)], i);

  // Step 2 (parallel shards): every member fills its row of k_trials
  // geometric draws from its private counter-based stream; rows are
  // per-member disjoint, so shard boundaries cannot change the bits.
  fp.x.resize(szu * ktu);
  st.bump_trial_round();
  par.shards(sz, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const int v = members[static_cast<std::size_t>(i)];
      Rng rng = st.trial_rng(static_cast<std::uint64_t>(v));
      int* row = fp.x.data() + static_cast<std::size_t>(i) * ktu;
      for (int t = 0; t < k_trials; ++t) row[t] = rng.next_geometric_half();
    }
  });

  // Clique maximum Y_K, aggregated on BFS trees in the model; one
  // deterministic sequential reduction here, charged with its measured
  // encoded size. The same row-major pass records each trial's unique
  // maximum: argmax[t] is the member attaining Y_K[t], or -1 once a second
  // member ties it (a later, larger draw restarts the record). The
  // buffers are scratch-owned (capacity reused).
  auto& yk = fp.yk;
  yk.maxima.assign(ktu, sketch::kEmpty);
  fp.argmax.resize(ktu);
  int* top = yk.maxima.data();
  int* arg = fp.argmax.data();
  for (int i = 0; i < sz; ++i) {
    const int* row = fp.x.data() + static_cast<std::size_t>(i) * ktu;
    for (int t = 0; t < k_trials; ++t) {
      if (row[t] > top[t]) {
        top[t] = row[t];
        arg[t] = i;
      } else if (row[t] == top[t]) {
        arg[t] = -1;
      }
    }
  }
  if (charge) st.rt->charge(3, std::max(1, sketch::encoded_bits(yk)));

  // Steps 3-4: local ids via prefix sums (O(1) rounds) and trial filtering
  // via O(k_trials)-bit aggregated bitmaps.
  //
  // The algorithm compares each member's in-list neighborhood maximum
  // Y_v[t] only against Y_K[t]. Every draw is <= Y_K[t], so
  // Y_v[t] == Y_K[t] exactly when some in-list neighbor of v attains
  // Y_K[t]. hit[t][i] records that equality, but only for trials with a
  // unique maximum m: conditions (b)-(c) and the min-wise step read no
  // other row (about 30% of the trials tie and are skipped). Then
  // hit[t][i] == 1 iff member i is an in-list neighbor of m, so a row
  // costs O(|K| + deg(m)) instead of materializing Y_v in
  // O(|K| * Delta). Rows are per-trial disjoint (parallel shards over
  // trials).
  if (charge) st.rt->charge(4, k_trials);
  fp.hit.resize(ktu * szu);
  par.shards(k_trials, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t t = b; t < e; ++t) {
      const int m = fp.argmax[static_cast<std::size_t>(t)];
      if (m < 0) continue;
      std::uint8_t* hit = fp.hit.data() + static_cast<std::size_t>(t) * szu;
      std::fill(hit, hit + sz, 0);
      for (const int u : h.neighbors(members[static_cast<std::size_t>(m)])) {
        const int li = sc.candidate(u);
        if (li != TrialScratch::kNone) hit[li] = 1;
      }
    }
  });

  // Conditions (b)-(c) are sequential by nature: a trial's eligibility
  // depends on which members earlier trials consumed as unique maxima.
  fp.used_as_max.assign(szu, 0);
  fp.trial_u.resize(ktu);
  for (int t = 0; t < k_trials; ++t) {
    fp.trial_u[static_cast<std::size_t>(t)] = -1;
    const int ui = fp.argmax[static_cast<std::size_t>(t)];
    // Condition (c): u_i must not have been a unique maximum before.
    if (ui < 0 || fp.used_as_max[static_cast<std::size_t>(ui)]) continue;
    // A_i: members (other than u_i) whose neighborhood max differs from
    // the clique max — each detects an anti-edge to u_i. Condition (b)
    // needs A_i non-empty.
    const std::uint8_t* hit =
        fp.hit.data() + static_cast<std::size_t>(t) * szu;
    bool any_anti = false;
    for (int i = 0; i < sz && !any_anti; ++i) {
      any_anti = i != ui && !hit[i];
    }
    if (!any_anti) continue;
    fp.used_as_max[static_cast<std::size_t>(ui)] = 1;
    fp.trial_u[static_cast<std::size_t>(t)] = ui;
  }

  // Steps 7-9 (parallel shards over trials): the per-trial min-wise hash,
  // derived from the trial's private counter-based stream, selects the
  // anti-neighbor w_i. Hash description: O(log|K| * log 1/eps) bits.
  if (charge) {
    st.rt->charge(3, 4 * ceil_log2(static_cast<std::uint64_t>(
                           std::max(2, sz))));
  }
  st.bump_trial_round();
  fp.trial_w.resize(ktu);
  par.shards(k_trials, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t t = b; t < e; ++t) {
      fp.trial_w[static_cast<std::size_t>(t)] = -1;
      const int ui = fp.trial_u[static_cast<std::size_t>(t)];
      if (ui < 0) continue;
      Rng rng = st.trial_rng(static_cast<std::uint64_t>(t));
      MinWiseHash hash(static_cast<std::uint64_t>(std::max(2, sz)), 0.5,
                       rng);
      const std::uint8_t* hit =
          fp.hit.data() + static_cast<std::size_t>(t) * szu;
      int best = -1;
      std::uint64_t best_h = 0;
      for (int i = 0; i < sz; ++i) {
        if (i == ui) continue;
        if (hit[i]) continue;  // no anti-edge detected to u_i
        const auto hi = hash(static_cast<std::uint64_t>(i));
        if (best < 0 || hi < best_h || (hi == best_h && i < best)) {
          best = i;
          best_h = hi;
        }
      }
      fp.trial_w[static_cast<std::size_t>(t)] = best;
    }
  });

  // Step 10: discard trials whose unique max was sampled as an
  // anti-neighbor elsewhere. Step 11: each w keeps a single trial.
  // (Sequential commit in trial order.)
  fp.sampled_w.assign(szu, 0);
  for (int t = 0; t < k_trials; ++t) {
    const int wi = fp.trial_w[static_cast<std::size_t>(t)];
    if (wi >= 0) fp.sampled_w[static_cast<std::size_t>(wi)] = 1;
  }
  fp.w_seen.assign(szu, 0);
  if (charge) st.rt->charge(2, k_trials);
  for (int t = 0; t < k_trials; ++t) {
    const int ui = fp.trial_u[static_cast<std::size_t>(t)];
    const int wi = fp.trial_w[static_cast<std::size_t>(t)];
    if (ui < 0 || wi < 0) continue;
    if (fp.sampled_w[static_cast<std::size_t>(ui)]) continue;  // step 10
    if (fp.w_seen[static_cast<std::size_t>(wi)]) continue;     // step 11
    fp.w_seen[static_cast<std::size_t>(wi)] = 1;
    const int u = members[static_cast<std::size_t>(ui)];
    const int w = members[static_cast<std::size_t>(wi)];
    CCG_CHECK_MSG(!h.has_edge(u, w),
                  "fingerprint matching produced a real edge");
    out->emplace_back(u, w);
  }
  // The matching must be vertex-disjoint: u's are distinct by condition
  // (c), w's by step 11, and u's never appear as w's by step 10.
}

std::vector<std::pair<int, int>> fingerprint_matching(
    State& st, int clique_id, const std::vector<int>* subset, bool charge) {
  std::vector<std::pair<int, int>> matching;
  fingerprint_matching_into(st, clique_id, subset, charge, &matching);
  return matching;
}

int color_anti_matching(State& st,
                        const std::vector<std::pair<int, int>>& pairs) {
  const auto& h = st.h();
  const int prefix = st.dc.reserved_cap;
  const int span = st.num_colors() - prefix;
  CCG_CHECK(span > 0);
  const int log_bits =
      2 * ceil_log2(static_cast<std::uint64_t>(std::max(2, h.n())));

  // Round worklists and the pair -> candidate-color table live in the
  // State-owned PhaseScratch (dedicated buffers: both pipeline batch
  // callers hold their pairs in ph.pairs while this runs).
  auto& todo = st.ph.am_todo;
  todo.resize(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    todo[i] = static_cast<int>(i);
  }
  int colored = 0;
  auto& sc = st.scratch;
  auto& par = *st.par;
  sc.ensure_vertices(h.n());
  auto& pair_cand = st.ph.am_cand;  // pair index -> color
  pair_cand.assign(pairs.size(), -1);
  auto& next = st.ph.am_next;
  next.clear();
  auto& pair_min = st.ph.am_min;  // endpoint -> its pair's minimum id
  if (pair_min.size() < static_cast<std::size_t>(h.n())) {
    pair_min.resize(static_cast<std::size_t>(h.n()));
  }
  // Pair-level synchronized trials (Algorithm 6 step 3, with the random
  // groups of Lemma 4.4 relaying between the pair's endpoints).
  for (int round = 0; round < kMctMaxRounds && !todo.empty(); ++round) {
    const auto total = static_cast<std::int64_t>(todo.size());
    // Propose (parallel shards): every live pair draws its candidate from
    // the pair's private counter-based stream and stamps both endpoints
    // with it and with the pair's minimum endpoint (the matching is
    // vertex-disjoint, so the writes are too).
    sc.begin_round();
    st.bump_trial_round();
    par.shards(total, [&](int, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const int pi = todo[static_cast<std::size_t>(i)];
        Rng rng = st.trial_rng(static_cast<std::uint64_t>(pi));
        const int c = prefix + static_cast<int>(rng.next_below(
                                   static_cast<std::uint64_t>(span)));
        const auto& [a, b2] = pairs[static_cast<std::size_t>(pi)];
        pair_cand[static_cast<std::size_t>(pi)] = c;
        sc.propose_at(a, c);
        sc.propose_at(b2, c);
        pair_min[static_cast<std::size_t>(a)] = std::min(a, b2);
        pair_min[static_cast<std::size_t>(b2)] = std::min(a, b2);
      }
    });
    // Buckets (sequential): the proposers are both endpoints of every
    // live pair, and every one of them is tested.
    const auto endpoints = [&](auto&& emit) {
      for (const int pi : todo) {
        const auto& [a, b2] = pairs[static_cast<std::size_t>(pi)];
        emit(a, sc.candidate(a));
        emit(b2, sc.candidate(b2));
      }
    };
    const bool buckets = build_verdict_buckets(st, endpoints, endpoints);
    // Verdict (parallel shards) against the frozen candidate table, by
    // the cheaper of the bucket probes and the neighborhood scans.
    // Conflicts with other pairs trying the same color yield to the
    // smaller minimum-endpoint id: a clashing endpoint u counts by its
    // pair's minimum, not by u itself, or two clashing pairs could both
    // see the other as later and both adopt c.
    auto& verdicts = sc.verdicts;
    verdicts.resize(todo.size());
    par.shards(total, [&](int, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const int pi = todo[static_cast<std::size_t>(i)];
        const auto& [a, b2] = pairs[static_cast<std::size_t>(pi)];
        const int c = pair_cand[static_cast<std::size_t>(pi)];
        const int my_id = std::min(a, b2);
        const auto earlier = [&](int u) {
          return pair_min[static_cast<std::size_t>(u)] < my_id;
        };
        bool ok = true;
        if (buckets && h.has_bitset_row(a) && h.has_bitset_row(b2) &&
            bucket_probes(st.ph, c) < h.degree(a) + h.degree(b2)) {
          ok = !any_bitset_neighbor(h, a, st.ph.cb.of(c), kAny) &&
               !any_bitset_neighbor(h, b2, st.ph.cb.of(c), kAny) &&
               !any_bitset_neighbor(h, a, st.ph.pb.of(c), earlier) &&
               !any_bitset_neighbor(h, b2, st.ph.pb.of(c), earlier);
        } else {
          ok = !st.phi.neighbor_uses(h, a, c) &&
               !st.phi.neighbor_uses(h, b2, c);
          for (const int endpoint : {a, b2}) {
            if (!ok) break;
            for (const int u : h.neighbors(endpoint)) {
              if (sc.candidate(u) == c && earlier(u)) {
                ok = false;
                break;
              }
            }
          }
        }
        verdicts[static_cast<std::size_t>(i)] = ok ? 1 : 0;
      }
    });
    // Commit (sequential, input order).
    next.clear();
    for (std::size_t i = 0; i < todo.size(); ++i) {
      const int pi = todo[i];
      if (verdicts[i]) {
        const auto& [a, b2] = pairs[static_cast<std::size_t>(pi)];
        st.assign(a, pair_cand[static_cast<std::size_t>(pi)]);
        st.assign(b2, pair_cand[static_cast<std::size_t>(pi)]);
        ++colored;
      } else {
        next.push_back(pi);
      }
    }
    st.rt->charge(3, log_bits);
    std::swap(todo, next);
  }
  // Pairs still live after kMctMaxRounds stay uncolored: the steps that
  // follow (and the safety net) color their endpoints like any other
  // uncolored vertex, and the final properness check still covers them.
  return colored;
}

}  // namespace ccg::color
