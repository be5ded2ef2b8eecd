#include "sketch/approx_count.hpp"

#include <algorithm>
#include <unordered_map>

#include "exec/parallel_round.hpp"

namespace ccg::sketch {

void sample_raw_fingerprints_stream(int n, int t, const StreamCtx& streams,
                                    exec::ParallelRound* par,
                                    std::vector<Fingerprint>* out) {
  out->resize(static_cast<std::size_t>(n));
  exec::shards_or_inline(par, n, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      Rng rng = streams.rng_for(static_cast<std::uint64_t>(i));
      sample_fingerprint_into(t, rng, &(*out)[static_cast<std::size_t>(i)]);
    }
  });
}

namespace {

// Measured support-tree aggregation for one cluster: contributions arrive
// at designated link endpoints, partial aggregates climb the tree; returns
// the root aggregate and updates max_bits with the largest encoded partial.
Fingerprint measured_tree_aggregate(
    const cluster::ClusterGraph& cg, int v,
    const std::vector<std::pair<int, Fingerprint const*>>& contribs, int t,
    int* max_bits) {
  const auto& cl = cg.cluster(v);
  // member machine id -> member index
  std::unordered_map<int, int> member_idx;
  member_idx.reserve(cl.members.size() * 2);
  for (int i = 0; i < cl.size(); ++i) {
    member_idx[cl.members[static_cast<std::size_t>(i)]] = i;
  }
  std::vector<Fingerprint> partial(static_cast<std::size_t>(cl.size()),
                                   empty_fingerprint(t));
  for (const auto& [machine, fp] : contribs) {
    const auto it = member_idx.find(machine);
    CCG_CHECK(it != member_idx.end());
    combine_into(partial[static_cast<std::size_t>(it->second)], *fp);
  }
  // parents precede children in member order, so a reverse sweep visits
  // every child before its parent.
  for (int i = cl.size() - 1; i >= 1; --i) {
    const auto& p = partial[static_cast<std::size_t>(i)];
    // An empty partial is a 1-bit "nothing to report" message.
    const int bits = p.empty_set() ? 1 : encoded_bits(p);
    *max_bits = std::max(*max_bits, bits);
    combine_into(
        partial[static_cast<std::size_t>(cl.parent[static_cast<std::size_t>(
            i)])],
        p);
  }
  return partial.front();
}

// The G-side machine of the designated link for H-edge {v, u} on v's side.
int designated_machine(const cluster::ClusterGraph& cg, int v, int u) {
  const auto link = cg.links(v, u).front();
  return v < u ? link.first : link.second;
}

}  // namespace

void neighborhood_counts_into(cluster::Runtime& rt,
                              const std::vector<Fingerprint>& raw,
                              const NeighborPredicate& pred,
                              const CountOptions& opt, CountResult* out) {
  const auto& h = rt.h();
  const auto& cg = rt.cg();
  CCG_CHECK(static_cast<int>(raw.size()) == h.n());
  const int t = opt.t;
  CountResult& res = *out;
  res.max_message_bits = 0;
  res.estimate.resize(static_cast<std::size_t>(h.n()));
  res.maxima.resize(static_cast<std::size_t>(h.n()));

  // Each raw fingerprint crosses at least one inter-cluster link when its
  // owner participates anywhere; measure the largest such link message.
  if (opt.measure_bits) {
    for (int v = 0; v < h.n(); ++v) {
      res.max_message_bits =
          std::max(res.max_message_bits,
                   encoded_bits(raw[static_cast<std::size_t>(v)]));
    }
  }

  std::vector<std::pair<int, Fingerprint const*>> contribs;
  for (int v = 0; v < h.n(); ++v) {
    Fingerprint& y = res.maxima[static_cast<std::size_t>(v)];
    if (opt.measure_bits) {
      contribs.clear();
      for (const int u : h.neighbors(v)) {
        if (!pred(v, u)) continue;
        contribs.emplace_back(designated_machine(cg, v, u),
                              &raw[static_cast<std::size_t>(u)]);
      }
      y = measured_tree_aggregate(cg, v, contribs, t,
                                  &res.max_message_bits);
    } else {
      reset_empty(t, &y);
      for (const int u : h.neighbors(v)) {
        if (!pred(v, u)) continue;
        combine_into(y, raw[static_cast<std::size_t>(u)]);
      }
    }
    res.estimate[static_cast<std::size_t>(v)] = estimate_count(y);
  }

  // One H-round carrying the largest partial; when bits were not
  // measured, charge the codec's expected size.
  const int bits =
      opt.measure_bits ? std::max(1, res.max_message_bits) : 2 * t + 16;
  rt.charge(1, bits);
}

CountResult neighborhood_counts(cluster::Runtime& rt,
                                const std::vector<Fingerprint>& raw,
                                const NeighborPredicate& pred,
                                const CountOptions& opt) {
  CountResult res;
  neighborhood_counts_into(rt, raw, pred, opt, &res);
  return res;
}

CountResult approximate_neighborhood_counts(cluster::Runtime& rt,
                                            const NeighborPredicate& pred,
                                            const CountOptions& opt,
                                            Rng& rng) {
  std::vector<Fingerprint> raw;
  raw.reserve(static_cast<std::size_t>(rt.h().n()));
  for (int v = 0; v < rt.h().n(); ++v) {
    raw.push_back(sample_fingerprint(opt.t, rng));
  }
  return neighborhood_counts(rt, raw, pred, opt);
}

void edge_union_estimates_into(cluster::Runtime& rt,
                               const CountResult& neighborhood,
                               const CountOptions& opt,
                               std::vector<double>* out) {
  const auto& h = rt.h();
  out->resize(static_cast<std::size_t>(h.m()));
  int max_bits = 0;
  Fingerprint joint;  // one buffer reused across every edge
  // Walk the CSR rows' (u < v) entries: the h.edges() order, no copy.
  std::size_t e = 0;
  for (int u = 0; u < h.n(); ++u) {
    const auto& mu = neighborhood.maxima[static_cast<std::size_t>(u)].maxima;
    for (const int v : h.neighbors(u)) {
      if (v < u) continue;
      joint.maxima.assign(mu.begin(), mu.end());
      combine_into(joint, neighborhood.maxima[static_cast<std::size_t>(v)]);
      if (opt.measure_bits) {
        max_bits = std::max(max_bits,
                            joint.empty_set() ? 1 : encoded_bits(joint));
      }
      (*out)[e++] = estimate_count(joint);
    }
  }
  // Endpoint machines of each link exchange their cluster's fingerprint
  // (one inter-cluster round) after an intra-cluster broadcast.
  const int bits = opt.measure_bits ? std::max(1, max_bits) : 2 * opt.t + 16;
  rt.charge(2, bits);
}

std::vector<double> edge_union_estimates(cluster::Runtime& rt,
                                         const CountResult& neighborhood,
                                         const CountOptions& opt) {
  std::vector<double> out;
  edge_union_estimates_into(rt, neighborhood, opt, &out);
  return out;
}

}  // namespace ccg::sketch
