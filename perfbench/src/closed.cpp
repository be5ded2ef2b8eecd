// Closed-loop workloads (oracle_dense, full_stack) and the dense-phase
// section of every traced run.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "cluster/validate.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ccg;

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                    (b * 0xC2B2AE3D27D4EB4FULL);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

bool build_instances(const std::vector<std::string>& recipes,
                     std::vector<svc::Instance>* out, Checks& checks,
                     double* build_ms) {
  out->clear();
  std::vector<double> ms;
  for (const auto& r : recipes) {
    const std::int64_t t0 = now_ns();
    out->push_back(svc::build_instance(svc::parse_job_flags(r)));
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    checks.attempt();
    if (!checks.expect(out->back().error.empty(),
                       "instance build failed: " + r + ": " +
                           out->back().error)) {
      return false;
    }
  }
  *build_ms = mean(ms);
  return true;
}

namespace {

// Closed-loop timings are medians over this many windows of a run.
constexpr std::size_t kWindows = 5;

// The ledger phases run_high_degree and coloring_noncabals open.
const char* const kLedgerPhases[] = {
    "1-acd",       "2-slack-generation", "3-sparse",    "4-noncabals",
    "4a-matching", "4b-easy",            "4c-outliers", "4d-sct",
    "4e-complete", "5-cabals"};

// One (instance, seed) pair of the rotation. Pair k of a loop is
// pairs[k % size]: instances interleave, and every pair recurs, so each
// repeat is checked bit-identical against the pair's first solve.
struct Pair {
  const cluster::ClusterGraph* cg;
  std::uint64_t seed;
  std::size_t instance;
};

std::vector<Pair> make_pairs(
    const std::vector<const cluster::ClusterGraph*>& cgs, std::uint64_t seed,
    int seeds_per_instance) {
  std::vector<Pair> pairs;
  for (int s = 0; s < seeds_per_instance; ++s) {
    for (std::size_t i = 0; i < cgs.size(); ++i) {
      pairs.push_back(
          {cgs[i], derive(seed, 100 + i, s) % 1000000007ULL, i});
    }
  }
  return pairs;
}

// Output checks of one finished solve: proper and total (checked here,
// independently of the pipeline's own check), within the per-link
// bandwidth B (E15), and bit-identical to the pair's earlier solves. A
// structured solver error yields no coloring to check: it counts as a
// lost operation. Returns whether the solve succeeded.
bool check_solve(const Outcome& out, const Solver& solver, const Pair& p,
                 std::size_t pair_index, std::vector<std::uint64_t>* first,
                 Checks& checks) {
  checks.attempt();
  const std::string where = "instance " + std::to_string(p.instance) +
                            " seed " + std::to_string(p.seed);
  if (!out.ok()) {
    checks.lost(1, where + ": solve failed: " + out.error.message);
    return false;
  }
  const auto& colors = solver.colors();
  checks.expect(cluster::is_proper_total(p.cg->h(), colors,
                                         out.result.num_colors),
                where + ": coloring not proper and total");
  checks.expect(out.result.max_bits_per_link_round <=
                    solver.ledger().bandwidth(),
                where + ": max_bits_per_link_round exceeds B");
  const std::uint64_t h = hash_colors(colors);
  auto& f = (*first)[pair_index];
  if (f == 0) {
    f = h;
  } else {
    checks.expect(f == h, where + ": repeat not bit-identical");
  }
  return true;
}

}  // namespace

void run_closed(const ClosedSpec& spec, const Args& args, Tracer& tracer,
                Checks& checks, Metrics* metrics) {
  std::vector<std::string> recipes;
  for (std::size_t i = 0; i < spec.recipes.size(); ++i) {
    recipes.push_back(spec.recipes[i] + " --graph-seed " +
                      std::to_string(derive(args.seed, i) % 1000000007ULL));
    std::fprintf(stderr, "perfbench: instance %zu: %s\n", i,
                 recipes.back().c_str());
  }

  // Set-up, three times (median reported): instance generation and
  // cluster-graph build, a fresh Solver, one warm-up solve per instance.
  std::vector<svc::Instance> instances;
  std::unique_ptr<Solver> solver;
  std::vector<double> setup_s, build_ms;
  Outcome out;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    double ms = 0;
    if (!build_instances(recipes, &instances, checks, &ms)) return;
    build_ms.push_back(ms);
    solver = std::make_unique<Solver>();
    for (const auto& inst : instances) {
      solver->solve(Problem::cluster(inst.cg),
                    solver_options(spec.opts, 1), &out);
      checks.attempt();
      if (!out.ok()) checks.lost(1, "warm-up solve: " + out.error.message);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::vector<const cluster::ClusterGraph*> cgs;
  for (const auto& inst : instances) cgs.push_back(&inst.cg);

  if (args.trace) {
    metrics->set("svc.build_instance_ms", median(build_ms), "ms");
    dense_section(cgs, spec.opts, args.seed, spec.seeds_per_instance,
                  args.seconds, tracer, checks, metrics);
    // The serve layer is not on this workload's path; a short window of
    // the serve_mix loop keeps its per-layer metrics measured here too.
    serve_section(derive(args.seed, 7), 2.0, false, tracer, checks,
                  metrics);
    return;
  }

  const auto pairs = make_pairs(cgs, args.seed, spec.seeds_per_instance);
  std::vector<std::uint64_t> first(pairs.size(), 0);
  std::vector<double> lat_ms, end_s, h_rounds;
  std::int64_t failed = 0;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  // Every pair at least once, so h_rounds averages a fixed set of pairs.
  for (std::size_t k = 0; k < pairs.size() || now_ns() - start < budget;
       ++k) {
    const Pair& p = pairs[k % pairs.size()];
    const std::int64_t t0 = now_ns();
    solver->solve(Problem::cluster(*p.cg),
                  solver_options(spec.opts, p.seed), &out);
    const std::int64_t t1 = now_ns();
    if (!check_solve(out, *solver, p, k % pairs.size(), &first, checks)) {
      ++failed;  // counted in ok_frac, not in the latencies
      continue;
    }
    lat_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    end_s.push_back(static_cast<double>(t1 - start) / 1e9);
    if (k < pairs.size()) {
      h_rounds.push_back(static_cast<double>(out.result.h_rounds));
    }
  }

  // Each timing is the median over kWindows consecutive windows of the
  // run, so one window disturbed by the host moves none of them.
  std::vector<double> p50, p90, p99, mean_ms, rate;
  const std::size_t n = lat_ms.size();
  const std::size_t windows = std::min(kWindows, n);
  for (std::size_t i = 0; i < windows; ++i) {
    const std::size_t b = i * n / windows, e = (i + 1) * n / windows;
    const std::vector<double> w(lat_ms.begin() + static_cast<long>(b),
                                lat_ms.begin() + static_cast<long>(e));
    p50.push_back(quantile(w, 0.50));
    p90.push_back(quantile(w, 0.90));
    p99.push_back(quantile(w, 0.99));
    mean_ms.push_back(mean(w));
    const double from = b == 0 ? 0.0 : end_s[b - 1];
    rate.push_back(static_cast<double>(e - b) / (end_s[e - 1] - from));
  }
  const auto solves = static_cast<double>(lat_ms.size() + failed);
  metrics->set("setup_s", median(setup_s), "s");
  metrics->set("solves_per_s", median(rate), "1/s");
  metrics->set("solve_p50_ms", median(p50), "ms");
  metrics->set("solve_p90_ms", median(p90), "ms");
  metrics->set("solve_p99_ms", median(p99), "ms");
  // One client, no queue: time in system is the solve itself.
  metrics->set("sojourn_mean_ms", median(mean_ms), "ms");
  metrics->set("h_rounds", mean(h_rounds), "rounds");
  metrics->set("ok_frac", (solves - static_cast<double>(failed)) / solves,
               "ratio");
  metrics->set("peak_rss_mb", peak_rss_mb(), "MB");
}

void dense_section(const std::vector<const cluster::ClusterGraph*>& cgs,
                   const DenseOpts& opts, std::uint64_t seed,
                   int seeds_per_instance, double seconds, Tracer& tracer,
                   Checks& checks, Metrics* metrics) {
  const auto pairs = make_pairs(cgs, seed, seeds_per_instance);
  std::vector<std::uint64_t> first(pairs.size(), 0);
  DenseOpts t1_opts = opts;
  t1_opts.threads = 1;
  Solver solver;
  PhaseDriver traced, traced_t1;
  LayerProbe probe;
  PhaseSamples ps, ps1;
  ProbeSample pr;
  Outcome out;

  // Warm the sessions on every instance first, so the per-phase
  // allocation counts below are those of warm solves.
  for (const auto* cg : cgs) {
    solver.solve(Problem::cluster(*cg), solver_options(opts, 1), &out);
    traced.run(*cg, solver_params(opts, cg->h().n(), 1), tracer, -1, &ps);
  }

  std::vector<std::vector<double>> wall(kNumPhases), cpu(kNumPhases),
      alloc(kNumPhases), wall_t1(kNumPhases);
  std::vector<double> untraced_ms, traced_ms, self_ms, fallbacks;
  std::vector<double> compute_ms, annotate_ms, counts_ms, unions_ms;
  // Per-phase ledger totals, summed by name over the measured solves.
  std::vector<net::PhaseCost> phase_sum;
  for (const char* name : kLedgerPhases) phase_sum.push_back({name});
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t k = 0; k < cgs.size() || now_ns() - start < budget; ++k) {
    const Pair& p = pairs[k % pairs.size()];
    const auto solve_id = static_cast<std::int64_t>(k);
    const int n = p.cg->h().n();

    std::int64_t t0 = now_ns();
    {
      Scope span(tracer, "solve.untraced", solve_id);
      solver.solve(Problem::cluster(*p.cg), solver_options(opts, p.seed),
                   &out);
    }
    untraced_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    // A pair the solver cannot color fails the same way traced; nothing
    // to compare.
    if (!check_solve(out, solver, p, k % pairs.size(), &first, checks)) {
      continue;
    }
    fallbacks.push_back(static_cast<double>(out.result.fallback_count));

    // Traced solve at the workload's threads: coloring and per-phase
    // ledger must equal the untraced solve's.
    t0 = now_ns();
    const bool ran = traced.run(*p.cg, solver_params(opts, n, p.seed),
                                tracer, solve_id, &ps);
    traced_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    checks.attempt();
    checks.expect(ran && traced.colors() == solver.colors(),
                  "traced coloring differs from Solver::solve (solve " +
                      std::to_string(k) + ")");
    const auto& want = solver.ledger().phases();
    const auto& got = traced.ledger().phases();
    bool same = want.size() == got.size();
    for (std::size_t i = 0; same && i < want.size(); ++i) {
      same = want[i].name == got[i].name &&
             want[i].h_rounds == got[i].h_rounds &&
             want[i].g_rounds == got[i].g_rounds &&
             want[i].total_bits == got[i].total_bits &&
             want[i].max_bits_per_link_round ==
                 got[i].max_bits_per_link_round;
    }
    checks.attempt();
    checks.expect(same, "traced per-phase ledger differs from "
                        "Solver::solve (solve " + std::to_string(k) + ")");
    for (const auto& pc : want) {
      for (auto& sum : phase_sum) {
        if (sum.name != pc.name) continue;
        sum.h_rounds += pc.h_rounds;
        sum.g_rounds += pc.g_rounds;
        sum.total_bits += pc.total_bits;
      }
    }

    // The same phases at t=1: the denominator of speedup_vs_t1.
    traced_t1.run(*p.cg, solver_params(t1_opts, n, p.seed), tracer,
                  solve_id, &ps1);
    checks.attempt();
    checks.expect(traced_t1.colors() == solver.colors(),
                  "t=1 coloring differs (solve " + std::to_string(k) + ")");

    // The sketch layer is every solve's hot path with fingerprint ACD; in
    // oracle mode no solve calls it, and it is timed once per instance.
    const bool with_sketch = !opts.oracle || k < cgs.size();
    probe.run(*p.cg, solver_params(opts, n, p.seed), traced, with_sketch,
              tracer, solve_id, checks, &pr);
    for (int i = 0; i < kNumPhases; ++i) {
      const auto u = static_cast<std::size_t>(i);
      wall[u].push_back(ps[u].wall_ms);
      cpu[u].push_back(ps[u].cpu_ms);
      alloc[u].push_back(ps[u].allocs);
      wall_t1[u].push_back(ps1[u].wall_ms);
    }
    compute_ms.push_back(pr.compute_acd_ms);
    annotate_ms.push_back(pr.annotate_dense_ms);
    if (with_sketch) {
      counts_ms.push_back(pr.neighborhood_counts_ms);
      unions_ms.push_back(pr.edge_union_estimates_ms);
    }
  }

  for (int i = 0; i < kNumPhases; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const std::string p = kPhaseNames[u];
    metrics->set(p + ".wall_ms", median(wall[u]), "ms");
    metrics->set(p + ".cpu_ms", median(cpu[u]), "ms");
    metrics->set(p + ".allocs", median(alloc[u]), "count");
    metrics->set(p + ".speedup_vs_t1",
                 median(wall_t1[u]) / std::max(1e-9, median(wall[u])), "x");
  }
  metrics->set("acd.compute_acd.wall_ms", median(compute_ms), "ms");
  metrics->set("acd.annotate_dense.wall_ms", median(annotate_ms), "ms");
  metrics->set("sketch.neighborhood_counts.wall_ms", median(counts_ms), "ms");
  metrics->set("sketch.edge_union_estimates.wall_ms", median(unions_ms),
               "ms");
  // Mean per successful solve; a phase the pipeline skipped on a solve
  // (4a-4e when every clique is a cabal) counts 0 there.
  for (const auto& pc : phase_sum) {
    const auto d =
        static_cast<double>(std::max<std::size_t>(1, traced_ms.size()));
    metrics->set("net." + pc.name + ".h_rounds",
                 static_cast<double>(pc.h_rounds) / d, "rounds");
    metrics->set("net." + pc.name + ".g_rounds",
                 static_cast<double>(pc.g_rounds) / d, "rounds");
    metrics->set("net." + pc.name + ".total_bits",
                 static_cast<double>(pc.total_bits) / d, "bits");
  }
  metrics->set("color.fallback_vertices", mean(fallbacks), "count");
  // Self time of the traced solve span: the glue outside the six calls.
  const auto self = tracer.self_ms();
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "solve.traced" && spans[i].solve >= 0) {
      self_ms.push_back(self[i]);
    }
  }
  metrics->set("trace.solve_self_ms", median(self_ms), "ms");
  metrics->set("trace_overhead_frac",
               median(traced_ms) / median(untraced_ms) - 1.0, "ratio");
}

}  // namespace perfbench
