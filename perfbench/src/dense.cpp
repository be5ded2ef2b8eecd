#include "dense.hpp"

#include <cmath>

#include "acd/acd.hpp"
#include "cluster/validate.hpp"
#include "color/pipeline.hpp"
#include "color/slack_generation.hpp"
#include "common/rng.hpp"

namespace perfbench {

using namespace ccg;

const std::array<const char*, kNumPhases> kPhaseNames = {
    "acd.build_dense_context", "color.slack_generation",
    "color.coloring_sparse",   "color.coloring_noncabals",
    "color.coloring_cabals",   "color.fallback_finish"};

Options solver_options(const DenseOpts& o, std::uint64_t seed) {
  Options opt;
  opt.algo = Algo::kHighDegree;
  opt.oracle = o.oracle;
  opt.threads = o.threads;
  opt.eps = o.eps;
  opt.seed = seed;
  opt.copy_colors = false;  // the serving call: read Solver::colors()
  return opt;
}

color::Params solver_params(const DenseOpts& o, int n, std::uint64_t seed) {
  const Options opt = solver_options(o, seed);
  color::Params p = color::Params::defaults_for(n, opt.seed);
  p.threads = opt.threads;
  if (opt.eps > 0) p.eps = opt.eps;
  if (opt.oracle) {
    p.use_fingerprint_acd = false;
    p.measure_bits = false;
  }
  p.finisher = opt.finisher;
  p.use_representative_sets = opt.use_representative_sets;
  return p;
}

void PhaseDriver::bind(const cluster::ClusterGraph& cg,
                       const color::Params& params) {
  ledger_.reset(cg.default_bandwidth());
  if (!rt_) {
    rt_.emplace(cg, ledger_);
  } else {
    rt_->rebind(cg, ledger_);
  }
  if (!st_) {
    st_ = std::make_unique<color::State>(*rt_, params);
  } else {
    st_->reset(*rt_, params);
  }
}

bool PhaseDriver::run(const cluster::ClusterGraph& cg,
                      const color::Params& params, Tracer& tracer,
                      std::int64_t solve, PhaseSamples* out) {
  bind(cg, params);
  color::State& st = *st_;
  Scope whole(tracer, "solve.traced", solve);
  // One public call per phase, bracketed by the wall/CPU/alloc counters
  // and by the ledger phase scope run_high_degree opens around it (the
  // safety net runs outside any ledger phase there too).
  const auto phase = [&](int i, const char* ledger_name, auto&& call) {
    const long long a0 = allocs();
    const std::int64_t c0 = cpu_ns();
    const std::int64_t w0 = now_ns();
    {
      Scope span(tracer, kPhaseNames[static_cast<std::size_t>(i)], solve);
      std::optional<net::PhaseScope> scope;
      if (ledger_name != nullptr) scope.emplace(ledger_, ledger_name);
      call();
    }
    auto& s = (*out)[static_cast<std::size_t>(i)];
    s.wall_ms = static_cast<double>(now_ns() - w0) / 1e6;
    s.cpu_ms = static_cast<double>(cpu_ns() - c0) / 1e6;
    s.allocs = static_cast<double>(allocs() - a0);
  };
  try {
    phase(0, "1-acd", [&] { color::build_dense_context(st); });
    phase(1, "2-slack-generation", [&] { color::slack_generation(st); });
    phase(2, "3-sparse", [&] { color::coloring_sparse(st); });
    phase(3, "4-noncabals", [&] { color::coloring_noncabals(st); });
    phase(4, "5-cabals", [&] { color::coloring_cabals(st); });
    phase(5, nullptr, [&] {
      auto& all = st.ph.all;
      all.resize(static_cast<std::size_t>(st.h().n()));
      for (int v = 0; v < st.h().n(); ++v) {
        all[static_cast<std::size_t>(v)] = v;
      }
      color::fallback_finish(st, all);
    });
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

void LayerProbe::run(const cluster::ClusterGraph& cg,
                     const color::Params& params, const PhaseDriver& ref,
                     bool with_sketch, Tracer& tracer,
                     std::int64_t solve, Checks& checks, ProbeSample* out) {
  session_.bind(cg, params);
  color::State& st = *session_.st_;
  cluster::Runtime& rt = *session_.rt_;
  const int n = st.h().n();

  // Phase 1 as build_dense_context assembles it: ComputeACD, then the
  // dense annotations, on the session's stream space and scratch.
  acd::AcdParams ap;
  ap.eps = params.eps;
  ap.t = params.fingerprint_t;
  ap.use_fingerprints = params.use_fingerprint_acd;
  ap.measure_bits = params.measure_bits;
  ap.par = st.par.get();
  std::int64_t t0 = now_ns();
  {
    Scope span(tracer, "acd.compute_acd", solve);
    acd::compute_acd(rt, ap, st.streams, &st.dc.acd, &st.acd_scratch);
  }
  out->compute_acd_ms = static_cast<double>(now_ns() - t0) / 1e6;
  const std::uint64_t acd_rounds = st.streams.round();
  st.dc.ell = params.ell(n);
  t0 = now_ns();
  {
    Scope span(tracer, "acd.annotate_dense", solve);
    acd::annotate_dense(rt, st.dc.acd, st.dc.ell, params.fingerprint_t,
                        params.use_fingerprint_acd, st.streams, st.par.get(),
                        &st.dc.info, &st.acd_scratch);
  }
  out->annotate_dense_ms = static_cast<double>(now_ns() - t0) / 1e6;

  const auto& want = ref.state().dc;
  checks.attempt();
  checks.expect(st.dc.acd.clique_of == want.acd.clique_of &&
                    st.dc.info.is_cabal == want.info.is_cabal,
                "compute_acd + annotate_dense differ from phase 1 of the "
                "traced solve (solve " + std::to_string(solve) + ")");
  const auto& phases = ref.ledger().phases();
  checks.attempt();
  checks.expect(!phases.empty() && phases.front().name == "1-acd" &&
                    session_.ledger_.h_rounds() == phases.front().h_rounds,
                "compute_acd + annotate_dense H-rounds differ from the "
                "traced 1-acd phase (solve " + std::to_string(solve) + ")");
  if (!with_sketch) return;

  // Sketch layer: the degree-estimate step of fingerprint ComputeACD
  // (sample at stream round 1, aggregate with the trivial predicate),
  // then the per-edge union estimates, timed call by call.
  StreamCtx streams(params.seed);
  streams.bump();
  sketch::sample_raw_fingerprints_stream(n, params.fingerprint_t, streams,
                                         st.par.get(), &raw_);
  sketch::CountOptions opt;
  opt.t = params.fingerprint_t;
  opt.measure_bits = params.measure_bits;
  t0 = now_ns();
  {
    Scope span(tracer, "sketch.neighborhood_counts", solve);
    sketch::neighborhood_counts_into(
        rt, raw_, [](int, int) { return true; }, opt, &counts_);
  }
  out->neighborhood_counts_ms = static_cast<double>(now_ns() - t0) / 1e6;
  t0 = now_ns();
  {
    Scope span(tracer, "sketch.edge_union_estimates", solve);
    sketch::edge_union_estimates_into(rt, counts_, opt, &unions_);
  }
  out->edge_union_estimates_ms = static_cast<double>(now_ns() - t0) / 1e6;

  bool sane = counts_.estimate.size() == static_cast<std::size_t>(n) &&
              unions_.size() == st.h().edges().size();
  for (const double u : unions_) sane = sane && std::isfinite(u) && u > 0;
  checks.attempt();
  checks.expect(sane, "sketch estimates malformed (solve " +
                          std::to_string(solve) + ")");
  // One fingerprint ComputeACD attempt bumps the stream twice; its
  // degree estimates are then exactly this probe's.
  if (params.use_fingerprint_acd && acd_rounds == 2) {
    checks.attempt();
    checks.expect(counts_.estimate == ref.state().dc.acd.degree_est,
                  "sketch degree estimates differ from ComputeACD's (solve " +
                      std::to_string(solve) + ")");
  }
}

}  // namespace perfbench
