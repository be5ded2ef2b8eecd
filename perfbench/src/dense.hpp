// The traced side of the dense (Theorem 1.2) pipeline: the phases of
// color::run_high_degree called one public entry point at a time, each
// inside the same ledger phase scope the pipeline opens, so the coloring
// and the per-phase ledger match an untraced ccg::Solver::solve exactly.
// Plus two probes that time the layers below phase 1 from outside: the
// ComputeACD / annotate_dense split and the sketch aggregation calls.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ccg/solver.hpp"
#include "cluster/cluster_graph.hpp"
#include "color/coloring.hpp"
#include "net/ledger.hpp"
#include "sketch/approx_count.hpp"
#include "util.hpp"

namespace perfbench {

// Heap allocations since process start (counting operator new, alloc.cpp).
long long allocs();

// How a workload runs its dense solves; the ccg::Options knobs it sets.
struct DenseOpts {
  bool oracle = true;
  int threads = 1;
  double eps = 0.2;
};

// The Options an untraced Solver::solve gets, and the color::Params the
// Solver derives from them (Solver::solve_impl's assembly, verbatim).
ccg::Options solver_options(const DenseOpts& o, std::uint64_t seed);
ccg::color::Params solver_params(const DenseOpts& o, int n,
                                 std::uint64_t seed);

constexpr int kNumPhases = 6;
// Metric prefix of each phase call, in run_high_degree's order.
extern const std::array<const char*, kNumPhases> kPhaseNames;

struct PhaseSample {
  double wall_ms = 0;
  double cpu_ms = 0;
  double allocs = 0;
};
using PhaseSamples = std::array<PhaseSample, kNumPhases>;

// A reused session, like ccg::Solver's arena: one Ledger, Runtime and
// color::State reset and rebound per run.
class PhaseDriver {
 public:
  // One traced high-degree solve. Returns false (and leaves the state
  // partial) if a phase threw.
  bool run(const ccg::cluster::ClusterGraph& cg,
           const ccg::color::Params& params, Tracer& tracer,
           std::int64_t solve, PhaseSamples* out);
  const std::vector<int>& colors() const { return st_->phi.vec(); }
  const ccg::net::Ledger& ledger() const { return ledger_; }
  const ccg::color::State& state() const { return *st_; }

 private:
  void bind(const ccg::cluster::ClusterGraph& cg,
            const ccg::color::Params& params);
  friend class LayerProbe;

  ccg::net::Ledger ledger_{1};
  std::optional<ccg::cluster::Runtime> rt_;
  std::unique_ptr<ccg::color::State> st_;
};

struct ProbeSample {
  double compute_acd_ms = 0;
  double annotate_dense_ms = 0;
  double neighborhood_counts_ms = 0;
  double edge_union_estimates_ms = 0;
};

// Phase 1 split and (with_sketch) sketch timing on their own session.
// Checks that the split decomposition equals the one `ref` built in its
// phase 1, and — in fingerprint mode, when ComputeACD needed one
// attempt — that the sketch probe's degree estimates equal ComputeACD's.
class LayerProbe {
 public:
  void run(const ccg::cluster::ClusterGraph& cg,
           const ccg::color::Params& params, const PhaseDriver& ref,
           bool with_sketch, Tracer& tracer, std::int64_t solve, Checks& checks,
           ProbeSample* out);

 private:
  PhaseDriver session_;
  std::vector<ccg::sketch::Fingerprint> raw_;
  ccg::sketch::CountResult counts_;
  std::vector<double> unions_;
};

}  // namespace perfbench
