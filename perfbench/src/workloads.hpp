// The three workloads and the two sections of a traced run they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dense.hpp"
#include "svc/service.hpp"
#include "util.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

// splitmix64 of (seed, a, b): every input the benchmark makes derives
// from the workload seed through this.
std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

// Recipes -> prepared instances through svc::build_instance. A failed
// build is a failed check; returns false.
bool build_instances(const std::vector<std::string>& recipes,
                     std::vector<ccg::svc::Instance>* out, Checks& checks,
                     double* build_ms);

// Closed loop of one client over a reused ccg::Solver (oracle_dense,
// full_stack). Untraced: end-to-end metrics. Traced: the dense-phase
// section on the same instances, then a short serve section.
struct ClosedSpec {
  std::vector<std::string> recipes;  // instance recipes (job-line flags)
  DenseOpts opts;
  int seeds_per_instance = 3;
};
void run_closed(const ClosedSpec& spec, const Args& args, Tracer& tracer,
                Checks& checks, Metrics* metrics);

// Open loop into an in-process server::Server (serve_mix). Untraced:
// end-to-end metrics. Traced: the dense-phase section on the mix's auto
// instances, then the open loop with server spans.
void run_serve_mix(const Args& args, Tracer& tracer, Checks& checks,
                   Metrics* metrics);

// Traced-run section: interleaves untraced Solver::solve calls with
// phase-by-phase traced solves (at the workload's threads and at t=1)
// and the layer probe, for `seconds`; reports the phase, ACD-split,
// sketch, net.* and trace-overhead per-layer metrics.
void dense_section(const std::vector<const ccg::cluster::ClusterGraph*>& cgs,
                   const DenseOpts& opts, std::uint64_t seed,
                   int seeds_per_instance, double seconds, Tracer& tracer,
                   Checks& checks, Metrics* metrics);

// Serve section: `seconds` of the serve_mix open loop. Reports the
// end-to-end metrics when `e2e` is set, the server.* and gen.* per-layer
// metrics otherwise. Shed and failed jobs are counted as lost in
// `checks`.
void serve_section(std::uint64_t seed, double seconds, bool e2e,
                   Tracer& tracer, Checks& checks, Metrics* metrics);

}  // namespace perfbench
