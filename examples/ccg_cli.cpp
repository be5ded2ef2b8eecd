// ccg_cli — command-line driver for the whole library, on the ccg::Solver
// facade.
//
// The instance is named in the job-line grammar shared with batch
// manifests, the serving protocol and ccg::Problem::recipe (flag reference
// in src/svc/manifest.hpp): svc parses it and svc::build_instance builds
// it, so a recipe means the same instance — defaults, ranges, layout and
// error class included — on every surface. The CLI runs the
// (Delta+1)-coloring pipeline through one Solver session and prints a
// machine-readable JSON result (plus the per-phase ledger on stderr with
// --verbose).
//
//   ccg_cli --gen gnm --n 4000 --m 24000 --layout star --cluster-size 4
//   ccg_cli --gen caveman --cliques 8 --size 32 --bridges 2 --finisher gk
//   ccg_cli --gen chunglu --n 10000 --avg-deg 20 --gamma 2.5 --seed 7
//   ccg_cli --gen planted --delta 256 --cliques 4 --ext 24 --anti 2
//   ccg_cli --gen grid --w 40 --h 25 --distance 2     (distance-k coloring)
//   ccg_cli --gen gnm --n 2000 --algo fast --eps 0.2  (explicit algo/eps)
//
// Generator defaults are the job line's: a bare `--gen caveman` builds 4
// cliques of 24, `--gen cycle` 2000 vertices. The CLI keeps its own
// --seed: it seeds the graph (unless --graph-seed pins it) and seed + 1
// seeds the coloring, so `--seed s` reproduces the same run as before.
//
// Malformed flags and out-of-range values exit 2 with usage; failed
// builds (a generator contract violation, an unreadable DIMACS file) and
// solver-reported errors exit 1 with the structured error class.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "ccg/ccg.hpp"
#include "common/parse.hpp"

namespace {

using namespace ccg;

int usage() {
  std::fprintf(
      stderr,
      "usage: ccg_cli {--gen {gnm|gnp|chunglu|caveman|planted|grid|cycle}\n"
      "                | --dimacs path}\n"
      "               [generator args: --n --m --p --avg-deg --gamma\n"
      "                --cliques --size --bridges --delta --ext --anti\n"
      "                --sparse --w --h]\n"
      "               [--layout {singleton|star|path|tree|bridge}]\n"
      "               [--cluster-size k] [--links-per-edge l]\n"
      "               [--mode {cluster|edge|dist2}] [--graph-seed g]\n"
      "               [--distance k]  (color G^k as a virtual graph)\n"
      "               [--edge-coloring]  (color the line graph)\n"
      "               [--algo {auto|high|low|fast}]\n"
      "               [--eps e]  (ACD epsilon, in (0, 1))\n"
      "               [--oracle]  (exact-oracle ACD, unmeasured bits)\n"
      "               [--finisher {randomized|linial|gk}]\n"
      "               [--threads t]  (parallel round engine; 0 = hardware,\n"
      "                               output identical for every t)\n"
      "               [--deadline-ms ms] [--repsets] [--seed s] [--verbose]\n"
      "       recipe and execution flags follow the job-line grammar\n"
      "       (src/svc/manifest.hpp)\n");
  return 2;
}

int bad_flag(const std::string& what) {
  std::fprintf(stderr, "ccg_cli: %s\n", what.c_str());
  return usage();
}

int solve_failed(ErrorCode code, const std::string& message) {
  std::fprintf(stderr, "ccg_cli: solve failed (%s): %s\n",
               error_code_name(code), message.c_str());
  return 1;
}

void print_h(const graph::Graph& g) {
  std::fprintf(stderr, "H: n=%d m=%lld Delta=%d\n", g.n(),
               static_cast<long long>(g.m()), g.max_degree());
}

void print_json(const Outcome& out) {
  const color::Result& res = out.result;
  std::printf("{\n");
  std::printf("  \"n\": %d,\n  \"machines\": %d,\n", out.n, out.machines);
  std::printf("  \"num_colors\": %d,\n", res.num_colors);
  std::printf("  \"h_rounds\": %lld,\n  \"g_rounds\": %lld,\n",
              static_cast<long long>(res.h_rounds),
              static_cast<long long>(res.g_rounds));
  std::printf("  \"dilation\": %d,\n  \"congestion\": %d,\n", res.dilation,
              out.congestion);
  std::printf("  \"max_bits_per_link_round\": %d,\n",
              res.max_bits_per_link_round);
  std::printf("  \"num_cliques\": %d,\n  \"num_cabals\": %d,\n",
              res.num_cliques, res.num_cabals);
  std::printf("  \"sparse_count\": %d,\n", res.sparse_count);
  std::printf("  \"fallback_count\": %d,\n  \"retry_count\": %d\n",
              res.fallback_count, res.retry_count);
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the flags the CLI owns; every other token is the job line.
  std::uint64_t seed = 1;
  int distance = 1;
  bool edge_coloring = false, repsets = false, verbose = false;
  bool named = false;  // --gen or --dimacs: the recipe names an instance
  auto finisher = color::Params::Finisher::kRandomizedList;
  std::vector<std::string> job;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help") return usage();
    bool* const toggle = flag == "--edge-coloring" ? &edge_coloring
                         : flag == "--repsets"       ? &repsets
                         : flag == "--verbose"       ? &verbose
                                                     : nullptr;
    if (toggle) {
      *toggle = true;
      continue;
    }
    if (flag != "--seed" && flag != "--distance" && flag != "--finisher") {
      named = named || flag == "--gen" || flag == "--dimacs";
      job.push_back(flag);
      continue;
    }
    if (i + 1 >= argc) return bad_flag(flag + " needs a value");
    const std::string val = argv[++i];
    if (flag == "--seed") {
      const auto s = parse_u64_strict(val);
      if (!s) return bad_flag("invalid seed '" + val + "' for --seed");
      seed = *s;
    } else if (flag == "--distance") {
      const auto k = parse_int_strict(val);
      if (!k || *k < 1 || *k > Problem::kMaxDistance) {
        return bad_flag("--distance must be in [1, " +
                        std::to_string(Problem::kMaxDistance) + "]");
      }
      distance = *k;
    } else if (val == "linial") {
      finisher = color::Params::Finisher::kLinial;
    } else if (val == "gk") {
      finisher = color::Params::Finisher::kGhaffariKuhn;
    } else if (val != "randomized") {
      return bad_flag("unknown finisher (randomized|linial|gk)");
    }
  }
  if (!named) return usage();

  svc::JobSpec spec;
  try {
    svc::JobLineDefaults def;
    def.graph_seed = seed;
    def.allow_repeat = false;
    std::vector<svc::JobSpec> specs;
    svc::parse_job_tokens(job, 1, def, &specs);
    spec = std::move(specs.front());
  } catch (const svc::ManifestError& e) {
    return bad_flag(e.what());
  }

  Options opt;
  opt.seed = seed + 1;
  opt.algo = spec.algo;
  opt.threads = spec.threads;
  if (spec.eps > 0) opt.eps = spec.eps;
  opt.oracle = spec.oracle;
  if (spec.deadline_ms > 0) opt.deadline_ms = spec.deadline_ms;
  opt.finisher = finisher;
  opt.use_representative_sets = repsets;

  // One Solver session serves every mode. --edge-coloring and --distance
  // color a virtual graph over the recipe's base graph, which defines its
  // own network: they take precedence over --layout and --mode.
  Solver solver;
  Outcome out;
  if (edge_coloring || distance > 1) {
    std::optional<graph::Graph> g;
    try {
      Rng rng(spec.graph_seed);
      g.emplace(svc::build_job_graph(spec, rng));
    } catch (const std::exception& e) {
      return solve_failed(ErrorCode::kBuildFailed, e.what());
    }
    print_h(*g);
    solver.solve(edge_coloring ? Problem::edge_coloring(*g)
                               : Problem::distance_k(*g, distance),
                 opt, &out);
  } else {
    const auto inst = svc::build_instance(spec);
    if (!inst.error.empty()) return solve_failed(inst.error_code, inst.error);
    print_h(inst.vg ? inst.vg->h() : inst.cg.h());
    solver.solve(inst.vg ? Problem::virtual_graph(*inst.vg)
                         : Problem::cluster(inst.cg),
                 opt, &out);
  }
  if (!out.ok()) return solve_failed(out.error.code, out.error.message);
  if (verbose) std::fprintf(stderr, "%s", solver.ledger().report().c_str());
  print_json(out);
  return 0;
}
