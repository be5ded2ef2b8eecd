// perfbench: the repository's benchmark program. One run measures one
// named workload for a fixed time and prints, as its last stdout line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The traced run also
// writes its spans as Chrome trace-event JSON into --out-dir.
//
// Usage: perfbench --workload <oracle_dense|full_stack|serve_mix>
//                  --seed <n> --seconds <s> --trace <0|1> [--out-dir d]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<oracle_dense|full_stack|serve_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Tracer tracer(args.trace);
  Checks checks;
  Metrics metrics;
  const unsigned nproc = std::thread::hardware_concurrency();

  if (args.workload == "oracle_dense") {
    // E1 mixture (n ~ 7.9k) and cabal-heavy mixture (n ~ 3.8k), two of
    // each, oracle ACD at eps 0.2 on two round-engine threads.
    ClosedSpec spec;
    for (int copy = 0; copy < 2; ++copy) {
      spec.recipes.push_back(
          "--gen planted --delta 256 --cliques 20 --ext 24 --anti 2 "
          "--sparse 3200");
      spec.recipes.push_back(
          "--gen planted --delta 256 --cliques 15 --ext 6 --anti 2");
    }
    spec.opts = {/*oracle=*/true, /*threads=*/2, /*eps=*/0.2};
    run_closed(spec, args, tracer, checks, &metrics);
  } else if (args.workload == "full_stack") {
    // Fingerprint ACD with measured bits on a planted mixture (n ~ 880)
    // expanded to cluster trees: every aggregation walks a support tree.
    // Small enough for ~40 solves in a 20 s run.
    ClosedSpec spec;
    for (int copy = 0; copy < 2; ++copy) {
      spec.recipes.push_back(
          "--gen planted --delta 128 --cliques 4 --ext 12 --anti 2 "
          "--sparse 400 --layout tree --cluster-size 4");
    }
    spec.opts = {/*oracle=*/false, /*threads=*/2, /*eps=*/0.2};
    spec.seeds_per_instance = 8;  // H-rounds vary widely between seeds
    run_closed(spec, args, tracer, checks, &metrics);
  } else if (args.workload == "serve_mix") {
    run_serve_mix(args, tracer, checks, &metrics);
  } else {
    usage(("unknown workload '" + args.workload + "'").c_str());
  }

  if (args.trace) {
    metrics.set("env.nproc", static_cast<double>(nproc), "count");
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "_" + std::to_string(args.seed) + ".json";
    if (!tracer.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u build=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, nproc, PERFBENCH_BUILD_TYPE);
  const bool correct = checks.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(checks.attempted()),
              static_cast<long long>(checks.failed() + checks.lost()),
              metrics.json().c_str());
  return correct ? 0 : 1;
}
