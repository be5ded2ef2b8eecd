// Batch coloring (src/svc/ run through server::Server, as ccg_batch
// does): manifest parsing, proper colorings through both serving
// algorithms, instance-cache sharing, slot reset-and-reuse correctness,
// and the headline determinism contract — identical manifest =>
// byte-identical deterministic report for every scheduler-worker count
// and submission order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "batch_helpers.hpp"
#include "ccg/ccg.hpp"

namespace ccg::svc {
namespace {

using ccg::testing::cache_stat;
using ccg::testing::serve_manifest;

int env_threads() {
  if (const char* env = std::getenv("CCG_TEST_THREADS")) {
    return std::max(1, std::atoi(env));
  }
  return 1;
}

// Mixed workload: fast jobs with a shared instance, a high-degree
// pipeline job (planted), a low-degree pipeline job (sparse gnm), and a
// deterministic-recipe instance (grid). Default intra-job threads honor
// CCG_TEST_THREADS so the TSan CI job drives the two-level parallelism.
std::string test_manifest_text() {
  return "seed 91\n"
         "threads " +
         std::to_string(env_threads()) +
         "\n"
         "job --gen gnm --n 400 --m 3000 --algo fast --repeat 3\n"
         "job --gen planted --delta 130 --cliques 3 --ext 8 --anti 2 "
         "--oracle --eps 0.2\n"
         "job --gen gnm --n 300 --m 900\n"
         "job --gen caveman --cliques 5 --size 18 --bridges 2 --algo "
         "fast\n"
         "job --gen grid --w 12 --h 9 --algo fast --repeat 2\n";
}

TEST(SvcManifest, ParsesDirectivesAndExpandsRepeats) {
  const auto m = parse_manifest_string(test_manifest_text());
  EXPECT_EQ(m.seed, 91u);
  ASSERT_EQ(m.jobs.size(), 8u);  // 3 + 1 + 1 + 1 + 2
  for (std::size_t i = 0; i < m.jobs.size(); ++i) {
    EXPECT_EQ(m.jobs[i].index, static_cast<int>(i));
    EXPECT_EQ(m.jobs[i].threads, env_threads());
  }
  // Repeats share one instance key but draw distinct derived seeds.
  EXPECT_EQ(m.jobs[0].key, m.jobs[1].key);
  EXPECT_EQ(m.jobs[0].key, m.jobs[2].key);
  EXPECT_NE(m.jobs[0].params_seed, m.jobs[1].params_seed);
  EXPECT_EQ(m.jobs[6].key, m.jobs[7].key);  // grid repeat
  EXPECT_EQ(m.jobs[0].algo, Algo::kFast);
  EXPECT_EQ(m.jobs[3].algo, Algo::kAuto);
  EXPECT_TRUE(m.jobs[3].oracle);
  EXPECT_DOUBLE_EQ(m.jobs[3].eps, 0.2);
}

TEST(SvcManifest, SeedsAreAPureFunctionOfManifestSeedAndIndex) {
  const auto a = parse_manifest_string(test_manifest_text());
  const auto b = parse_manifest_string(test_manifest_text());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].params_seed, b.jobs[i].params_seed);
    EXPECT_EQ(a.jobs[i].params_seed, derive_job_seed(91, a.jobs[i].index));
  }
  // Different manifest seed -> different streams.
  EXPECT_NE(derive_job_seed(91, 0), derive_job_seed(92, 0));
  EXPECT_NE(derive_job_seed(91, 0), derive_job_seed(91, 1));
  // Explicit seeds pin the stream and step by repeat ordinal.
  const auto e = parse_manifest_string(
      "job --gen cycle --n 50 --seed 1000 --repeat 2 --algo fast\n");
  ASSERT_EQ(e.jobs.size(), 2u);
  EXPECT_EQ(e.jobs[0].params_seed, 1000u);
  EXPECT_EQ(e.jobs[1].params_seed, 1001u);
}

TEST(SvcManifest, RejectsMalformedInput) {
  EXPECT_THROW(parse_manifest_string("frobnicate 3\n"), ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --frob 3\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen nosuchgen\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --n 12abc\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --n\n"), ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --layout blorp\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --algo wat\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --repeat 0\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --seed -3\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("seed\n"), ManifestError);
  EXPECT_THROW(parse_manifest_string("job n 5\n"), ManifestError);
  // A late `seed` would split graph seeds (snapshotted per job line)
  // from params seeds (derived from the final value) — rejected.
  EXPECT_THROW(
      parse_manifest_string("job --gen cycle --n 30\nseed 9\n"),
      ManifestError);
}

TEST(SvcManifest, InstanceKeysKeepFullRealPrecision) {
  const auto key_of = [](double p) {
    JobSpec j;
    j.gen = "gnp";
    j.gargs.p = p;
    return instance_key(j);
  };
  // Distinct probabilities beyond 6 significant digits must not alias to
  // one cached instance.
  EXPECT_NE(key_of(0.01234567), key_of(0.01234572));
  EXPECT_EQ(key_of(0.25), key_of(0.25));
}

TEST(SvcBatch, ProgrammaticUnknownLayoutFailsLoudly) {
  // Programmatic builders bypass the parser's validation; the instance
  // builder must still reject a bad layout instead of guessing a shape.
  Manifest m;
  JobSpec j;
  j.gen = "cycle";
  j.gargs.n = 30;
  j.algo = Algo::kFast;
  j.layout = "stars";  // typo
  j.key = instance_key(j);
  m.jobs.push_back(j);
  finalize_job_seeds(m);
  const auto rep = serve_manifest(m);
  ASSERT_EQ(rep.jobs.size(), 1u);
  EXPECT_FALSE(rep.jobs[0].ok);
  EXPECT_NE(rep.jobs[0].error.find("unknown layout"), std::string::npos);
}

TEST(SvcBatch, AllJobsColorProperly) {
  const auto m = parse_manifest_string(test_manifest_text());
  const auto rep = serve_manifest(m, 2);
  ASSERT_EQ(rep.jobs.size(), m.jobs.size());
  for (const auto& jr : rep.jobs) {
    EXPECT_TRUE(jr.ok) << "job " << jr.index << ": " << jr.error;
    EXPECT_EQ(jr.uncolored, 0);
    EXPECT_EQ(jr.num_colors, jr.delta + 1);
    EXPECT_GT(jr.h_rounds, 0);
  }
  // The planted job went down the high-degree pipeline: it found cliques.
  EXPECT_GT(rep.jobs[3].num_cliques, 0);
  // Distinct instance recipes: gnm400, planted, gnm300, caveman, grid.
  // Each is built once (one miss) and cached; repeats share it.
  EXPECT_EQ(cache_stat(rep.stats, "instance_cache", "misses"), 5u);
  EXPECT_EQ(cache_stat(rep.stats, "instance_cache", "entries"), 5u);
}

TEST(SvcBatch, ReportBitIdenticalAcrossSchedulerWorkers) {
  const auto m = parse_manifest_string(test_manifest_text());
  std::string reference;
  for (const int workers : {1, 2, 8}) {
    const auto json = serve_manifest(m, workers).report;
    if (reference.empty()) {
      reference = json;
    } else {
      ASSERT_EQ(json, reference) << "sched_workers " << workers;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(SvcBatch, ReportBitIdenticalAcrossSubmissionOrders) {
  const auto m = parse_manifest_string(test_manifest_text());
  const int n = static_cast<int>(m.jobs.size());

  std::vector<std::vector<int>> orders;
  std::vector<int> reversed(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    reversed[static_cast<std::size_t>(i)] = n - 1 - i;
  }
  orders.push_back(reversed);
  std::vector<int> rotated(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rotated[static_cast<std::size_t>(i)] = (i + 3) % n;
  }
  orders.push_back(rotated);

  const auto ref_json = serve_manifest(m, 2).report;
  for (const auto& order : orders) {
    ASSERT_EQ(serve_manifest(m, 2, order).report, ref_json);
  }
}

TEST(SvcBatch, TimingModeOnlyAddsTimingFields) {
  auto m = parse_manifest_string("job --gen cycle --n 60 --algo fast\n");
  server::Server srv(server::batch_options(m));
  ASSERT_EQ(srv.submit(server::batch_job_id(0, 1), std::move(m.jobs[0])),
            server::Admission::kAccepted);
  const auto timed = srv.report_json(/*include_timing=*/true);
  const auto det = srv.report_json(/*include_timing=*/false);
  EXPECT_NE(timed.find("wall_ns"), std::string::npos);
  EXPECT_NE(timed.find("\"workers\""), std::string::npos);
  EXPECT_NE(timed.find("\"slo\""), std::string::npos);
  EXPECT_EQ(det.find("wall_ns"), std::string::npos);
  EXPECT_EQ(det.find("\"workers\""), std::string::npos);
  EXPECT_EQ(det.find("\"slo\""), std::string::npos);
}

TEST(SvcBatch, FailedInstanceFailsItsJobsAndSparesTheRest) {
  const auto m = parse_manifest_string(
      "job --dimacs /nonexistent/instance.col --algo fast\n"
      "job --gen cycle --n 40 --algo fast\n");
  const auto rep = serve_manifest(m);
  ASSERT_EQ(rep.jobs.size(), 2u);
  EXPECT_FALSE(rep.jobs[0].ok);
  EXPECT_FALSE(rep.jobs[0].error.empty());
  EXPECT_TRUE(rep.jobs[1].ok) << rep.jobs[1].error;
  // Failure text is deterministic, so the report contract still holds.
  EXPECT_EQ(rep.report, serve_manifest(m, 8).report);
}

TEST(SvcBatch, FailedRecipesReportOneErrorClassOnEverySurface) {
  // One recipe, one error class: the facade's Problem::recipe and the
  // serving path build through the same svc::build_instance, so a recipe
  // that cannot become an instance fails identically on both.
  struct Case {
    std::string recipe;
    ErrorCode want;
    // Non-empty: a layout the job-line parser would reject next to a
    // virtual mode. Problem::recipe gets it as --layout; the serving side
    // gets it set on the spec by hand, as a programmatic Manifest builder
    // would, so the check reaches svc::build_instance.
    std::string layout;
  };
  const Case cases[] = {
      {"--gen gnm --n 10 --m 1000", ErrorCode::kBuildFailed, ""},
      {"--gen chunglu --gamma 1.5", ErrorCode::kBuildFailed, ""},
      {"--gen caveman --cliques 1", ErrorCode::kBuildFailed, ""},
      {"--dimacs /nonexistent/instance.col", ErrorCode::kBuildFailed, ""},
      {"--gen gnm --n 10 --m 0 --mode edge", ErrorCode::kInvalidProblem, ""},
      {"--gen cycle --n 30 --mode dist2", ErrorCode::kInvalidProblem, "star"},
  };
  for (const auto& c : cases) {
    const std::string recipe =
        c.layout.empty() ? c.recipe : c.recipe + " --layout " + c.layout;
    Solver solver;
    const auto out = solver.solve(Problem::recipe(recipe));
    EXPECT_EQ(out.error.code, c.want)
        << recipe << ": " << error_code_name(out.error.code) << " "
        << out.error.message;

    JobSpec j = parse_job_flags(c.recipe);
    if (!c.layout.empty()) j.layout = c.layout;
    j.algo = Algo::kFast;
    j.key = instance_key(j);
    Manifest m;
    m.jobs.push_back(j);
    finalize_job_seeds(m);
    const auto rep = serve_manifest(m);
    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_FALSE(rep.jobs[0].ok) << recipe;
    EXPECT_EQ(rep.jobs[0].code, out.error.code)
        << recipe << ": " << error_code_name(rep.jobs[0].code) << " "
        << rep.jobs[0].error;
  }
}

TEST(SvcBatch, ManifestLargerThanDefaultQueueNeverSheds) {
  // The queue is sized from the manifest, not the server default (256),
  // so every job of a larger batch is admitted and reported.
  const auto m =
      parse_manifest_string("job --gen cycle --n 30 --algo fast --repeat 300\n");
  ASSERT_GT(m.jobs.size(), static_cast<std::size_t>(
                               server::ServerOptions{}.queue_depth));
  const auto rep = serve_manifest(m, 2);
  ASSERT_EQ(rep.jobs.size(), 300u);
  EXPECT_EQ(rep.tally.ok_jobs, 300);
  EXPECT_NE(rep.stats.find("\"shed\": 0,"), std::string::npos) << rep.stats;
  EXPECT_NE(rep.report.find("\"num_jobs\": 300"), std::string::npos);
}

TEST(SvcBatch, RowsKeepManifestIdsAndSeeds) {
  // Ids are the zero-padded manifest index, so the server's id order is
  // manifest order; each row's seed is still the manifest-derived one.
  auto m = parse_manifest_string(
      "seed 61\njob --gen cycle --n 40 --algo fast --repeat 12\n");
  const int n = static_cast<int>(m.jobs.size());
  EXPECT_EQ(server::batch_job_id(0, n), "00");
  EXPECT_EQ(server::batch_job_id(11, n), "11");
  EXPECT_EQ(server::batch_job_id(7, 1000), "007");
  server::Server srv(server::batch_options(m));
  for (auto& job : m.jobs) {
    ASSERT_EQ(srv.submit(server::batch_job_id(job.index, n), std::move(job)),
              server::Admission::kAccepted);
  }
  int next = 0;
  srv.for_each_result([&](const std::string& id, const JobSpec& job,
                          const JobResult& r) {
    EXPECT_EQ(job.index, next);
    EXPECT_EQ(id, server::batch_job_id(next, n));
    EXPECT_EQ(job.params_seed, derive_job_seed(61, job.index));
    EXPECT_EQ(r.index, job.index);
    EXPECT_TRUE(r.ok) << r.error;
    ++next;
  });
  EXPECT_EQ(next, n);
  const auto report = srv.report_json(/*include_timing=*/false);
  EXPECT_NE(report.find("\"seed\": " + std::to_string(derive_job_seed(61, 5))),
            std::string::npos);
}

TEST(SvcSlot, ReusedSlotMatchesFreshSlots) {
  // One slot serving the whole stream (scheduler-worker count 1) must
  // produce exactly what per-job fresh slots produce: State::reset /
  // Ledger::reset / Runtime::rebind leak nothing across job boundaries.
  auto m = parse_manifest_string(
      "seed 17\n"
      "job --gen gnm --n 350 --m 2600 --algo fast\n"
      "job --gen planted --delta 120 --cliques 3 --ext 8 --anti 2 "
      "--oracle --eps 0.2\n"
      "job --gen gnm --n 350 --m 2600 --algo fast\n");
  std::vector<int> instance_of;
  const auto instances = prepare_instances(m, &instance_of);

  JobSlot reused;
  std::vector<JobResult> warm(m.jobs.size());
  for (std::size_t i = 0; i < m.jobs.size(); ++i) {
    reused.run(instances[static_cast<std::size_t>(
                   instance_of[i])],
               m.jobs[i], &warm[i]);
  }
  for (std::size_t i = 0; i < m.jobs.size(); ++i) {
    JobSlot fresh;
    JobResult fr;
    fresh.run(instances[static_cast<std::size_t>(instance_of[i])],
              m.jobs[i], &fr);
    EXPECT_TRUE(warm[i].ok);
    EXPECT_EQ(warm[i].ok, fr.ok) << "job " << i;
    EXPECT_EQ(warm[i].h_rounds, fr.h_rounds) << "job " << i;
    EXPECT_EQ(warm[i].g_rounds, fr.g_rounds) << "job " << i;
    EXPECT_EQ(warm[i].fallback_count, fr.fallback_count) << "job " << i;
    EXPECT_EQ(warm[i].retry_count, fr.retry_count) << "job " << i;
    EXPECT_EQ(warm[i].num_cliques, fr.num_cliques) << "job " << i;
    EXPECT_EQ(warm[i].num_cabals, fr.num_cabals) << "job " << i;
    EXPECT_EQ(warm[i].max_bits_per_link_round, fr.max_bits_per_link_round)
        << "job " << i;
  }
  // Jobs 0 and 2 share instance and differ only in derived seed: they
  // must NOT be identical runs (the stream really is per-index).
  EXPECT_NE(m.jobs[0].params_seed, m.jobs[2].params_seed);
}

TEST(SvcBatch, IntraJobThreadCountDoesNotChangeTheReport) {
  // Two-level determinism: the same manifest at intra-job threads 1 vs 4
  // yields the same deterministic report (PR 2/3 engine guarantee carried
  // through the service).
  const auto text_with = [](int threads) {
    return "seed 5\nthreads " + std::to_string(threads) +
           "\n"
           "job --gen planted --delta 120 --cliques 3 --ext 8 --anti 2 "
           "--oracle --eps 0.2\n"
           "job --gen gnm --n 300 --m 2400 --algo fast --repeat 2\n";
  };
  const auto m1 = parse_manifest_string(text_with(1));
  const auto m4 = parse_manifest_string(text_with(4));
  const auto j1 = serve_manifest(m1).report;
  const auto j4 = serve_manifest(m4).report;
  // The reports differ only in the recorded threads field.
  const auto fix = [](std::string s) {
    std::size_t pos = 0;
    while ((pos = s.find("\"threads\": 4", pos)) != std::string::npos) {
      s.replace(pos, 12, "\"threads\": 1");
    }
    return s;
  };
  EXPECT_EQ(j1, fix(j4));
}

TEST(SvcVirtualModes, ManifestParsesModesAndKeysThem) {
  const auto m = parse_manifest_string(
      "seed 53\n"
      "job --gen grid --w 8 --h 8 --mode edge --algo fast\n"
      "job --gen grid --w 8 --h 8 --mode edge\n"
      "job --gen grid --w 8 --h 8\n"
      "job --gen gnm --n 150 --m 450 --mode dist2 --repeat 2\n"
      "job --gen gnm --n 150 --m 450\n");
  ASSERT_EQ(m.jobs.size(), 6u);
  EXPECT_EQ(m.jobs[0].mode, JobMode::kEdge);
  EXPECT_EQ(m.jobs[2].mode, JobMode::kCluster);
  EXPECT_EQ(m.jobs[3].mode, JobMode::kDist2);
  // Mode is part of instance identity: edge jobs share one line graph,
  // but never an instance with the plain-cluster job on the same recipe.
  EXPECT_EQ(m.jobs[0].key, m.jobs[1].key);
  EXPECT_NE(m.jobs[1].key, m.jobs[2].key);
  EXPECT_EQ(m.jobs[3].key, m.jobs[4].key);
  EXPECT_NE(m.jobs[3].key, m.jobs[5].key);

  // Virtual modes define their own network; layouts and bad names fail
  // at parse time, like every numeric range.
  EXPECT_THROW(parse_manifest_string("job --gen gnm --mode blorp\n"),
               ManifestError);
  EXPECT_THROW(
      parse_manifest_string("job --gen gnm --mode edge --layout star\n"),
      ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --eps 1.5\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --threads -2\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --n -5\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnp --p 1.5\n"),
               ManifestError);
}

TEST(SvcVirtualModes, EdgeAndDist2JobsColorProperlyAndDeterministically) {
  const auto m = parse_manifest_string(
      "seed 53\n"
      "job --gen grid --w 8 --h 8 --mode edge --algo fast\n"
      "job --gen grid --w 8 --h 8 --mode edge\n"
      "job --gen gnm --n 150 --m 450 --mode dist2 --repeat 2\n"
      "job --gen gnm --n 150 --m 450 --algo low\n");
  const auto rep = serve_manifest(m, 2);
  ASSERT_EQ(rep.jobs.size(), 5u);
  for (const auto& jr : rep.jobs) {
    EXPECT_TRUE(jr.ok) << "job " << jr.index << ": " << jr.error;
    EXPECT_EQ(jr.uncolored, 0);
    EXPECT_GT(jr.h_rounds, 0);
  }
  // Line graph of the 8x8 grid: one H-vertex per grid edge; c = 1.
  EXPECT_EQ(rep.jobs[0].n, 2 * 8 * 7);
  EXPECT_EQ(rep.jobs[0].congestion, 1);
  // Distance-2: H = G^2 over the same vertex set; c = 2.
  EXPECT_EQ(rep.jobs[2].n, 150);
  EXPECT_EQ(rep.jobs[2].congestion, 2);
  EXPECT_EQ(rep.jobs[4].congestion, 1);
  // Virtual instances are cached like any other: edge grid, dist2 gnm
  // and plain gnm are three builds for five jobs.
  EXPECT_EQ(cache_stat(rep.stats, "instance_cache", "misses"), 3u);
  EXPECT_EQ(cache_stat(rep.stats, "instance_cache", "entries"), 3u);

  // Programmatic builders that skip the parser still cannot pair a
  // virtual mode with a cluster layout: the instance build fails loudly
  // instead of silently ignoring the expansion.
  {
    Manifest bypass;
    JobSpec j;
    j.gen = "cycle";
    j.gargs.n = 30;
    j.mode = JobMode::kEdge;
    j.layout = "star";
    j.algo = Algo::kFast;
    j.key = instance_key(j);
    bypass.jobs.push_back(j);
    finalize_job_seeds(bypass);
    const auto r = serve_manifest(bypass);
    ASSERT_EQ(r.jobs.size(), 1u);
    EXPECT_FALSE(r.jobs[0].ok);
    EXPECT_NE(r.jobs[0].error.find("singleton"), std::string::npos)
        << r.jobs[0].error;
  }

  // The headline determinism contract extends to virtual-mode jobs.
  std::string reference;
  for (const int workers : {1, 2, 8}) {
    const auto json = serve_manifest(m, workers).report;
    if (reference.empty()) {
      reference = json;
    } else {
      ASSERT_EQ(json, reference) << "sched_workers " << workers;
    }
  }
}

}  // namespace
}  // namespace ccg::svc
