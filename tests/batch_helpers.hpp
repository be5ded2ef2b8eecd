// Runs a manifest the way examples/ccg_batch.cpp does: every expanded job
// is submitted to one in-process server::Server under its zero-padded
// manifest index, then the drained results are read through
// Server::for_each_result. `order` is the submission order (a permutation
// of the manifest indices; empty = manifest order).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "server/server.hpp"
#include "svc/manifest.hpp"

namespace ccg::testing {

struct ServedBatch {
  std::vector<svc::JobResult> jobs;  // id order == manifest order
  server::Tally tally;
  std::string report;  // drained no-timing report
  std::string stats;   // stats_json(): cache counters
};

inline ServedBatch serve_manifest(svc::Manifest m,
                                  const server::ServerOptions& opt,
                                  const std::vector<int>& order = {}) {
  server::Server srv(opt);
  const int n = static_cast<int>(m.jobs.size());
  for (int k = 0; k < n; ++k) {
    auto& job = m.jobs[static_cast<std::size_t>(
        order.empty() ? k : order[static_cast<std::size_t>(k)])];
    const std::string id = server::batch_job_id(job.index, n);
    EXPECT_EQ(srv.submit(id, std::move(job)), server::Admission::kAccepted)
        << "job " << id;
  }
  ServedBatch out;
  srv.for_each_result([&](const std::string&, const svc::JobSpec&,
                          const svc::JobResult& r) {
    out.jobs.push_back(r);
    out.tally.add(r);
  });
  out.report = srv.report_json(/*include_timing=*/false);
  out.stats = srv.stats_json();
  return out;
}

inline ServedBatch serve_manifest(const svc::Manifest& m, int workers = 1,
                                  const std::vector<int>& order = {}) {
  auto opt = server::batch_options(m);
  opt.workers = workers;
  return serve_manifest(m, opt, order);
}

// One counter of a stats_json() cache object, e.g.
// cache_stat(stats, "instance_cache", "misses").
inline std::uint64_t cache_stat(const std::string& stats,
                                const std::string& cache,
                                const std::string& field) {
  const auto at = stats.find("\"" + cache + "\"");
  EXPECT_NE(at, std::string::npos) << cache;
  const std::string key = "\"" + field + "\": ";
  const auto pos = stats.find(key, at);
  EXPECT_NE(pos, std::string::npos) << cache << "." << field;
  if (at == std::string::npos || pos == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + pos + key.size(), nullptr, 10);
}

}  // namespace ccg::testing
