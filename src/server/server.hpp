// The one serving path: a Server owns the request state machine behind
// both CLIs — `ccg_serve` (examples/ccg_serve.cpp) streams protocol
// lines into handle_line(), and `ccg_batch` (examples/ccg_batch.cpp)
// submits a parsed manifest's jobs straight to submit().
//
// A Server ties the pieces together: protocol parsing (protocol.hpp),
// admission + work-stealing execution (scheduler.hpp) and the cross-job
// caches (cache.hpp). Transports are deliberately outside: net.hpp
// drives handle_line() from stdin or from socket connections; tests
// drive it directly.
//
// Determinism contract: each job's coloring seed is fixed before it is
// submitted — a pure function of (server seed, client id) for protocol
// jobs (derive_serve_seed), of (manifest seed, index) for batch jobs
// (svc::derive_job_seed) — and the report is ordered by id, so the
// drained no-timing report is byte-identical for every worker count,
// client interleaving, submission order, steal schedule and cache state.
// Shed jobs are excluded from the report (whether a job sheds is
// timing); accepted jobs are in, whatever order they arrived.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/thread_safety.hpp"
#include "server/cache.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"

namespace ccg::server {

struct ServerOptions {
  std::uint64_t seed = 1;   // server seed: the manifest-seed analogue
  int workers = 1;          // scheduler workers (<= 0: hardware)
  int queue_depth = 256;    // admission bound (queued + running jobs)
  int default_threads = 1;  // intra-job threads for jobs without --threads
  // Failure policy (svc::RunPolicy semantics).
  int max_retries = 0;
  bool degrade = false;
  std::int64_t deadline_ms = 0;  // default for jobs without --deadline-ms
  CacheBudgets cache;
};

// Outcome of Server::submit.
enum class Admission { kAccepted, kShed, kDuplicate };

// Counts over drained results: the report's `aggregate` section and
// ccg_batch's exit code both come from it.
struct Tally {
  int ok_jobs = 0;
  int jobs_failed = 0;
  int jobs_retried = 0;  // needed more than one attempt, whatever the verdict
  int jobs_degraded = 0;
  std::int64_t total_h_rounds = 0;
  std::int64_t total_g_rounds = 0;
  std::int64_t total_fallbacks = 0;

  void add(const svc::JobResult& r);
};

class Server {
 public:
  // Construction starts the scheduler workers; destruction stops them.
  explicit Server(const ServerOptions& opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Handle one request line (1-based lineno feeds the shared error
  // model). Appends the response line(s) to *out; returns false when the
  // connection should close (quit). Malformed requests throw
  // svc::ManifestError — the transport chooses between an `error`
  // response (sockets) and exit 2 (strict stdio), exactly the batch
  // CLI's split. Thread-safe: connection handlers call this
  // concurrently.
  bool handle_line(const std::string& line, int lineno, std::string* out);

  // Admit one job under `id`. The caller fixes job.index and
  // job.params_seed: handle_line derives both from the id, ccg_batch
  // keeps the manifest's. The spec is moved into the task. kDuplicate
  // (id already taken) and kShed (queue_depth jobs in flight) queue
  // nothing. Thread-safe.
  Admission submit(const std::string& id, svc::JobSpec job);

  // Block until every accepted job completed.
  void drain();

  // Drain, then call fn(id, job, result) for every accepted job in id
  // order: the one results loop behind report_json, ccg_batch's exit
  // code and the tests. fn runs under the server lock and must not call
  // back into the Server.
  using ResultFn = std::function<void(const std::string& id,
                                      const svc::JobSpec& job,
                                      const svc::JobResult& result)>;
  void for_each_result(const ResultFn& fn);

  // Drained report over every accepted job, ordered by id.
  // include_timing=false drops wall clocks, the SLO section and every
  // other timing-dependent field; what remains is byte-identical across
  // serving configurations.
  std::string report_json(bool include_timing);

  // One JSON object of timing-class counters (queue, sheds, steals,
  // cache hit rates, per-class latency quantiles). Never part of the
  // deterministic report.
  std::string stats_json();

  const ServerOptions& options() const { return opt_; }
  Scheduler& scheduler() { return sched_; }

 private:
  void append_report(bool include_timing, std::string* out);

  const ServerOptions opt_;
  ServeCache cache_;
  Scheduler sched_;
  // Serializes submissions against report/drain. Lock order: mu_ before
  // the scheduler's internal lock (report_json holds mu_ across
  // sched_.drain()); scheduler workers never take mu_, so queued jobs
  // keep completing while a drain holds it.
  Mutex mu_;
  // id -> task, sorted: report iteration order == id order. The mapped
  // Task objects are handed to the scheduler by pointer; their result
  // fields are written by exactly one worker and read only after drain()
  // (the scheduler's pending_ handoff is the happens-before edge).
  std::map<std::string, std::unique_ptr<Task>> tasks_ CCG_GUARDED_BY(mu_);

  void visit_locked(const ResultFn& fn) CCG_REQUIRES(mu_);
};

// How ccg_batch maps a manifest onto a Server. The server seed is the
// manifest seed, so retry seeds stay derive_retry_seed(manifest seed,
// index, attempt); the queue holds the whole manifest, so a batch never
// sheds. Workers and the failure policy are the caller's.
ServerOptions batch_options(const svc::Manifest& m);

// Id of manifest job `index` out of `num_jobs`: the index zero-padded to
// the width of the largest one, so the id-ordered report lists jobs in
// manifest order.
std::string batch_job_id(int index, int num_jobs);

}  // namespace ccg::server
