// serve_mix: an open loop into an in-process server::Server, and the
// serve section every traced run reports the server.* metrics from.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <thread>

#include "server/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ccg;

namespace {

// Offered load, fixed: between a third and a half of the mix's capacity
// at 4 workers (see perfbench/README.md for the measurement).
constexpr double kRate = 250.0;  // jobs/s
constexpr int kWorkers = 4;
// Measured window split into segments; each starts and ends with an
// empty server, and each end-to-end timing is the median over segments.
// A segment whose generator ran late (p99 of send time minus due time
// above the limit) is invalid: its requests still run and are checked,
// but its figures are left out.
constexpr int kSegments = 8;
constexpr double kLateLimitMs = 10.0;

struct Mix {
  std::vector<std::string> gnm;      // fast and low jobs
  std::vector<std::string> planted;  // auto jobs (dense, oracle ACD)
};

Mix make_mix(std::uint64_t seed) {
  Mix m;
  for (std::uint64_t i = 0; i < 2; ++i) {
    m.gnm.push_back("--gen gnm --n 2000 --m 16000 --graph-seed " +
                    std::to_string(derive(seed, 10 + i) % 1000000007ULL));
  }
  // Eight dense instances, so one slow instance moves a run's tail less.
  for (std::uint64_t i = 0; i < 8; ++i) {
    m.planted.push_back(
        "--gen planted --delta 200 --cliques 4 --ext 16 --anti 2 "
        "--sparse 400 --graph-seed " +
        std::to_string(derive(seed, 20 + i) % 1000000007ULL));
  }
  return m;
}

std::string job_flags(const Mix& m, char cls, std::uint64_t pick) {
  switch (cls) {
    case 'f':
      return m.gnm[pick % m.gnm.size()] + " --algo fast";
    case 'l':
      return m.gnm[pick % m.gnm.size()] + " --algo low";
    case 'h':
      return m.planted[pick % m.planted.size()] +
             " --oracle --eps 0.2 --algo high";
    default:
      return m.planted[pick % m.planted.size()] +
             " --oracle --eps 0.2 --algo auto";
  }
}

struct Request {
  std::string line;
  double due_s = 0;  // offset from the segment start
};

// Poisson arrivals at kRate for `seconds`. Classes come in shuffled
// blocks of 20 (12 fast, 5 low, 3 auto) and 4 of every 20 requests pin
// an explicit seed from a small pool (4 seeds; 16 for auto), so they
// repeat an earlier (recipe, seed) and the result cache can serve them. A
// pinned auto request runs as `--algo high` half the time: same dense
// snapshot key, another result key, so the dense-snapshot cache serves
// the first of those per (recipe, seed).
std::vector<Request> make_schedule(const Mix& mix, std::uint64_t seed,
                                   int segment, double seconds) {
  std::uint64_t state =
      derive(seed, 1000 + static_cast<std::uint64_t>(segment));
  const auto next = [&state] {
    state = derive(state, 1);
    return state;
  };
  const auto shuffle = [&next](std::string& s) {
    for (std::size_t i = s.size(); i > 1; --i) {
      std::swap(s[i - 1], s[next() % i]);
    }
  };
  std::vector<Request> out;
  std::string classes, pinned;
  double t = 0;
  for (int k = 0;; ++k) {
    const double u =
        static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    t += -std::log(1.0 - u) / kRate;
    if (t >= seconds) break;
    if (k % 20 == 0) {
      classes = std::string(12, 'f') + std::string(5, 'l') + "aaa";
      pinned = std::string(4, 'p') + std::string(16, '-');
      shuffle(classes);
      shuffle(pinned);
    }
    char cls = classes[static_cast<std::size_t>(k % 20)];
    const bool pin = pinned[static_cast<std::size_t>(k % 20)] == 'p';
    if (pin && cls == 'a' && next() % 2 == 0) cls = 'h';
    Request r;
    r.due_s = t;
    r.line = "job s" + std::to_string(segment) + "." + std::to_string(k) +
             " " + job_flags(mix, cls, next());
    if (pin) {
      const bool dense = cls == 'a' || cls == 'h';
      r.line += " --seed " + std::to_string(1 + next() % (dense ? 16 : 4));
    }
    out.push_back(std::move(r));
  }
  return out;
}

// Field readers for writer-formatted JSON (`"key": value`). Report rows
// are read from a view of one row, so a missing key costs one row scan.
std::size_t field_at(std::string_view text, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const auto pos = text.find(needle);
  return pos == std::string_view::npos ? pos : pos + needle.size();
}

std::uint64_t json_u64(std::string_view text, std::string_view key) {
  const auto at = field_at(text, key);
  return at == std::string_view::npos
             ? 0
             : std::strtoull(std::string(text.substr(at, 24)).c_str(),
                             nullptr, 10);
}

double json_real(std::string_view text, std::string_view key) {
  const auto at = field_at(text, key);
  return at == std::string_view::npos
             ? -1
             : std::strtod(std::string(text.substr(at, 32)).c_str(), nullptr);
}

std::string json_str(std::string_view text, std::string_view key) {
  auto at = field_at(text, key);
  if (at == std::string_view::npos || at >= text.size()) return "";
  ++at;  // opening quote
  return std::string(text.substr(at, text.find('"', at) - at));
}

bool json_true(std::string_view text, std::string_view key) {
  const auto at = field_at(text, key);
  return at != std::string_view::npos && text.substr(at, 4) == "true";
}

struct CacheTally {
  std::uint64_t hits = 0, misses = 0;
};

CacheTally cache_tally(std::string_view stats, std::string_view cache) {
  const auto at = field_at(stats, cache);
  if (at == std::string_view::npos) return {};
  const auto obj = stats.substr(at, stats.find('}', at) - at);
  return {json_u64(obj, "hits"), json_u64(obj, "misses")};
}

double hit_ratio(const CacheTally& before, const CacheTally& after) {
  const double h = static_cast<double>(after.hits - before.hits);
  const double m = static_cast<double>(after.misses - before.misses);
  return h + m > 0 ? h / (h + m) : 0.0;
}

// One row of the drained timing report.
struct JobRow {
  std::string id, algo;
  bool ok = false;
  double wall_ms = 0;
  double h_rounds = 0;
};

std::vector<JobRow> parse_report(std::string_view report) {
  std::vector<JobRow> rows;
  const std::string_view needle = "\"id\": ";
  std::size_t pos = report.find(needle);
  while (pos != std::string_view::npos) {
    const std::size_t next = report.find(needle, pos + 1);
    const auto row = report.substr(pos, next - pos);
    JobRow r;
    r.id = json_str(row, "id");
    r.algo = json_str(row, "algo");
    r.ok = json_true(row, "ok") && !json_true(row, "degraded");
    r.wall_ms = json_real(row, "wall_ns") / 1e6;
    r.h_rounds = json_real(row, "h_rounds");
    rows.push_back(std::move(r));
    pos = next;
  }
  return rows;
}

server::ServerOptions server_options(std::uint64_t seed) {
  server::ServerOptions o;
  o.seed = seed;
  o.workers = kWorkers;
  return o;  // default queue depth, cache budget, intra-job threads 1
}

struct Segment {
  std::vector<double> late_ms, admit_us;
  std::int64_t accepted = 0, shed = 0;
  double sojourn_sum_ms = 0;  // summed time in system
  double busy_s = 0;          // first due time to last departure
  double drain_ms = 0;
  std::uint64_t in_system_max = 0;
  bool valid = true;
};

// Polls `stats` every millisecond on its own thread: the completion
// counter is the only departure signal the server gives.
class Monitor {
 public:
  struct Sample {
    std::int64_t t_ns;
    std::uint64_t completed, submitted;
  };

  Monitor(server::Server& srv, Tracer& tracer) : srv_(srv), tracer_(tracer) {
    samples_.push_back(poll());
    thread_ = std::thread([this] {
      auto tick = std::chrono::steady_clock::now();
      while (!stop_.load()) {
        samples_.push_back(poll());
        tick += std::chrono::milliseconds(1);
        std::this_thread::sleep_until(tick);
      }
    });
  }
  ~Monitor() { stop(); }
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // Joins the poller and takes one last sample.
  const std::vector<Sample>& stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      samples_.push_back(poll());
    }
    return samples_;
  }

 private:
  Sample poll() {
    const std::int64_t t0 = now_ns();
    std::string s;
    {
      Scope span(tracer_, "server.stats_json", -1, 1);
      s = srv_.stats_json();
    }
    return {(t0 + now_ns()) / 2, json_u64(s, "completed"),
            json_u64(s, "submitted")};
  }

  server::Server& srv_;
  Tracer& tracer_;
  std::atomic<bool> stop_{false};
  std::vector<Sample> samples_;
  std::thread thread_;  // last: started after the members it uses
};

Segment run_segment(server::Server& srv, const std::vector<Request>& reqs,
                    int* lineno, std::vector<std::string>* accepted,
                    Tracer& tracer, Checks& checks) {
  Segment seg;
  Monitor monitor(srv, tracer);
  const std::int64_t t0 = now_ns() + 2000000;  // first due time >= 2 ms out
  double due_sum_ns = 0;
  std::string resp;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(reqs[i].due_s * 1e9);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const std::int64_t sent = now_ns();
    resp.clear();
    {
      Scope span(tracer, "server.handle_line", static_cast<std::int64_t>(i));
      srv.handle_line(reqs[i].line, ++*lineno, &resp);
    }
    seg.admit_us.push_back(static_cast<double>(now_ns() - sent) / 1e3);
    seg.late_ms.push_back(static_cast<double>(sent - due) / 1e6);
    if (resp.rfind("accepted ", 0) == 0) {
      ++seg.accepted;
      due_sum_ns += static_cast<double>(due);
      accepted->push_back(reqs[i].line);
    } else if (resp.rfind("shed ", 0) == 0) {
      ++seg.shed;
    } else {
      checks.fail("unexpected response to '" + reqs[i].line + "': " + resp);
    }
  }
  const std::int64_t d0 = now_ns();
  {
    Scope span(tracer, "server.drain", -1);
    srv.drain();
  }
  seg.drain_ms = static_cast<double>(now_ns() - d0) / 1e6;
  const auto& samples = monitor.stop();

  // Little's law over a segment that starts and ends empty: the summed
  // time in system is sum(departure) - sum(due time). Departures seen
  // between two polls are placed at the midpoint of the two.
  const std::uint64_t base = samples.front().completed;
  double dep_sum_ns = 0;
  std::int64_t last_departure = t0;
  for (std::size_t k = 1; k < samples.size(); ++k) {
    const auto& a = samples[k - 1];
    const auto& b = samples[k];
    if (b.completed > a.completed) {
      dep_sum_ns += static_cast<double>(b.completed - a.completed) *
                    static_cast<double>(a.t_ns + b.t_ns) / 2.0;
      last_departure = (a.t_ns + b.t_ns) / 2;
    }
    seg.in_system_max = std::max(seg.in_system_max, b.submitted - b.completed);
  }
  checks.attempt();
  checks.expect(samples.back().completed - base ==
                    static_cast<std::uint64_t>(seg.accepted),
                "completed counter does not match accepted jobs");
  if (seg.accepted > 0) {
    seg.sojourn_sum_ms = (dep_sum_ns - due_sum_ns) / 1e6;
  }
  seg.busy_s = static_cast<double>(last_departure - t0) / 1e9;
  seg.valid = quantile(seg.late_ms, 0.99) <= kLateLimitMs;
  return seg;
}

std::unique_ptr<server::Server> start_server(std::uint64_t seed,
                                             const Mix& mix,
                                             std::vector<std::string>* lines,
                                             int* lineno, Checks& checks) {
  auto srv = std::make_unique<server::Server>(server_options(seed));
  // Warm-up: every (recipe, class) four times, so the instance cache is
  // filled and the workers have run each path.
  std::string resp;
  for (int r = 0; r < 4; ++r) {
    for (const char cls : {'f', 'l', 'a'}) {
      const std::size_t recipes =
          cls == 'a' ? mix.planted.size() : mix.gnm.size();
      for (std::uint64_t pick = 0; pick < recipes; ++pick) {
        const std::string line = "job w" + std::to_string(r) + "." + cls +
                                 std::to_string(pick) + " " +
                                 job_flags(mix, cls, pick);
        resp.clear();
        srv->handle_line(line, ++*lineno, &resp);
        checks.attempt();
        checks.expect(resp.rfind("accepted ", 0) == 0,
                      "warm-up job not accepted: " + resp);
        lines->push_back(line);
      }
    }
  }
  srv->drain();
  return srv;
}

}  // namespace

void serve_section(std::uint64_t seed, double seconds, bool e2e,
                   Tracer& tracer, Checks& checks, Metrics* metrics) {
  const Mix mix = make_mix(seed);
  const std::uint64_t server_seed = derive(seed, 3);

  // Set-up, five times (median reported): server start, instance builds
  // through the server's cache, warm-up jobs.
  std::unique_ptr<server::Server> srv;
  std::vector<std::string> lines;  // every accepted line, in order
  std::vector<double> setup_s;
  int lineno = 0;
  for (int rep = 0; rep < 5; ++rep) {
    srv.reset();
    lines.clear();
    lineno = 0;
    const std::int64_t t0 = now_ns();
    srv = start_server(server_seed, mix, &lines, &lineno, checks);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::string stats0 = srv->stats_json();

  const int segments = seconds >= kSegments ? kSegments : 2;
  std::vector<Segment> segs;
  std::int64_t requests = 0, shed = 0;
  for (int s = 0; s < segments; ++s) {
    const auto reqs = make_schedule(mix, seed, s, seconds / segments);
    segs.push_back(run_segment(*srv, reqs, &lineno, &lines, tracer, checks));
    requests += static_cast<std::int64_t>(reqs.size());
    shed += segs.back().shed;
  }
  checks.attempt(requests);
  checks.lost(shed, "shed by the server (queue full)");

  std::int64_t t0 = now_ns();
  std::string report;
  {
    Scope span(tracer, "server.report_json", -1);
    report = srv->report_json(true);
  }
  const double report_ms = static_cast<double>(now_ns() - t0) / 1e6;
  const std::string stats1 = srv->stats_json();

  // Every job ok; figures from the jobs of valid segments only.
  const auto rows = parse_report(report);
  checks.attempt();
  checks.expect(rows.size() == lines.size(),
                "report holds " + std::to_string(rows.size()) +
                    " jobs, expected " + std::to_string(lines.size()));
  std::vector<char> valid_seg;
  for (const auto& sg : segs) valid_seg.push_back(sg.valid ? 1 : 0);
  std::vector<std::vector<double>> wall(segs.size());  // per segment
  std::vector<double> h_rounds;
  std::vector<double> exec[3];  // fast, low, auto; executed jobs only
  std::int64_t failed_jobs = 0;
  for (const auto& r : rows) {
    if (!r.ok) {
      ++failed_jobs;
      checks.lost(1, "served job " + r.id + " failed or degraded");
      continue;
    }
    if (r.id[0] != 's') continue;  // warm-up job
    const auto seg = static_cast<std::size_t>(std::atoi(r.id.c_str() + 1));
    if (seg >= valid_seg.size() || !valid_seg[seg]) continue;
    wall[seg].push_back(r.wall_ms);
    h_rounds.push_back(r.h_rounds);
    // auto and the pinned high jobs share the dense class
    const int cls = r.algo == "fast" ? 0 : r.algo == "low" ? 1 : 2;
    if (r.wall_ms > 0) exec[cls].push_back(r.wall_ms);
  }

  // Same seed, same lines, fresh server: the drained no-timing report
  // must be byte-identical.
  {
    const std::string want = srv->report_json(false);
    srv.reset();
    server::Server again(server_options(server_seed));
    std::string resp;
    int ln = 0;
    for (const auto& line : lines) {
      resp.clear();
      again.handle_line(line, ++ln, &resp);
      if (resp.rfind("shed ", 0) == 0) {
        again.drain();
        resp.clear();
        again.handle_line(line, ln, &resp);
      }
    }
    checks.attempt();
    checks.expect(again.report_json(false) == want,
                  "serve replay: no-timing report not byte-identical");
  }

  std::vector<double> late, admit, drain;
  std::vector<double> p50, p90, sojourn, rate;  // per valid segment
  std::vector<double> pooled;  // every job of the valid segments
  std::int64_t invalid = 0;
  std::uint64_t in_system_max = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const Segment& sg = segs[i];
    late.insert(late.end(), sg.late_ms.begin(), sg.late_ms.end());
    admit.insert(admit.end(), sg.admit_us.begin(), sg.admit_us.end());
    drain.push_back(sg.drain_ms);
    in_system_max = std::max(in_system_max, sg.in_system_max);
    if (!sg.valid || sg.accepted == 0) {
      ++invalid;
      continue;
    }
    p50.push_back(quantile(wall[i], 0.50));
    p90.push_back(quantile(wall[i], 0.90));
    pooled.insert(pooled.end(), wall[i].begin(), wall[i].end());
    sojourn.push_back(sg.sojourn_sum_ms / static_cast<double>(sg.accepted));
    rate.push_back(static_cast<double>(sg.accepted) / sg.busy_s);
  }
  checks.attempt();
  checks.expect(invalid < segments,
                "every serve segment ran late (generator p99 lateness "
                "above " + std::to_string(kLateLimitMs) + " ms)");

  if (e2e) {
    const double attempted = static_cast<double>(requests);
    metrics->set("setup_s", median(setup_s), "s");
    metrics->set("solves_per_s", median(rate), "1/s");
    metrics->set("solve_p50_ms", median(p50), "ms");
    metrics->set("solve_p90_ms", median(p90), "ms");
    // A segment holds ~600 jobs, too few for ten beyond its p99: the p99
    // pools the valid segments instead.
    metrics->set("solve_p99_ms", quantile(pooled, 0.99), "ms");
    metrics->set("sojourn_mean_ms", median(sojourn), "ms");
    metrics->set("h_rounds", mean(h_rounds), "rounds");
    metrics->set("ok_frac",
                 (attempted - static_cast<double>(shed + failed_jobs)) /
                     attempted,
                 "ratio");
    metrics->set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  metrics->set("server.admit_us.p50", quantile(admit, 0.50), "us");
  metrics->set("server.admit_us.p99", quantile(admit, 0.99), "us");
  const char* names[3] = {"fast", "low", "auto"};
  for (int c = 0; c < 3; ++c) {
    const std::string p = std::string("server.exec_ms.") + names[c];
    metrics->set(p + ".p50", quantile(exec[c], 0.50), "ms");
    metrics->set(p + ".p99", quantile(exec[c], 0.99), "ms");
  }
  metrics->set("server.shed", static_cast<double>(shed), "count");
  metrics->set("server.steals",
               static_cast<double>(json_u64(stats1, "steals") -
                                   json_u64(stats0, "steals")),
               "count");
  for (const char* cache : {"instance_cache", "dense_cache", "result_cache"}) {
    metrics->set(std::string("server.") + cache + ".hit_ratio",
                 hit_ratio(cache_tally(stats0, cache),
                           cache_tally(stats1, cache)),
                 "ratio");
  }
  metrics->set("server.in_system_max", static_cast<double>(in_system_max),
               "count");
  metrics->set("server.drain_ms", median(drain), "ms");
  metrics->set("server.report_ms", report_ms, "ms");
  metrics->set("gen.late_p99_ms", quantile(late, 0.99), "ms");
  metrics->set("gen.invalid_segments", static_cast<double>(invalid), "count");
}

void run_serve_mix(const Args& args, Tracer& tracer, Checks& checks,
                   Metrics* metrics) {
  if (args.trace) {
    // The dense layers behind the mix's auto jobs, on two of their
    // instances, at the jobs' one intra-job thread.
    const Mix mix = make_mix(args.seed);
    std::vector<std::string> recipes = mix.gnm;
    recipes.insert(recipes.end(), mix.planted.begin(), mix.planted.end());
    std::vector<svc::Instance> instances;
    double build_ms = 0;
    if (!build_instances(recipes, &instances, checks, &build_ms)) return;
    metrics->set("svc.build_instance_ms", build_ms, "ms");
    const DenseOpts opts = {/*oracle=*/true, /*threads=*/1, /*eps=*/0.2};
    const std::size_t first = mix.gnm.size();
    dense_section({&instances[first].cg, &instances[first + 1].cg}, opts,
                  args.seed, 3, args.seconds / 4, tracer, checks, metrics);
  }
  serve_section(args.seed, args.seconds, !args.trace, tracer, checks,
                metrics);
}

}  // namespace perfbench
