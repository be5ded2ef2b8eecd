// Shared pieces of the perfbench program: clocks, order statistics, the
// metric table printed as the result line, the check ledger, and the
// in-memory span recorder written out as Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---- clocks ----
std::int64_t now_ns();      // steady clock
std::int64_t cpu_ns();      // process CPU time, all threads
double peak_rss_mb();       // high-water resident set of this process

// ---- order statistics (linear interpolation between order stats) ----
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);

// FNV-1a over a coloring: the bit-identity fingerprint of a solve.
std::uint64_t hash_colors(const std::vector<int>& colors);

// ---- result line ----
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  // {"name": {"value": v, "unit": u}, ...} in insertion order.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Every output check lands here. `attempted` counts checked outputs and
// operations; `failed` counts checks that did not hold (described on
// stderr; any makes the run exit nonzero). Operations that produced no
// output — a structured solver error, a job the server shed — are
// counted apart by `lost`: they count against the run without making
// its outputs wrong.
class Checks {
 public:
  void attempt(std::int64_t n = 1);
  void fail(const std::string& what);
  void lost(std::int64_t n, const std::string& what);
  bool expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
    return ok;
  }
  std::int64_t attempted() const;
  std::int64_t failed() const;  // failed checks only
  std::int64_t lost() const;

 private:
  mutable std::mutex mu_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t lost_ = 0;
};

// ---- spans ----
//
// A span brackets one call into a library entry point: name, start, end,
// the span that was open on the same thread when it began (its parent),
// and the solve it belongs to. Spans stay in memory until write(). A
// disabled tracer records nothing and costs one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    int tid = 0;
    std::int64_t solve = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Opens a span on logical thread `tid`; returns its index (-1 when
  // disabled). close() must be called on the same tid, innermost first.
  // `name` is a literal: nothing is built unless the tracer is enabled.
  int open(const char* name, std::int64_t solve, int tid = 0);
  void close(int span);

  // Duration minus the part covered by direct children.
  std::vector<double> self_ms() const;
  const std::vector<Span>& spans() const { return spans_; }
  // Chrome trace-event JSON ("X" events, microseconds).
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> open_;  // per-tid stack of open spans
  std::int64_t origin_ns_ = now_ns();
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int64_t solve, int tid = 0)
      : t_(t), span_(t.open(name, solve, tid)) {}
  ~Scope() { t_.close(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int span_;
};

}  // namespace perfbench
