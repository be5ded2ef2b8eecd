#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::uint64_t hash_colors(const std::vector<int>& colors) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const int c : colors) {
    h ^= static_cast<std::uint32_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) s += ", ";
    s += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         e.unit + "\"}";
  }
  return s + "}";
}

void Checks::attempt(std::int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Checks::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Checks::lost(std::int64_t n, const std::string& what) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  lost_ += n;
  std::fprintf(stderr, "perfbench: %lld operation(s) lost: %s\n",
               static_cast<long long>(n), what.c_str());
}

std::int64_t Checks::lost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lost_;
}

std::int64_t Checks::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::int64_t Checks::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

int Tracer::open(const char* name, std::int64_t solve, int tid) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  if (open_.size() <= static_cast<std::size_t>(tid)) {
    open_.resize(static_cast<std::size_t>(tid) + 1);
  }
  auto& stack = open_[static_cast<std::size_t>(tid)];
  Span s;
  s.name = name;
  s.start_ns = t;
  s.parent = stack.empty() ? -1 : stack.back();
  s.tid = tid;
  s.solve = solve;
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack.push_back(idx);
  return idx;
}

void Tracer::close(int span) {
  if (span < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = t;
  auto& stack = open_[static_cast<std::size_t>(
      spans_[static_cast<std::size_t>(span)].tid)];
  if (!stack.empty() && stack.back() == span) stack.pop_back();
}

std::vector<double> Tracer::self_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    const int p = spans_[i].parent;
    if (p >= 0) {
      self[static_cast<std::size_t>(p)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  for (double& x : self) x /= 1e6;
  return self;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[192];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const double start_us = static_cast<double>(s.start_ns - origin_ns_) / 1e3;
    const double end_us = static_cast<double>(s.end_ns - origin_ns_) / 1e3;
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"end\": %.3f, ",
                  s.tid, start_us, end_us - start_us, end_us);
    f << (i > 0 ? ",\n" : "") << "{\"name\": \"" << s.name << "\", " << buf
      << "\"id\": " << i << ", \"parent\": " << s.parent
      << ", \"solve\": " << s.solve << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
