#include "cluster/validate.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/assert.hpp"
#include "exec/parallel_round.hpp"

namespace ccg::cluster {

bool is_proper_partial(const graph::Graph& h, const std::vector<int>& color) {
  CCG_CHECK(static_cast<int>(color.size()) == h.n());
  for (int v = 0; v < h.n(); ++v) {
    const int cv = color[static_cast<std::size_t>(v)];
    if (cv == kUncolored) continue;
    for (const int u : h.neighbors(v)) {
      if (u > v && color[static_cast<std::size_t>(u)] == cv) return false;
    }
  }
  return true;
}

namespace {

// Lowest vertex whose color lies outside [0, num_colors) (uncolored
// included), and lowest vertex with a same-colored higher neighbor; n
// when there is none. Per-shard minima meet in an atomic min, so the
// result is the same for every worker count.
struct TotalScan {
  int bad_color;
  int bad_edge;
};

TotalScan scan_total(const graph::Graph& h, const std::vector<int>& color,
                     int num_colors, exec::ParallelRound* par) {
  CCG_CHECK(static_cast<int>(color.size()) == h.n());
  const int n = h.n();
  std::atomic<int> bad_color{n}, bad_edge{n};
  const auto lower_to = [](std::atomic<int>& to, int v) {
    int cur = to.load(std::memory_order_relaxed);
    while (v < cur && !to.compare_exchange_weak(cur, v)) {
    }
  };
  exec::shards_or_inline(par, n, [&](int, std::int64_t b, std::int64_t e) {
    int first_edge = n;
    for (auto v = static_cast<int>(b); v < e; ++v) {
      const int cv = color[static_cast<std::size_t>(v)];
      if (cv < 0 || cv >= num_colors) {
        lower_to(bad_color, v);
        break;
      }
      if (first_edge < n) continue;
      for (const int u : h.neighbors(v)) {
        if (u > v && color[static_cast<std::size_t>(u)] == cv) {
          first_edge = v;
          break;
        }
      }
    }
    lower_to(bad_edge, first_edge);
  });
  return {bad_color.load(), bad_edge.load()};
}

}  // namespace

bool is_proper_total(const graph::Graph& h, const std::vector<int>& color,
                     int num_colors, exec::ParallelRound* par) {
  const auto s = scan_total(h, color, num_colors, par);
  return s.bad_color == h.n() && s.bad_edge == h.n();
}

void check_proper_partial(const graph::Graph& h,
                          const std::vector<int>& color) {
  CCG_CHECK_MSG(is_proper_partial(h, color), "coloring is not proper");
}

void check_proper_total(const graph::Graph& h, const std::vector<int>& color,
                        int num_colors, exec::ParallelRound* par) {
  const auto s = scan_total(h, color, num_colors, par);
  if (s.bad_color < h.n()) {
    const int v = s.bad_color;
    CCG_CHECK_MSG(color[static_cast<std::size_t>(v)] != kUncolored,
                  "vertex " << v << " left uncolored");
    CCG_CHECK_MSG(color[static_cast<std::size_t>(v)] >= 0 &&
                      color[static_cast<std::size_t>(v)] < num_colors,
                  "vertex " << v << " color out of range");
  }
  CCG_CHECK_MSG(s.bad_edge == h.n(), "coloring is not proper");
}

int count_uncolored(const std::vector<int>& color) {
  return static_cast<int>(
      std::count(color.begin(), color.end(), kUncolored));
}

}  // namespace ccg::cluster
