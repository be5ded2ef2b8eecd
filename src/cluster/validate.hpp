// Exact validators for colorings and decompositions.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace ccg::exec {
class ParallelRound;
}  // namespace ccg::exec

namespace ccg::cluster {

inline constexpr int kUncolored = -1;  // the paper's ⊥

// A (partial) coloring is proper if no H-edge is monochromatic among
// colored endpoints.
bool is_proper_partial(const graph::Graph& h, const std::vector<int>& color);

// Total + proper + every color in [0, num_colors). `par` shards the rows
// over a round engine's workers (nullptr runs inline); the verdict does
// not depend on it.
bool is_proper_total(const graph::Graph& h, const std::vector<int>& color,
                     int num_colors, exec::ParallelRound* par = nullptr);

// Throwing versions for tests and pipeline post-conditions. The total
// check names the lowest failing vertex, so its message does not depend
// on `par` either.
void check_proper_partial(const graph::Graph& h,
                          const std::vector<int>& color);
void check_proper_total(const graph::Graph& h, const std::vector<int>& color,
                        int num_colors, exec::ParallelRound* par = nullptr);

int count_uncolored(const std::vector<int>& color);

}  // namespace ccg::cluster
