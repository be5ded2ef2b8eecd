// The counting global operator new of common/alloc_count.hpp, installed
// for the whole benchmark binary (this is its one including TU), so phase
// calls can be charged the heap allocations they make.
#include "common/alloc_count.hpp"
#include "dense.hpp"

namespace perfbench {

long long allocs() { return ccg::alloc_count(); }

}  // namespace perfbench
