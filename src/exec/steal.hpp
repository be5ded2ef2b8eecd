// Per-worker sharded run queues with steal-on-empty.
//
// The serving scheduler's run queues: jobs arrive while workers run, so
// there is no fixed index range to hand out. Every worker owns a shard;
// producers push into the shard a placement policy picks (the scheduler
// hashes the instance key, so jobs sharing a prepared instance land on
// the same worker and its Solver arena stays warm); an idle worker first
// drains its own shard FIFO, then steals from the *back* of a victim's
// shard — the job least likely to share cache state with the victim's
// current run.
//
// Shards are fixed-capacity rings sized once at construction: pushes and
// pops move head/count indices under a per-shard mutex and never touch
// the heap, so the scheduler's enqueue/dequeue path stays 0 allocs/job
// in steady state (the admission bound guarantees total occupancy <=
// capacity, hence per-shard occupancy <= capacity too). Blocking and
// wake-up are the owner's concern — this type only moves items.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_safety.hpp"

namespace ccg::exec {

template <class T>
class StealDeques {
 public:
  // `capacity` bounds the items simultaneously queued across all shards
  // (each shard ring is sized to the full capacity, so any placement
  // skew — even every job hashing to one worker — still fits).
  StealDeques(int workers, int capacity)
      : shards_(static_cast<std::size_t>(workers > 0 ? workers : 1)) {
    CCG_CHECK(capacity > 0);
    for (auto& s : shards_) {
      s.ring.resize(static_cast<std::size_t>(capacity));
    }
  }

  int workers() const { return static_cast<int>(shards_.size()); }

  // Enqueue at the back of `shard`'s ring. Returns false when that ring
  // is full — callers enforcing admission ahead of time never see it.
  bool push(int shard, T item) {
    auto& s = shards_[static_cast<std::size_t>(shard)];
    MutexLock lock(s.mu);
    if (s.count == s.ring.size()) return false;
    s.ring[(s.head + s.count) % s.ring.size()] = std::move(item);
    ++s.count;
    return true;
  }

  // Owner pop: oldest item of the worker's own shard (FIFO).
  bool pop_local(int worker, T* out) {
    auto& s = shards_[static_cast<std::size_t>(worker)];
    MutexLock lock(s.mu);
    if (s.count == 0) return false;
    *out = std::move(s.ring[s.head]);
    s.head = (s.head + 1) % s.ring.size();
    --s.count;
    return true;
  }

  // Steal: scan the other shards starting after the thief and take the
  // *newest* item of the first non-empty one. Returns false only when
  // every other shard was (momentarily) empty.
  bool steal(int thief, T* out) {
    const int w = workers();
    for (int d = 1; d < w; ++d) {
      auto& s = shards_[static_cast<std::size_t>((thief + d) % w)];
      MutexLock lock(s.mu);
      if (s.count == 0) continue;
      --s.count;
      *out = std::move(s.ring[(s.head + s.count) % s.ring.size()]);
      return true;
    }
    return false;
  }

  // Approximate total occupancy (each shard read under its own lock, not
  // a global snapshot) — monitoring only.
  int size() const {
    int total = 0;
    for (auto& s : shards_) {
      MutexLock lock(s.mu);
      total += static_cast<int>(s.count);
    }
    return total;
  }

 private:
  struct Shard {
    mutable Mutex mu;
    std::vector<T> ring CCG_GUARDED_BY(mu);
    std::size_t head CCG_GUARDED_BY(mu) = 0;
    std::size_t count CCG_GUARDED_BY(mu) = 0;
  };

  std::vector<Shard> shards_;
};

}  // namespace ccg::exec
