// Cooperative cancellation for the serving stack.
//
// A CancelToken carries two independent stop signals: an explicit cancel
// flag (Solver::request_cancel, a future server's admission control) and
// a wall-clock deadline (ccg::Options::deadline_ms). Library code never
// polls it in hot inner loops; it is checked at the natural synchronized
// points of the round model — phase boundaries and ParallelRound /
// ThreadPool::for_shards fork entries — which bounds the reaction
// latency by one phase/round without any per-vertex cost.
//
// Expiry surfaces as a CancelledError throw at the check point; the
// ccg::Solver facade catches it and converts it to the structured
// ErrorCode::kCancelled / kDeadlineExceeded (the facade itself never
// throws). A token with neither signal set costs a nullptr test at every
// check site and nothing else — the deterministic serving contract is
// unaffected unless a deadline is actually armed (deadline outcomes are
// inherently wall-clock-dependent and documented as such).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace ccg {

// Thrown by CancelToken::throw_if_expired at a cooperative check point.
// `deadline_exceeded` distinguishes a missed deadline from an explicit
// cancellation request.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(bool deadline)
      : std::runtime_error(deadline ? "deadline exceeded" : "cancelled"),
        deadline_exceeded(deadline) {}

  bool deadline_exceeded = false;
};

class CancelToken {
 public:
  using clock_type = std::chrono::steady_clock;

  // Rearm for a fresh run: clears the cancel flag and the deadline.
  void reset() {
    cancelled_.store(false, std::memory_order_relaxed);
    deadline_ns_.store(0, std::memory_order_relaxed);
  }

  // Request cancellation. Safe to call from any thread, including while
  // a solve is in flight on another one.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  // Arm a deadline `ms` milliseconds from now (ms <= 0 clears it).
  void set_deadline_ms(std::int64_t ms) {
    if (ms <= 0) {
      deadline_ns_.store(0, std::memory_order_relaxed);
      return;
    }
    const auto now = clock_type::now().time_since_epoch();
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() +
            ms * 1'000'000,
        std::memory_order_relaxed);
  }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool deadline_exceeded() const {
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == 0) return false;
    const auto now = clock_type::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now)
               .count() >= d;
  }

  // True once either signal fires. The explicit flag wins ties so a
  // caller-requested cancel is never misreported as a missed deadline.
  bool expired() const { return cancel_requested() || deadline_exceeded(); }

  // The cooperative check point: throws CancelledError once expired.
  void throw_if_expired() const {
    if (cancel_requested()) throw CancelledError(/*deadline=*/false);
    if (deadline_exceeded()) throw CancelledError(/*deadline=*/true);
  }

 private:
  std::atomic<bool> cancelled_{false};
  // Deadline as steady-clock nanoseconds since epoch; 0 = unarmed.
  std::atomic<std::int64_t> deadline_ns_{0};
};

// Nullptr-tolerant check used by call sites holding an optional token.
inline void check_cancel(const CancelToken* token) {
  if (token) token->throw_if_expired();
}

}  // namespace ccg
