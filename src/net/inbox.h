// Per-endpoint inbox: the bounded MPSC ring or the mutexed BlockingQueue,
// selected per endpoint at construction.
//
// The ring is the data-plane backend — lock-free producers (fabric shard
// schedulers, the socket reader) and a serialized consumer, with bounded
// capacity acting as backpressure instead of unbounded deque growth.  The
// queue serves control-plane endpoints: the launcher's JOIN/GO/DONE channel
// must never exert backpressure on workers mid-barrier.
//
// Both backends share one contract (tests run the fabric invariant against
// each): push returns true iff accepted; poison discards queued packets,
// wakes every waiter, and fails future pushes; revive re-arms an empty
// inbox.  All waits are WaitSet-based, so consumers may be OS threads or
// cooperative fibers.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "util/queue.h"
#include "util/ring.h"

namespace windar::net {

enum class InboxKind { kRing, kQueue };

inline const char* to_string(InboxKind k) {
  return k == InboxKind::kRing ? "ring" : "queue";
}

struct InboxConfig {
  InboxKind kind = InboxKind::kRing;
  std::size_t capacity = 1024;  // ring slots; ignored by the queue backend
};

/// The data-plane inbox configuration for a transport hosting
/// `endpoints_hint` endpoints: a ring whose capacity scales down with the
/// endpoint count, so a 4096-rank job does not pre-reserve gigabytes of
/// slots.
inline InboxConfig resolve_inbox_config(int endpoints_hint) {
  InboxConfig cfg;
  if (endpoints_hint > 1024) {
    cfg.capacity = 64;
  } else if (endpoints_hint > 64) {
    cfg.capacity = 256;
  }
  return cfg;
}

/// Facade over the two inbox backends with the exact call surface the
/// stack's consumers use.  One branch per call; the backends themselves do
/// the real work.
class Inbox {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Inbox(const InboxConfig& cfg) {
    if (cfg.kind == InboxKind::kRing) {
      ring_ = std::make_unique<util::MpscRing<Packet>>(cfg.capacity);
    } else {
      queue_ = std::make_unique<util::BlockingQueue<Packet>>();
    }
  }

  [[nodiscard]] bool push(Packet p) {
    return ring_ ? ring_->push(std::move(p)) : queue_->push(std::move(p));
  }

  /// Outcome of a non-blocking offer().  kFull leaves the packet with the
  /// caller (only the bounded ring can be full; the queue backend never is).
  enum class PushOutcome { kAccepted, kFull, kDead };

  /// Bounded-patience push attempt — the fabric's zero-latency cut-through
  /// uses this so a sender thread never blocks indefinitely on a peer's full
  /// ring (which could deadlock two mutually-bursting ranks): a brief park
  /// usually outlives the full-ring episode, and a kFull result after the
  /// patience expires re-routes the packet through the shard scheduler.
  [[nodiscard]] PushOutcome offer(Packet& p, Clock::duration patience) {
    if (ring_) {
      switch (ring_->offer_for(p, patience)) {
        case util::MpscRing<Packet>::Offer::kAccepted:
          return PushOutcome::kAccepted;
        case util::MpscRing<Packet>::Offer::kFull:
          return PushOutcome::kFull;
        case util::MpscRing<Packet>::Offer::kDead:
          return PushOutcome::kDead;
      }
    }
    return queue_->push(std::move(p)) ? PushOutcome::kAccepted
                                      : PushOutcome::kDead;
  }

  [[nodiscard]] std::size_t push_batch(std::vector<Packet> batch) {
    return ring_ ? ring_->push_batch(std::move(batch))
                 : queue_->push_batch(std::move(batch));
  }

  std::optional<Packet> pop() { return ring_ ? ring_->pop() : queue_->pop(); }

  std::optional<Packet> pop_until(Clock::time_point deadline) {
    return ring_ ? ring_->pop_until(deadline) : queue_->pop_until(deadline);
  }

  std::optional<Packet> pop_for(Clock::duration d) {
    return ring_ ? ring_->pop_for(d) : queue_->pop_for(d);
  }

  std::optional<Packet> try_pop() {
    return ring_ ? ring_->try_pop() : queue_->try_pop();
  }

  /// Drains up to `max` ready packets into `out` (appended, FIFO) without
  /// blocking; returns how many were taken.
  std::size_t try_pop_batch(std::vector<Packet>* out, std::size_t max) {
    if (ring_) return ring_->try_pop_batch(out, max);
    std::size_t taken = 0;
    while (taken < max) {
      auto p = queue_->try_pop();
      if (!p) break;
      out->push_back(std::move(*p));
      ++taken;
    }
    return taken;
  }

  void poison() { ring_ ? ring_->poison() : queue_->poison(); }
  void revive() { ring_ ? ring_->revive() : queue_->revive(); }
  bool poisoned() const {
    return ring_ ? ring_->poisoned() : queue_->poisoned();
  }

  std::size_t size() const { return ring_ ? ring_->size() : queue_->size(); }
  bool empty() const { return ring_ ? ring_->empty() : queue_->empty(); }

 private:
  // Exactly one is non-null for the Inbox's lifetime.
  std::unique_ptr<util::MpscRing<Packet>> ring_;
  std::unique_ptr<util::BlockingQueue<Packet>> queue_;
};

}  // namespace windar::net
