// Bounded multi-producer/single-consumer ring — the endpoint-inbox fast
// path.
//
// Producers (fabric shard schedulers, the socket reader, loopback sends) are
// lock-free: a CAS claims a slot, per-slot sequence numbers publish the
// element (Vyukov's bounded-queue discipline), and no producer ever takes a
// mutex on the happy path.  The consumer side (one rank thread or fiber per
// endpoint, by construction) is serialized behind a small consumer mutex so
// pop / batch-pop / poison / revive can't interleave — that mutex is
// uncontended in steady state and is what makes poison's drain race-free.
//
// Blocking follows the repo-wide wait contract (util/wait.h): waits go
// through util::WaitSet, so a consumer may be an OS thread or a cooperative
// fiber, and every wait is bounded.  Consumer wakeups are exact: the
// consumer arms a flag before every predicate check, and a producer whose
// push lands on an armed ring takes the arm and notifies, serialised with
// the check through the wait mutex, so no push is ever missed.  The 100 ms
// consumer slice is a safety net only; slice expiries that find the ring
// non-empty are counted (missed_wakes(), 0 when the protocol holds).  A push
// to an unarmed ring is a CAS + store + one atomic load.  Producers blocked
// on a full ring keep a 1 ms tick.
//
// Capacity is a backpressure bound, not a drop policy: push() to a full ring
// blocks until the consumer frees a slot or the ring is poisoned.  Poison
// semantics mirror BlockingQueue exactly — queued items are discarded (a
// crashed rank's volatile state), all blocked producers and consumers wake,
// subsequent pushes return false, and revive() re-arms an empty ring for the
// next incarnation.  The accounting contract the fabric's drop invariant
// rides on is the same: push() returns true iff the element was accepted.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "util/wait.h"

namespace windar::util {

template <typename T>
class MpscRing {
 public:
  using Clock = std::chrono::steady_clock;

  /// Capacity is rounded up to a power of two (minimum 2).
  explicit MpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  ~MpscRing() { drain(); }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Accepts `item`, blocking while the ring is full (bounded backpressure).
  /// Returns false — dropping the item — only when the ring is poisoned.
  [[nodiscard]] bool push(T item) {
    for (;;) {
      if (poisoned_.load(std::memory_order_acquire)) return false;
      if (try_push(item)) {
        wake_consumer();
        return true;
      }
      // Full: wait a bounded slice for the consumer to free a slot.  The
      // tick bound (missed-wakeup contract, util/wait.h) also caps how long
      // a poison() that raced our waiter registration can strand us.
      std::unique_lock lock(wmu_);
      prod_waiting_.fetch_add(1, std::memory_order_release);
      prod_cv_.wait_until(lock, Clock::now() + kTick, [&] {
        return poisoned_.load(std::memory_order_acquire) || !full_estimate();
      });
      prod_waiting_.fetch_sub(1, std::memory_order_release);
    }
  }

  /// Outcome of a non-blocking offer(): accepted, ring full (item left
  /// intact in the caller's hands), or ring poisoned (item dropped).
  enum class Offer { kAccepted, kFull, kDead };

  /// Non-blocking push attempt.  On kFull the item is NOT consumed — the
  /// caller still owns it and typically re-routes it (the fabric falls back
  /// to the shard scheduler, which provides the buffering a full ring
  /// refuses).  On kDead the item is dropped, same as push() returning
  /// false.
  [[nodiscard]] Offer offer(T& item) {
    if (poisoned_.load(std::memory_order_acquire)) return Offer::kDead;
    if (try_push(item)) {
      wake_consumer();
      return Offer::kAccepted;
    }
    return Offer::kFull;
  }

  /// offer() with bounded patience: on a full ring, waits up to `patience`
  /// for the consumer to free a slot before giving up with kFull (item still
  /// intact).  This is the cut-through sender's primitive — a brief park
  /// usually outlives the full-ring episode (the consumer drains in batches),
  /// while the bound keeps a chain of mutually-bursting ranks deadlock-free:
  /// worst case each hop stalls `patience`, then re-routes via the shard.
  [[nodiscard]] Offer offer_for(T& item, Clock::duration patience) {
    if (poisoned_.load(std::memory_order_acquire)) return Offer::kDead;
    if (try_push(item)) {
      wake_consumer();
      return Offer::kAccepted;
    }
    const auto deadline = Clock::now() + patience;
    for (;;) {
      {
        std::unique_lock lock(wmu_);
        prod_waiting_.fetch_add(1, std::memory_order_release);
        prod_cv_.wait_until(lock, std::min(deadline, Clock::now() + kTick),
                            [&] {
                              return poisoned_.load(
                                         std::memory_order_acquire) ||
                                     !full_estimate();
                            });
        prod_waiting_.fetch_sub(1, std::memory_order_release);
      }
      if (poisoned_.load(std::memory_order_acquire)) return Offer::kDead;
      if (try_push(item)) {
        wake_consumer();
        return Offer::kAccepted;
      }
      if (Clock::now() >= deadline) return Offer::kFull;
    }
  }

  /// Pushes items in order, blocking on a full ring like push().  Stops at
  /// the first poisoned push; returns how many items were accepted, so drop
  /// accounting stays exact when a kill lands mid-batch (the remainder books
  /// as dropped, exactly like BlockingQueue's all-or-nothing batch would —
  /// the accepted prefix was genuinely delivered before the crash).
  [[nodiscard]] std::size_t push_batch(std::vector<T> batch) {
    std::size_t accepted = 0;
    for (T& item : batch) {
      if (!push(std::move(item))) break;
      ++accepted;
    }
    return accepted;
  }

  /// Blocks until an item is available or the ring is poisoned; nullopt only
  /// when poisoned.
  std::optional<T> pop() {
    return pop_until(Clock::time_point::max());
  }

  /// Blocks until an item, the deadline, or poison.  Returns nullopt on
  /// timeout or poison; use poisoned() to distinguish.
  std::optional<T> pop_until(Clock::time_point deadline) {
    for (;;) {
      {
        std::scoped_lock lock(cmu_);
        if (poisoned_.load(std::memory_order_acquire)) return std::nullopt;
        if (auto v = take_locked()) return v;
      }
      const auto now = Clock::now();
      if (now >= deadline) {
        // Deadline passed: one final take under the consumer lock, so a push
        // that raced the timeout is never misreported as empty.
        std::scoped_lock lock(cmu_);
        if (poisoned_.load(std::memory_order_acquire)) return std::nullopt;
        return take_locked();
      }
      const auto slice = std::min(deadline, now + kSafetySlice);
      std::unique_lock lock(wmu_);
      const bool ready = cons_cv_.wait_until(lock, slice, [&] {
        // Re-arm before every check, not once per wait: a wakeup that finds
        // the ring still empty (a late notify, a stray unpark) re-parks the
        // consumer, and it must park armed or the next push skips it.
        cons_armed_.store(true, std::memory_order_seq_cst);
        return poisoned_.load(std::memory_order_seq_cst) ||
               tail_.load(std::memory_order_seq_cst) !=
                   head_pub_.load(std::memory_order_acquire);
      });
      if (ready && slice < deadline && Clock::now() >= slice) {
        missed_wakes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  std::optional<T> pop_for(Clock::duration d) {
    return pop_until(Clock::now() + d);
  }

  std::optional<T> try_pop() {
    std::scoped_lock lock(cmu_);
    if (poisoned_.load(std::memory_order_acquire)) return std::nullopt;
    return take_locked();
  }

  /// Drains up to `max` ready items into `out` (appended) in FIFO order
  /// under one consumer-lock acquisition.  Returns the number taken.
  std::size_t try_pop_batch(std::vector<T>* out, std::size_t max) {
    std::scoped_lock lock(cmu_);
    if (poisoned_.load(std::memory_order_acquire)) return 0;
    std::size_t taken = 0;
    while (taken < max) {
      auto v = take_locked();
      if (!v) break;
      out->push_back(std::move(*v));
      ++taken;
    }
    return taken;
  }

  /// Marks the ring dead: queued items are discarded, all blocked producers
  /// and consumers wake, future pushes return false and pops nullopt.
  void poison() {
    poisoned_.store(true, std::memory_order_seq_cst);
    drain();
    // Serialise with the waiters' predicate checks (made under wmu_): each
    // one either saw the poison or is parked and gets the notify.
    { std::scoped_lock lock(wmu_); }
    prod_cv_.notify_all();
    cons_cv_.notify_all();
  }

  /// Re-arms a poisoned ring for an incarnation.  Items a racing producer
  /// managed to land after poison's drain are discarded here — a revived
  /// endpoint starts with an empty inbox, like BlockingQueue::revive after
  /// poison's clear.  On a ring that was never poisoned this is a no-op:
  /// callers revive defensively on every incarnation (including the first),
  /// and packets that legitimately arrived before the consumer came up must
  /// survive.
  void revive() {
    if (!poisoned_.load(std::memory_order_acquire)) return;
    drain();
    poisoned_.store(false, std::memory_order_release);
  }

  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// Approximate (producers race it); exact when quiescent.
  std::size_t size() const {
    const std::size_t head = head_pub_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  bool empty() const { return size() == 0; }

  /// Consumer slices that expired with an item already queued: a wakeup the
  /// exact-wake protocol lost.  Stays 0 unless that protocol is broken.
  std::uint64_t missed_wakes() const {
    return missed_wakes_.load(std::memory_order_relaxed);
  }

 private:
  /// Producers blocked on a full ring re-check this often.
  static constexpr std::chrono::milliseconds kTick{1};
  /// A blocked consumer re-checks this often although every push wakes it.
  static constexpr std::chrono::milliseconds kSafetySlice{100};

  struct Slot {
    std::atomic<std::size_t> seq;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  T* slot_item(Slot& s) { return std::launder(reinterpret_cast<T*>(s.storage)); }

  /// Lock-free producer step: claim a slot via CAS on tail, construct,
  /// publish via the slot sequence.  False means the ring is full.
  bool try_push(T& item) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const std::size_t seq = s.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t diff =
          static_cast<std::ptrdiff_t>(seq) - static_cast<std::ptrdiff_t>(pos);
      if (diff == 0) {
        // seq_cst: the claim pairs with the consumer's arm (wake_consumer).
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
          new (s.storage) T(std::move(item));
          s.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded pos; retry with it.
      } else if (diff < 0) {
        return false;  // full: slot still holds an unconsumed element
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer step; caller holds cmu_.  nullopt when empty (or the next
  /// slot's producer hasn't published yet — it will within its store).
  std::optional<T> take_locked() {
    Slot& s = slots_[head_ & mask_];
    const std::size_t seq = s.seq.load(std::memory_order_acquire);
    if (seq != head_ + 1) return std::nullopt;
    T* item = slot_item(s);
    std::optional<T> out(std::move(*item));
    item->~T();
    s.seq.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    head_pub_.store(head_, std::memory_order_release);
    wake_producers();
    return out;
  }

  /// Discards every queued item (poison/revive/destruction).  Spins briefly
  /// on a slot whose producer has claimed it but not yet published — the gap
  /// is one move-construction wide.
  void drain() {
    std::scoped_lock lock(cmu_);
    while (head_ != tail_.load(std::memory_order_acquire)) {
      Slot& s = slots_[head_ & mask_];
      while (s.seq.load(std::memory_order_acquire) != head_ + 1) {
        coop_yield();
      }
      slot_item(s)->~T();
      s.seq.store(head_ + mask_ + 1, std::memory_order_release);
      ++head_;
    }
    head_pub_.store(head_, std::memory_order_release);
    // Unconditional (no hysteresis/latch): a drain frees the whole ring at
    // once — poison/revive/destruction must wake every blocked producer now.
    if (prod_waiting_.load(std::memory_order_acquire) > 0) {
      prod_cv_.notify_all();
    }
  }

  // Estimate for the producers' wait predicate: racy by design, corrected by
  // the tick bound and the retry in the push loops.
  bool full_estimate() const {
    return tail_.load(std::memory_order_acquire) -
               head_pub_.load(std::memory_order_acquire) >
           mask_;
  }

  /// Called after every accepted push.  The tail claim in try_push and the
  /// consumer's arm store and tail load are all seq_cst (Dekker): either
  /// the consumer's check saw our tail, or we see its arm here.  Taking the
  /// arm elects one notifier per armed wait, and locking wmu_ before the
  /// notify orders it after the consumer has parked (registered in
  /// cons_cv_) or has left its check.  A seq_cst CAS costs a relaxed one on
  /// x86, so the unarmed fast path adds no fence.
  void wake_consumer() {
    if (!cons_armed_.load(std::memory_order_seq_cst)) return;
    if (!cons_armed_.exchange(false, std::memory_order_acq_rel)) return;
    { std::scoped_lock lock(wmu_); }
    cons_cv_.notify_all();
  }
  /// Caller holds cmu_ (single consumer side: take_locked / drain).
  void wake_producers() {
    if (prod_waiting_.load(std::memory_order_acquire) == 0) return;
    // Hysteresis + rate latch: during a full-ring drain episode, blocked
    // producers are woken once a quarter of the capacity is free, and then
    // at most once per quarter-revolution of the head — not once per freed
    // slot.  prod_waiting_ stays raised while a woken producer sits in the
    // run queue, so a per-pop notify would cost the consumer a futex
    // syscall per message for the rest of the drain.  The 1 ms tick bounds
    // the extra latency exactly like every other wait in this file;
    // drain() resets the latch and poison() wakes unconditionally.
    const std::size_t cap = mask_ + 1;
    const std::size_t used = tail_.load(std::memory_order_acquire) - head_;
    if (cap - std::min(used, cap) < cap / 4) return;
    // Reaching quarter-free from a full ring implies the head advanced at
    // least cap/4 since the previous wake, so this latch never starves an
    // episode — it only dedups wakes within one.
    if (head_ - last_prod_wake_head_ < cap / 4) return;
    last_prod_wake_head_ = head_;
    prod_cv_.notify_all();
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;

  // Producer line.
  alignas(64) std::atomic<std::size_t> tail_{0};
  // Consumer line: head_ is guarded by cmu_; head_pub_ mirrors it for the
  // producers' full/size estimates.
  alignas(64) mutable std::mutex cmu_;
  std::size_t head_ = 0;
  std::size_t last_prod_wake_head_ = 0;  // guarded by cmu_ (wake rate latch)
  std::atomic<std::size_t> head_pub_{0};

  std::atomic<bool> poisoned_{false};

  // Wait plumbing (cold path only).
  std::mutex wmu_;
  WaitSet prod_cv_;
  WaitSet cons_cv_;
  std::atomic<int> prod_waiting_{0};
  std::atomic<bool> cons_armed_{false};
  std::atomic<std::uint64_t> missed_wakes_{0};
};

}  // namespace windar::util
