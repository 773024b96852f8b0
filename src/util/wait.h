// Cooperative wait plumbing shared by every blocking point in the stack.
//
// The execution model is pluggable (exec/scheduler.h): rank tasks may run as
// plain OS threads (the seed model) or as stackful cooperative tasks
// multiplexed onto a fixed worker pool.  A cooperative task must never block
// its worker thread — a `BlockingQueue::pop`, a `DeliveryQueue` wait, or a
// restart-delay sleep has to *park the task* (switch back to the scheduler)
// instead of parking the OS thread.
//
// Two pieces live here:
//
//  * CoopRuntime — the function table the exec layer installs at start-up.
//    util stays below exec in the layering; everything in util (and net,
//    which only depends on util) reaches the scheduler exclusively through
//    this table.  When no runtime is installed, or the calling thread is not
//    running a cooperative task, every primitive falls back to the plain
//    std:: blocking behaviour — a binary that never touches exec pays one
//    predictable branch.
//
//  * WaitSet — a condition-variable replacement that can wake BOTH kinds of
//    waiter: native threads (internal std::condition_variable) and parked
//    cooperative tasks (ParkRef list, unparked on notify).  It is the wait
//    primitive behind BlockingQueue and the DeliveryQueue, which is how the
//    fabric's shard threads (always OS threads) wake rank tasks of either
//    kind when they push into an endpoint inbox.
//
// Missed-wakeup contract: a cooperative waiter registers its ParkRef while
// still holding the predicate mutex, so any notifier that mutates the
// predicate under that mutex is guaranteed to observe the registration.
// Notifiers that signal state changed *outside* the mutex (e.g. the recovery
// gate atomic) can race a registering waiter exactly like they can race a
// thread entering condition_variable::wait — which is why every wait in the
// engine is deadline-bounded: a lost wakeup costs one tick, never a hang.
// A notifier that instead orders itself against the waiter's check (the
// inbox ring's armed flag plus a lock/unlock of the predicate mutex before
// notifying, util/ring.h) loses no wakeup at all; its bound is then a long
// safety slice rather than a tick on the latency path.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

namespace windar::util {

/// Stable handle to a parked cooperative task.  `unpark` is safe to call
/// from any thread, at any time — including after the task finished or its
/// scheduler shut down (it degrades to a no-op); the shared_ptr keeps the
/// handle's storage alive across those races.
class ParkHandle {
 public:
  virtual ~ParkHandle() = default;
  virtual void unpark() = 0;
};
using ParkRef = std::shared_ptr<ParkHandle>;

/// Function table installed once by the exec layer (process lifetime).
/// All entries dispatch on thread-local state, so one global table serves
/// any number of schedulers.
struct CoopRuntime {
  /// True when the calling thread is currently executing a cooperative task.
  bool (*on_task)();
  /// Park handle of the current task (on_task() must be true).
  ParkRef (*self)();
  /// Parks the current task until `deadline` or until its handle is
  /// unparked, whichever is first.  Spurious returns are allowed.
  void (*park_until)(std::chrono::steady_clock::time_point deadline);
};

void set_coop_runtime(const CoopRuntime* rt);
const CoopRuntime* coop_runtime();

inline bool on_coop_task() {
  const CoopRuntime* rt = coop_runtime();
  return rt != nullptr && rt->on_task();
}

/// Sleep that parks the cooperative task instead of blocking the worker
/// thread; plain this_thread::sleep_for elsewhere.  May return a little
/// early only if some stray unpark targets the task — callers that need the
/// full duration must loop on a clock, like with any condition wait.
void coop_sleep_for(std::chrono::nanoseconds d);

/// Yield that reschedules the cooperative task (letting sibling fibers on
/// the same worker run) instead of yielding the OS thread; plain
/// this_thread::yield elsewhere.  Spin loops in rank code must use this —
/// an OS-thread yield inside a fiber never lets the fibers it is waiting
/// on make progress.
void coop_yield();

/// Hybrid condition variable: pairs with an external std::mutex exactly like
/// std::condition_variable, but can additionally wake cooperative tasks.
class WaitSet {
 public:
  using Clock = std::chrono::steady_clock;

  /// Blocks until `pred()` (caller holds `lock`, which guards the predicate).
  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& lock, Pred pred) {
    const CoopRuntime* rt = coop_runtime();
    if (rt == nullptr || !rt->on_task()) {
      cv_.wait(lock, pred);
      return;
    }
    while (!pred()) {
      coop_wait_step(*rt, lock, Clock::time_point::max());
    }
  }

  /// Blocks until `pred()` or `deadline`; returns pred() like
  /// condition_variable::wait_until.
  template <typename Pred>
  bool wait_until(std::unique_lock<std::mutex>& lock, Clock::time_point deadline,
                  Pred pred) {
    const CoopRuntime* rt = coop_runtime();
    if (rt == nullptr || !rt->on_task()) {
      return cv_.wait_until(lock, deadline, pred);
    }
    while (!pred()) {
      if (Clock::now() >= deadline) return pred();
      coop_wait_step(*rt, lock, deadline);
    }
    return true;
  }

  /// Predicate-free bounded wait (returns on notify, timeout, or spuriously;
  /// the caller re-checks its condition, like condition_variable::wait_for).
  void wait_for(std::unique_lock<std::mutex>& lock, Clock::duration d) {
    const CoopRuntime* rt = coop_runtime();
    if (rt == nullptr || !rt->on_task()) {
      cv_.wait_for(lock, d);
      return;
    }
    coop_wait_step(*rt, lock, Clock::now() + d);
  }

  /// Wakes one waiter of either kind.  (Both a thread and a task may wake —
  /// an acceptable spurious wakeup, never a lost one.)
  void notify_one() {
    cv_.notify_one();
    ParkRef victim;
    {
      std::scoped_lock lock(pmu_);
      if (!parked_.empty()) {
        victim = std::move(parked_.back());
        parked_.pop_back();
      }
    }
    if (victim) victim->unpark();
  }

  void notify_all() {
    cv_.notify_all();
    std::vector<ParkRef> all;
    {
      std::scoped_lock lock(pmu_);
      all.swap(parked_);
    }
    for (ParkRef& p : all) p->unpark();
  }

 private:
  /// One registered park: register under the predicate lock, drop it, park,
  /// deregister, re-acquire.  Equivalent to one condition_variable wait slice.
  void coop_wait_step(const CoopRuntime& rt, std::unique_lock<std::mutex>& lock,
                      Clock::time_point deadline) {
    ParkRef self = rt.self();
    {
      std::scoped_lock plock(pmu_);
      parked_.push_back(self);
    }
    lock.unlock();
    rt.park_until(deadline);
    {
      // Timed out or woken by an unrelated unpark: withdraw the
      // registration so a later notify does not chase a stale handle.  (If a
      // notify already consumed it, the unpark raced our park — that is the
      // wakeup we return with.)
      std::scoped_lock plock(pmu_);
      for (std::size_t i = 0; i < parked_.size(); ++i) {
        if (parked_[i] == self) {
          parked_[i] = std::move(parked_.back());
          parked_.pop_back();
          break;
        }
      }
    }
    lock.lock();
  }

  std::condition_variable cv_;
  std::mutex pmu_;  // leaf lock: guards parked_ only
  std::vector<ParkRef> parked_;
};

}  // namespace windar::util
