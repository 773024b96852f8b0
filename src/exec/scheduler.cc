#include "exec/scheduler.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/parse.h"

// Sanitizer fiber hooks.  ASan tracks a fake stack per fiber and must be told
// around every swapcontext which stack is becoming live; TSan models each
// fiber as its own logical thread so happens-before edges survive the switch.
// Without these, both sanitizers see one OS thread hopping between disjoint
// stack ranges and report garbage.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WINDAR_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define WINDAR_TSAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define WINDAR_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#define WINDAR_TSAN_FIBERS 1
#endif

#ifdef WINDAR_ASAN_FIBERS
#include <pthread.h>
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef WINDAR_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace windar::exec {

namespace detail {

using Clock = std::chrono::steady_clock;

/// One switchable execution context: either a worker thread's scheduling
/// context or a task's fiber.
struct FiberCtx {
  ucontext_t uc{};
  void* stack_bottom = nullptr;  // fiber stack (null for a worker context)
  std::size_t stack_size = 0;
  void* fake_stack = nullptr;  // ASan fake-stack save slot
  void* tsan_fiber = nullptr;
};

enum class State : int {
  kReady,     // in the ready queue, waiting for a worker
  kRunning,   // live on a worker
  kParking,   // called park, not yet switched out
  kParked,    // switched out, waiting for a timer or an unpark
  kNotified,  // unpark permit pending (consumed by the next park)
  kDone,
};

struct Task;

struct TimerEntry {
  Clock::time_point deadline;
  std::uint64_t seq;  // park generation the entry belongs to
  std::shared_ptr<Task> task;
};
struct TimerLater {
  bool operator()(const TimerEntry& a, const TimerEntry& b) const {
    return a.deadline > b.deadline;
  }
};

struct Core {
  std::mutex mu;
  std::condition_variable cv;       // workers wait here
  std::condition_variable done_cv;  // join_all waits here
  std::deque<std::shared_ptr<Task>> ready;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, TimerLater> timers;
  bool stopping = false;
  std::size_t started = 0;
  std::size_t finished = 0;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;

  void push_ready(std::shared_ptr<Task> t) {
    {
      std::scoped_lock lock(mu);
      ready.push_back(std::move(t));
    }
    cv.notify_one();
  }

  /// Makes a woken task runnable: into the waker's hand-off slot when the
  /// waker is a task on one of this core's workers, else the shared queue.
  void wake(std::shared_ptr<Task> t);
};

namespace {

/// A worker thread's own scheduling state; only that thread touches it.
struct Worker {
  FiberCtx ctx;  // the worker's scheduling context
  // Hand-off slot (Go's runnext): the task most recently woken by the task
  // running here, run as soon as that task parks instead of queueing
  // behind every other runnable task.
  std::shared_ptr<Task> next;
};

// Thread-local worker identity.  Set for the lifetime of a worker thread;
// t_current is non-null exactly while a fiber is live on this thread.
thread_local Scheduler* t_sched = nullptr;
thread_local Worker* t_worker = nullptr;
thread_local Task* t_current = nullptr;

/// Longest run of hand-offs a worker takes before it serves the shared
/// queue again, so two tasks waking each other cannot starve it.
constexpr int kHandOffChain = 8;

std::size_t page_size() {
  static const std::size_t ps =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

constexpr std::size_t kDefaultStack = 256 * 1024;

/// Process-wide free list of default-size fiber stacks, each keeping its
/// PROT_NONE guard page.  Every job builds a fresh Scheduler, so the cache
/// outlives them all (it is never destroyed).  spawn takes a stack from it
/// before paying for mmap + mprotect; a finished task gives its stack back
/// while fewer than kMaxStacks are cached.
class StackCache {
 public:
  static constexpr std::size_t kMaxStacks = 1024;

  static StackCache& instance() {
    static StackCache* const cache = new StackCache;
    return *cache;
  }

  void* take() {
    std::scoped_lock lock(mu_);
    if (free_.empty()) return nullptr;
    void* base = free_.back();
    free_.pop_back();
    return base;
  }

  bool give(void* base) {
    std::scoped_lock lock(mu_);
    if (free_.size() >= kMaxStacks) return false;
    free_.push_back(base);
    return true;
  }

 private:
  std::mutex mu_;
  std::vector<void*> free_;  // LIFO: the most recently used stack is warm
};

}  // namespace

struct Task final : util::ParkHandle, std::enable_shared_from_this<Task> {
  std::shared_ptr<Core> core;
  std::function<void()> fn;
  FiberCtx ctx;
  void* stack_base = nullptr;  // mmap base (guard page + usable stack)
  std::size_t stack_total = 0;

  std::atomic<State> state{State::kReady};
  std::atomic<std::uint64_t> park_seq{0};
  Clock::time_point park_deadline{};
  bool finished = false;  // set on the fiber, read by the worker after switch

  // done/joiners: WaitSet so a joiner may be a thread or another task.
  std::mutex jmu;
  util::WaitSet jcv;
  bool done = false;

  ~Task() override { release_stack(); }

  void release_stack() {
    if (stack_base != nullptr) {
      if (stack_total != kDefaultStack + page_size() ||
          !StackCache::instance().give(stack_base)) {
        ::munmap(stack_base, stack_total);
      }
      stack_base = nullptr;
    }
#ifdef WINDAR_TSAN_FIBERS
    if (ctx.tsan_fiber != nullptr) {
      __tsan_destroy_fiber(ctx.tsan_fiber);
      ctx.tsan_fiber = nullptr;
    }
#endif
  }

  /// Wake the task from any thread, any time.  After completion this is a
  /// benign no-op, which is what makes ParkRefs safe to cache in WaitSets.
  void unpark() override {
    for (;;) {
      State s = state.load(std::memory_order_acquire);
      switch (s) {
        case State::kRunning:
        case State::kParking:
          if (state.compare_exchange_weak(s, State::kNotified,
                                          std::memory_order_acq_rel)) {
            return;  // permit stored; the (in-flight) park consumes it
          }
          break;
        case State::kParked:
          if (state.compare_exchange_weak(s, State::kReady,
                                          std::memory_order_acq_rel)) {
            core->wake(shared_from_this());
            return;
          }
          break;
        case State::kReady:
        case State::kNotified:
        case State::kDone:
          return;
      }
    }
  }
};

void Core::wake(std::shared_ptr<Task> t) {
  if (t_current == nullptr || t_current->core.get() != this) {
    push_ready(std::move(t));  // OS thread, timer promotion, other scheduler
    return;
  }
  // A task already in the slot yields it to the newer wake and queues.
  std::shared_ptr<Task> bumped = std::exchange(t_worker->next, std::move(t));
  if (bumped) push_ready(std::move(bumped));
}

namespace {

#ifndef MAP_STACK
#define MAP_STACK 0
#endif

/// Switches from `from` to `to`, keeping the sanitizers in the loop.
/// `from_dying` releases the outgoing fiber's ASan fake stack (final exit).
void switch_ctx(FiberCtx* from, FiberCtx* to, bool from_dying) {
#ifdef WINDAR_ASAN_FIBERS
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &from->fake_stack,
                                 to->stack_bottom, to->stack_size);
#else
  (void)from_dying;
#endif
#ifdef WINDAR_TSAN_FIBERS
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  ::swapcontext(&from->uc, &to->uc);
  // Resumed (possibly much later, possibly on a different worker for tasks).
#ifdef WINDAR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(from->fake_stack, nullptr, nullptr);
#endif
}

void fiber_trampoline(unsigned hi, unsigned lo) {
  auto* task = reinterpret_cast<Task*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
#ifdef WINDAR_ASAN_FIBERS
  // First entry: no prior fake stack for this fiber.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  try {
    task->fn();
  } catch (...) {
    std::scoped_lock lock(task->core->mu);
    if (!task->core->first_error) {
      task->core->first_error = std::current_exception();
    }
  }
  task->fn = nullptr;  // drop captures on the fiber, not at ~Task
  task->finished = true;
  // Final switch out; never returns.  The worker completes the bookkeeping.
  switch_ctx(&task->ctx, &t_worker->ctx, /*from_dying=*/true);
  std::abort();  // resumed a finished fiber — scheduler bug
}

}  // namespace
}  // namespace detail

using detail::Clock;
using detail::Core;
using detail::State;
using detail::Task;

// ---------------------------------------------------------------------------
// ExecModel plumbing

bool parse_exec_model(const std::string& s, ExecModel* out) {
  if (s == "threads") {
    *out = ExecModel::kThreads;
  } else if (s == "coop") {
    *out = ExecModel::kCoop;
  } else if (s == "auto") {
    *out = ExecModel::kAuto;
  } else {
    return false;
  }
  return true;
}

ExecModel resolve_exec_model(ExecModel m) {
  if (m != ExecModel::kAuto) return m;
  return util::env_choice("WINDAR_EXEC", {"threads", "coop"}) == "coop"
             ? ExecModel::kCoop
             : ExecModel::kThreads;
}

// ---------------------------------------------------------------------------
// TaskHandle

bool TaskHandle::done() const {
  WINDAR_CHECK(task_ != nullptr) << "join of empty TaskHandle";
  std::scoped_lock lock(task_->jmu);
  return task_->done;
}

void TaskHandle::join() {
  WINDAR_CHECK(task_ != nullptr) << "join of empty TaskHandle";
  std::unique_lock lock(task_->jmu);
  task_->jcv.wait(lock, [&] { return task_->done; });
}

// ---------------------------------------------------------------------------
// Scheduler

namespace {

// CoopRuntime entries dispatch on the thread-locals, so the single global
// table (installed once, never removed) serves every scheduler instance.
bool rt_on_task() { return detail::t_current != nullptr; }

util::ParkRef rt_self() {
  WINDAR_CHECK(detail::t_current != nullptr) << "coop self() off-task";
  return detail::t_current->shared_from_this();
}

void rt_park_until(std::chrono::steady_clock::time_point deadline) {
  Scheduler::park_until(deadline);
}

constexpr util::CoopRuntime kRuntime{rt_on_task, rt_self, rt_park_until};

void install_runtime_once() {
  static const bool installed = [] {
    util::set_coop_runtime(&kRuntime);
    return true;
  }();
  (void)installed;
}

}  // namespace

int Scheduler::default_workers() {
  if (const auto v = util::env_int("WINDAR_EXEC_WORKERS")) {
    return static_cast<int>(*v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return static_cast<int>(std::min(4u, hw));
}

Scheduler* Scheduler::current() { return detail::t_sched; }
bool Scheduler::on_task() { return detail::t_current != nullptr; }

Scheduler::Scheduler(int workers) : core_(std::make_shared<Core>()) {
  install_runtime_once();
  if (workers <= 0) workers = default_workers();
  core_->threads.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    core_->threads.emplace_back([this, core = core_] {
      detail::t_sched = this;
      detail::Worker w;
#ifdef WINDAR_TSAN_FIBERS
      w.ctx.tsan_fiber = __tsan_get_current_fiber();
#endif
#ifdef WINDAR_ASAN_FIBERS
      {
        // ASan needs the real bounds of this thread's stack when a fiber
        // switches back to the scheduling context.
        pthread_attr_t attr;
        if (pthread_getattr_np(pthread_self(), &attr) == 0) {
          void* addr = nullptr;
          std::size_t sz = 0;
          if (pthread_attr_getstack(&attr, &addr, &sz) == 0) {
            w.ctx.stack_bottom = addr;
            w.ctx.stack_size = sz;
          }
          pthread_attr_destroy(&attr);
        }
      }
#endif
      detail::t_worker = &w;

      std::unique_lock lock(core->mu);
      for (;;) {
        const auto now = Clock::now();
        // Promote expired timers.  A stale generation (task re-parked since
        // the entry was queued) or a lost CAS (unpark got there first) is
        // skipped; at most one waker wins the kParked -> kReady transition.
        while (!core->timers.empty() && core->timers.top().deadline <= now) {
          detail::TimerEntry e = core->timers.top();
          core->timers.pop();
          if (e.task->park_seq.load(std::memory_order_acquire) != e.seq) {
            continue;
          }
          State expected = State::kParked;
          if (e.task->state.compare_exchange_strong(
                  expected, State::kReady, std::memory_order_acq_rel)) {
            core->ready.push_back(std::move(e.task));
          }
        }
        if (!core->ready.empty()) {
          std::shared_ptr<Task> task = std::move(core->ready.front());
          core->ready.pop_front();
          lock.unlock();
          run_task_on_worker(core.get(), &w.ctx, std::move(task));
          // Run what the task woke on its way out, then what that woke, up
          // to kHandOffChain tasks, without touching the shared lock.
          for (int chain = 0; w.next && chain < detail::kHandOffChain;
               ++chain) {
            run_task_on_worker(core.get(), &w.ctx, std::move(w.next));
          }
          lock.lock();
          // Chain cap reached: the slot's task queues like any other wake.
          if (w.next) core->ready.push_back(std::move(w.next));
          continue;
        }
        if (core->stopping) break;
        if (core->timers.empty()) {
          core->cv.wait(lock);
        } else {
          // Copy the deadline: wait_until holds its argument by reference
          // across the unlocked wait, while another worker may push onto
          // (and reallocate) the timer heap.
          const auto deadline = core->timers.top().deadline;
          core->cv.wait_until(lock, deadline);
        }
      }
      detail::t_worker = nullptr;
      detail::t_sched = nullptr;
    });
  }
}

void Scheduler::run_task_on_worker(detail::Core* core, detail::FiberCtx* wctx,
                                   std::shared_ptr<detail::Task> task) {
  task->state.store(State::kRunning, std::memory_order_release);
  detail::t_current = task.get();
  detail::switch_ctx(wctx, &task->ctx, /*from_dying=*/false);
  detail::t_current = nullptr;

  if (task->finished) {
    task->release_stack();
    {
      std::scoped_lock lock(task->jmu);
      task->done = true;
    }
    task->jcv.notify_all();
    task->state.store(State::kDone, std::memory_order_release);
    bool all_done = false;
    {
      std::scoped_lock lock(core->mu);
      ++core->finished;
      all_done = core->finished == core->started;
    }
    if (all_done) core->done_cv.notify_all();
    return;
  }

  // The task switched out through park_until and is in kParking (or already
  // kNotified if an unpark raced it).  Read the park parameters first: once
  // the CAS to kParked lands, an unpark may requeue the task on another
  // worker, which then writes the next park's deadline.
  const auto deadline = task->park_deadline;
  const std::uint64_t seq = task->park_seq.load(std::memory_order_acquire);
  State expected = State::kParking;
  if (task->state.compare_exchange_strong(expected, State::kParked,
                                          std::memory_order_acq_rel)) {
    if (deadline <= Clock::now()) {
      // yield / already-expired wait: requeue without touching the timers.
      State parked = State::kParked;
      if (task->state.compare_exchange_strong(parked, State::kReady,
                                              std::memory_order_acq_rel)) {
        core->push_ready(std::move(task));
      }
    } else if (deadline != Clock::time_point::max()) {
      {
        std::scoped_lock lock(core->mu);
        core->timers.push(detail::TimerEntry{deadline, seq, std::move(task)});
      }
      core->cv.notify_one();  // the timer horizon may have moved closer
    }
    // deadline == max: the task sleeps until some unpark finds it.
  } else {
    // Unpark landed while the task was mid-switch: it is kNotified.  Requeue.
    task->state.store(State::kReady, std::memory_order_release);
    core->push_ready(std::move(task));
  }
}

Scheduler::~Scheduler() {
  {
    std::scoped_lock lock(core_->mu);
    if (core_->finished != core_->started) {
      std::fprintf(stderr,
                   "exec::Scheduler destroyed with %zu live task(s); "
                   "call join_all() first\n",
                   core_->started - core_->finished);
      std::abort();
    }
    core_->stopping = true;
  }
  core_->cv.notify_all();
  for (std::thread& t : core_->threads) t.join();
  // A timer entry outlives its wait when the task was unparked early; it
  // still owns the (finished) task, which owns the core.  Break that cycle.
  std::scoped_lock lock(core_->mu);
  core_->timers = {};
}

TaskHandle Scheduler::spawn(std::function<void()> fn, std::size_t stack_bytes) {
  WINDAR_CHECK(fn != nullptr) << "spawn of empty task";
  if (stack_bytes == 0) stack_bytes = detail::kDefaultStack;
  const std::size_t ps = detail::page_size();
  stack_bytes = (stack_bytes + ps - 1) / ps * ps;

  auto task = std::make_shared<Task>();
  task->core = core_;
  task->fn = std::move(fn);

  task->stack_total = stack_bytes + ps;  // low guard page
  void* base = stack_bytes == detail::kDefaultStack
                   ? detail::StackCache::instance().take()
                   : nullptr;
  if (base == nullptr) {
    base = ::mmap(nullptr, task->stack_total, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    WINDAR_CHECK(base != MAP_FAILED) << "task stack mmap failed";
    WINDAR_CHECK(::mprotect(base, ps, PROT_NONE) == 0)
        << "stack guard mprotect";
  }
#ifdef WINDAR_ASAN_FIBERS
  // A reused stack's previous fiber died with its frames' redzones poisoned.
  ASAN_UNPOISON_MEMORY_REGION(static_cast<char*>(base) + ps, stack_bytes);
#endif
  task->stack_base = base;
  task->ctx.stack_bottom = static_cast<char*>(base) + ps;
  task->ctx.stack_size = stack_bytes;
#ifdef WINDAR_TSAN_FIBERS
  task->ctx.tsan_fiber = __tsan_create_fiber(0);
#endif

  WINDAR_CHECK(::getcontext(&task->ctx.uc) == 0) << "getcontext failed";
  task->ctx.uc.uc_stack.ss_sp = task->ctx.stack_bottom;
  task->ctx.uc.uc_stack.ss_size = task->ctx.stack_size;
  task->ctx.uc.uc_link = nullptr;  // fibers exit via switch_ctx, never return
  const auto addr = reinterpret_cast<std::uintptr_t>(task.get());
  ::makecontext(&task->ctx.uc,
                reinterpret_cast<void (*)()>(detail::fiber_trampoline), 2,
                static_cast<unsigned>(addr >> 32),
                static_cast<unsigned>(addr & 0xffffffffu));

  {
    std::scoped_lock lock(core_->mu);
    WINDAR_CHECK(!core_->stopping) << "spawn on a stopping scheduler";
    ++core_->started;
    core_->ready.push_back(task);
  }
  core_->cv.notify_one();
  return TaskHandle(std::move(task));
}

void Scheduler::join_all() {
  WINDAR_CHECK(!on_task()) << "join_all from inside a task";
  std::exception_ptr err;
  {
    std::unique_lock lock(core_->mu);
    core_->done_cv.wait(lock,
                        [&] { return core_->finished == core_->started; });
    err = core_->first_error;
    core_->first_error = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

int Scheduler::workers() const {
  return static_cast<int>(core_->threads.size());
}

std::size_t Scheduler::tasks_started() const {
  std::scoped_lock lock(core_->mu);
  return core_->started;
}

void Scheduler::yield() { park_until(Clock::now()); }

void Scheduler::park_until(std::chrono::steady_clock::time_point deadline) {
  Task* task = detail::t_current;
  WINDAR_CHECK(task != nullptr) << "park_until off-task";
  State s = task->state.load(std::memory_order_acquire);
  if (s == State::kNotified) {
    // Consume the pending permit instead of sleeping (the unpark we would
    // otherwise have waited for already happened).
    task->state.store(State::kRunning, std::memory_order_release);
    return;
  }
  task->park_deadline = deadline;
  task->park_seq.fetch_add(1, std::memory_order_release);
  State expected = State::kRunning;
  if (!task->state.compare_exchange_strong(expected, State::kParking,
                                           std::memory_order_acq_rel)) {
    // An unpark slid in after the load above; take the permit and stay.
    task->state.store(State::kRunning, std::memory_order_release);
    return;
  }
  detail::switch_ctx(&task->ctx, &detail::t_worker->ctx, /*from_dying=*/false);
  // Resumed by some worker, possibly a different one: refresh nothing here —
  // run_task_on_worker already reset the thread-locals and our state.
}

util::ParkRef Scheduler::self() {
  WINDAR_CHECK(detail::t_current != nullptr) << "self() off-task";
  return detail::t_current->shared_from_this();
}

}  // namespace windar::exec
