// Cooperative rank scheduler: a fixed pool of worker threads multiplexing
// stackful tasks (fibers), so a job's thread count is bounded by the pool
// size instead of by n.
//
// Thread-per-rank falls over long before 1024 ranks on a small host — each
// rank costs an OS thread (plus helper threads in the non-blocking engine),
// and the kernel scheduler thrashes on thousands of mostly-blocked threads.
// Under exec::Scheduler a rank is a Task: a ucontext fiber with its own
// mmap'd stack (guard page at the low end), run by whichever worker picks it
// off the ready queue — or, when another task woke it, next on that task's
// worker (a hand-off slot, capped so it cannot starve the queue).  Every blocking point in the stack — BlockingQueue
// pops, DeliveryQueue waits, restart-delay sleeps, collectives (which bottom
// out in the former two) — routes through util::WaitSet / util::coop_*,
// which park the task (switch back to the worker's scheduling context)
// instead of blocking the worker.  4096 ranks then run on 4 workers.
//
// Park/unpark protocol (lock-free, per task):
//
//   kRunning --park_until--> kParking --worker--> kParked --timer/unpark-->
//   kReady --worker--> kRunning; an unpark that catches the task kRunning or
//   kParking stores kNotified, which the next park consumes (permit
//   semantics, so an early wakeup is never lost).  Timer entries carry the
//   park generation, so an expired entry from an earlier park cannot wake a
//   later one; spurious wakeups remain possible (and allowed — every caller
//   re-checks its predicate under its own lock).
//
// Interop invariants with the rest of the stack (DESIGN.md §3g):
//   * The fabric's shard scheduler threads, the TEL event-logger thread, and
//     the socket transport's reader/writer threads stay plain OS threads;
//     they wake tasks exclusively through WaitSet::notify (ParkHandle is
//     safe from any thread, any time).
//   * A task must not hold any engine lock across a park; WaitSet releases
//     the predicate mutex before parking, mirroring condition_variable.
//   * Scheduler::current() is thread-local to worker threads: code that
//     spawns helpers (SendPath) picks fibers on a worker, threads elsewhere,
//     with no configuration plumbing.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>

#include "util/wait.h"

namespace windar::exec {

namespace detail {
struct Core;
struct FiberCtx;
struct Task;
}  // namespace detail

/// Execution model selector shared by the runtimes and drivers.
///   kThreads — one OS thread per rank (the seed model; default).
///   kCoop    — rank tasks multiplexed on an exec::Scheduler worker pool.
///   kAuto    — WINDAR_EXEC environment variable ("coop"/"threads") if set,
///              else kThreads.
enum class ExecModel { kAuto, kThreads, kCoop };

/// Resolves kAuto against WINDAR_EXEC; any other value of it is fatal.
ExecModel resolve_exec_model(ExecModel m);

inline const char* to_string(ExecModel m) {
  switch (m) {
    case ExecModel::kAuto: return "auto";
    case ExecModel::kThreads: return "threads";
    case ExecModel::kCoop: return "coop";
  }
  return "?";
}

/// Parses "threads" / "coop" / "auto"; anything else returns false.
bool parse_exec_model(const std::string& s, ExecModel* out);

/// Joinable handle to a spawned task.  join() parks when called from another
/// task, blocks the OS thread otherwise; both rethrow nothing (task errors
/// surface through Scheduler::join_all, mirroring thread-mode supervisors
/// that catch everything themselves).
class TaskHandle {
 public:
  TaskHandle() = default;
  bool valid() const { return task_ != nullptr; }
  bool done() const;
  void join();

 private:
  friend class Scheduler;
  explicit TaskHandle(std::shared_ptr<detail::Task> t) : task_(std::move(t)) {}
  std::shared_ptr<detail::Task> task_;
};

class Scheduler {
 public:
  /// `workers` OS threads; 0 resolves the default — WINDAR_EXEC_WORKERS if
  /// set (a malformed value is fatal), else min(4, hardware_concurrency).  The pool size is
  /// independent of how many tasks are spawned.
  explicit Scheduler(int workers = 0);

  /// Joins the workers.  Every spawned task must have finished (join_all);
  /// aborts otherwise — a live fiber's stack cannot be safely discarded.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Schedules `fn` as a new task.  Callable from any thread, including from
  /// inside a task (helper fibers).  `stack_bytes` 0 picks the default
  /// (256 KiB of lazily-committed address space + guard page); stacks of
  /// that size are reused across schedulers through a process-wide cache.
  TaskHandle spawn(std::function<void()> fn, std::size_t stack_bytes = 0);

  /// Blocks the calling OS thread (not a worker) until every task spawned so
  /// far has finished, then rethrows the first task exception, if any.
  void join_all();

  int workers() const;
  std::size_t tasks_started() const;

  static int default_workers();

  /// The scheduler driving the calling thread, if it is a worker; null on
  /// ordinary threads.  Non-null inside any task.
  static Scheduler* current();

  /// True when the calling thread is executing inside a task.
  static bool on_task();

  /// Cooperatively reschedules the current task at the back of the ready
  /// queue (on_task() must be true).
  static void yield();

  /// Parks the current task until `deadline` or an unpark, whichever first.
  static void park_until(std::chrono::steady_clock::time_point deadline);

  /// Park handle for the current task (feeds util::WaitSet registration).
  static util::ParkRef self();

 private:
  static void run_task_on_worker(detail::Core* core, detail::FiberCtx* wctx,
                                 std::shared_ptr<detail::Task> task);

  std::shared_ptr<detail::Core> core_;
};

}  // namespace windar::exec
