// Unit tests for the cooperative rank scheduler (exec/scheduler.h) and its
// interplay with the WaitSet-backed blocking primitives.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/scheduler.h"
#include "util/queue.h"
#include "util/wait.h"

namespace windar::exec {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

TEST(ExecModel, Parse) {
  ExecModel m = ExecModel::kAuto;
  EXPECT_TRUE(parse_exec_model("threads", &m));
  EXPECT_EQ(m, ExecModel::kThreads);
  EXPECT_TRUE(parse_exec_model("coop", &m));
  EXPECT_EQ(m, ExecModel::kCoop);
  EXPECT_TRUE(parse_exec_model("auto", &m));
  EXPECT_EQ(m, ExecModel::kAuto);
  EXPECT_FALSE(parse_exec_model("fibers", &m));
}

TEST(Scheduler, SpawnAndJoinAll) {
  Scheduler sched(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    sched.spawn([&] { ran.fetch_add(1); });
  }
  sched.join_all();
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(sched.tasks_started(), 10u);
  EXPECT_EQ(sched.workers(), 2);
}

TEST(Scheduler, OnTaskAndCurrent) {
  EXPECT_FALSE(Scheduler::on_task());
  EXPECT_EQ(Scheduler::current(), nullptr);
  Scheduler sched(1);
  std::atomic<bool> on_task_inside{false};
  std::atomic<Scheduler*> current_inside{nullptr};
  sched.spawn([&] {
    on_task_inside = Scheduler::on_task();
    current_inside = Scheduler::current();
  });
  sched.join_all();
  EXPECT_TRUE(on_task_inside.load());
  EXPECT_EQ(current_inside.load(), &sched);
  EXPECT_FALSE(Scheduler::on_task());
}

TEST(Scheduler, ManyTasksFewWorkers) {
  // 512 tasks on 2 workers: the pool size bounds thread count, not n.
  Scheduler sched(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 512; ++i) {
    sched.spawn([&] {
      Scheduler::yield();
      done.fetch_add(1);
    });
  }
  sched.join_all();
  EXPECT_EQ(done.load(), 512);
}

TEST(Scheduler, YieldInterleaves) {
  // With one worker, a spin-without-yield would starve the second task
  // forever; yield must let it through.
  Scheduler sched(1);
  std::atomic<bool> flag{false};
  sched.spawn([&] {
    while (!flag.load()) Scheduler::yield();
  });
  sched.spawn([&] { flag.store(true); });
  sched.join_all();
  EXPECT_TRUE(flag.load());
}

TEST(Scheduler, ParkTimesOut) {
  Scheduler sched(1);
  Clock::duration waited{};
  sched.spawn([&] {
    const auto t0 = Clock::now();
    Scheduler::park_until(t0 + 30ms);
    waited = Clock::now() - t0;
  });
  sched.join_all();
  EXPECT_GE(waited, 29ms);
}

TEST(Scheduler, UnparkWakesParkedTask) {
  Scheduler sched(1);
  util::ParkRef ref;
  std::mutex mu;
  std::condition_variable cv;
  Clock::duration waited{};
  sched.spawn([&] {
    {
      std::scoped_lock lock(mu);
      ref = Scheduler::self();
    }
    cv.notify_one();
    const auto t0 = Clock::now();
    Scheduler::park_until(t0 + 10s);
    waited = Clock::now() - t0;
  });
  {
    // Cross-thread unpark: wait for the handle, give the task time to park,
    // then wake it long before its 10s deadline.
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return ref != nullptr; });
  }
  std::this_thread::sleep_for(20ms);
  ref->unpark();
  sched.join_all();
  EXPECT_LT(waited, 5s);
}

TEST(Scheduler, UnparkBeforeParkIsAPermit) {
  Scheduler sched(1);
  Clock::duration waited{};
  sched.spawn([&] {
    util::ParkRef self = Scheduler::self();
    self->unpark();  // permit stored while kRunning
    const auto t0 = Clock::now();
    Scheduler::park_until(t0 + 10s);  // consumes the permit, returns at once
    waited = Clock::now() - t0;
  });
  sched.join_all();
  EXPECT_LT(waited, 1s);
}

TEST(Scheduler, UnparkAfterCompletionIsNoop) {
  util::ParkRef ref;
  {
    Scheduler sched(1);
    std::mutex mu;
    sched.spawn([&] {
      std::scoped_lock lock(mu);
      ref = Scheduler::self();
    });
    sched.join_all();
  }
  ASSERT_NE(ref, nullptr);
  ref->unpark();  // scheduler destroyed, task done: must not crash
}

TEST(Scheduler, SleepForHasSleepSemantics) {
  Scheduler sched(1);
  Clock::duration waited{};
  sched.spawn([&] {
    const auto t0 = Clock::now();
    util::coop_sleep_for(25ms);
    waited = Clock::now() - t0;
  });
  sched.join_all();
  EXPECT_GE(waited, 24ms);
}

TEST(Scheduler, SpawnFromTask) {
  Scheduler sched(2);
  std::atomic<int> ran{0};
  TaskHandle inner;
  sched.spawn([&] {
    inner = Scheduler::current()->spawn([&] { ran.fetch_add(1); });
    inner.join();  // task-to-task join parks instead of blocking the worker
    ran.fetch_add(10);
  });
  sched.join_all();
  EXPECT_EQ(ran.load(), 11);
  EXPECT_TRUE(inner.done());
}

TEST(Scheduler, JoinFromPlainThread) {
  Scheduler sched(1);
  TaskHandle h = sched.spawn([] { util::coop_sleep_for(10ms); });
  h.join();
  EXPECT_TRUE(h.done());
  sched.join_all();
}

TEST(Scheduler, ExceptionPropagatesThroughJoinAll) {
  Scheduler sched(2);
  sched.spawn([] { throw std::runtime_error("task boom"); });
  sched.spawn([] { util::coop_sleep_for(1ms); });
  EXPECT_THROW(sched.join_all(), std::runtime_error);
  sched.join_all();  // error already consumed; all tasks finished
}

TEST(Scheduler, BlockingQueueAcrossTasks) {
  // Producer and consumer both run as fibers on ONE worker: pop() must park
  // the consumer task or the producer never runs and this deadlocks.
  Scheduler sched(1);
  util::BlockingQueue<int> q;
  std::vector<int> got;
  sched.spawn([&] {
    for (int i = 0; i < 100; ++i) {
      if (auto v = q.pop()) got.push_back(*v);
    }
  });
  sched.spawn([&] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(q.push(i));
      if (i % 7 == 0) Scheduler::yield();
    }
  });
  sched.join_all();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(Scheduler, BlockingQueueThreadToTask) {
  // OS-thread producer wakes a parked fiber through the WaitSet, the path the
  // fabric shard threads use to wake rank tasks.
  Scheduler sched(1);
  util::BlockingQueue<int> q;
  std::atomic<int> sum{0};
  sched.spawn([&] {
    while (auto v = q.pop()) sum.fetch_add(*v);
  });
  std::thread producer([&] {
    for (int i = 1; i <= 50; ++i) {
      ASSERT_TRUE(q.push(i));
      if (i % 10 == 0) std::this_thread::sleep_for(1ms);
    }
    // Poison discards items still queued, so wait for the fiber to drain
    // them first.  A fiber that is never woken leaves items behind until the
    // deadline and fails the sum below.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!q.empty() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(100us);
    }
    q.poison();
  });
  producer.join();
  sched.join_all();
  EXPECT_EQ(sum.load(), 50 * 51 / 2);
}

TEST(Scheduler, PoisonWakesParkedConsumerTask) {
  Scheduler sched(1);
  util::BlockingQueue<int> q;
  std::atomic<bool> popped_null{false};
  sched.spawn([&] { popped_null = !q.pop().has_value(); });
  std::this_thread::sleep_for(10ms);  // let the task park on the empty queue
  q.poison();
  sched.join_all();
  EXPECT_TRUE(popped_null.load());
}

TEST(Scheduler, PopUntilDeadlineOnTask) {
  Scheduler sched(1);
  util::BlockingQueue<int> q;
  Clock::duration waited{};
  bool value = true;
  sched.spawn([&] {
    const auto t0 = Clock::now();
    value = q.pop_until(t0 + 20ms).has_value();
    waited = Clock::now() - t0;
  });
  sched.join_all();
  EXPECT_FALSE(value);
  EXPECT_GE(waited, 19ms);
}

TEST(Scheduler, StressPingPong) {
  // Two queues, two fibers bouncing a token with timed pops under a second
  // scheduler thread pushing noise: exercises park/unpark/timer races.
  Scheduler sched(2);
  util::BlockingQueue<int> a2b;
  util::BlockingQueue<int> b2a;
  std::atomic<int> rounds{0};
  sched.spawn([&] {
    ASSERT_TRUE(a2b.push(0));
    while (auto v = b2a.pop_for(2s)) {
      if (*v >= 500) break;
      ASSERT_TRUE(a2b.push(*v + 1));
    }
  });
  sched.spawn([&] {
    while (auto v = a2b.pop_for(2s)) {
      rounds.fetch_add(1);
      if (!b2a.push(*v + 1)) break;
      if (*v + 1 >= 500) break;
    }
  });
  sched.join_all();
  EXPECT_GE(rounds.load(), 250);
}

TEST(Scheduler, HandOffRunsWokenTaskNext) {
  // A task woken by the task running on its worker runs as soon as that
  // task parks, ahead of the tasks already queued.
  Scheduler sched(1);
  std::mutex mu;
  util::WaitSet ws;
  bool go = false;
  std::vector<std::string> order;
  sched.spawn([&] {
    std::unique_lock lock(mu);
    ws.wait(lock, [&] { return go; });
    order.push_back("woken");
  });
  sched.spawn([&] {
    for (int i = 0; i < 4; ++i) {
      Scheduler::current()->spawn([&] {
        std::scoped_lock lock(mu);
        order.push_back("queued");
      });
    }
    {
      std::scoped_lock lock(mu);
      go = true;
      order.push_back("waker");
    }
    ws.notify_all();
  });
  sched.join_all();
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], "waker");
  EXPECT_EQ(order[1], "woken");
}

TEST(Scheduler, HandOffChainCannotStarveQueue) {
  // Two tasks passing a turn back and forth hand off to each other on every
  // pass; a third task queued behind them must still run within a few
  // passes, not after the pair gives up.
  constexpr int kPassLimit = 100000;
  Scheduler sched(1);
  std::mutex mu;
  util::WaitSet ws;
  int turn = 0;
  int passes = 0;
  bool stop = false;
  int passes_seen_by_third = -1;
  auto player = [&](int me) {
    std::unique_lock lock(mu);
    for (;;) {
      ws.wait(lock, [&] { return stop || turn == me; });
      if (stop || passes >= kPassLimit) break;
      turn = 1 - me;
      ++passes;
      ws.notify_all();
    }
    stop = true;
    ws.notify_all();
  };
  sched.spawn([&] { player(0); });
  sched.spawn([&] { player(1); });
  sched.spawn([&] {
    {
      std::scoped_lock lock(mu);
      passes_seen_by_third = passes;
      stop = true;
    }
    ws.notify_all();
  });
  sched.join_all();
  EXPECT_GE(passes_seen_by_third, 0);
  EXPECT_LT(passes_seen_by_third, 100);
}

TEST(Scheduler, StackCacheReusesStacksAcrossSchedulers) {
  // A finished task's stack outlives its scheduler and serves the next
  // spawn, even when the address range a fresh mmap would pick is taken.
  auto frame_of_one_task = [] {
    std::uintptr_t frame = 0;
    Scheduler sched(1);
    sched.spawn([&] {
      frame = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    });
    sched.join_all();
    return frame;
  };
  const std::uintptr_t first = frame_of_one_task();
  const std::size_t stack_bytes =
      256 * 1024 + static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  void* squatter = ::mmap(nullptr, stack_bytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(squatter, MAP_FAILED);
  const std::uintptr_t second = frame_of_one_task();
  ::munmap(squatter, stack_bytes);
  ASSERT_NE(first, 0u);
  EXPECT_EQ(first, second);
}

TEST(WaitSet, NotifyWakesThreadAndTaskWaiters) {
  util::WaitSet ws;
  std::mutex mu;
  bool go = false;
  std::atomic<int> woke{0};
  Scheduler sched(1);
  sched.spawn([&] {
    std::unique_lock lock(mu);
    ws.wait(lock, [&] { return go; });
    woke.fetch_add(1);
  });
  std::thread waiter([&] {
    std::unique_lock lock(mu);
    ws.wait(lock, [&] { return go; });
    woke.fetch_add(1);
  });
  std::this_thread::sleep_for(10ms);
  {
    std::scoped_lock lock(mu);
    go = true;
  }
  ws.notify_all();
  waiter.join();
  sched.join_all();
  EXPECT_EQ(woke.load(), 2);
}

}  // namespace
}  // namespace windar::exec
