// Runtime-level tests: fault injector semantics, restart policy, result
// aggregation, and configuration validation.
#include <gtest/gtest.h>

#include <atomic>

#include "mp/comm.h"
#include "windar/runtime.h"

namespace windar::ft {
namespace {

using mp::recv_value;
using mp::send_value;

JobConfig base(int n) {
  JobConfig c;
  c.n = n;
  c.latency = net::LatencyModel::turbulent();
  c.restart_delay_ms = 3;
  return c;
}

TEST(Runtime, FaultAfterCompletionIsSkipped) {
  // The injector must never kill a rank whose function already returned.
  JobConfig cfg = base(2);
  cfg.faults = {{0, 50.0}, {1, 60.0}};  // far beyond the job's lifetime
  auto result = run_job(cfg, [](Ctx& ctx) {
    if (ctx.rank() == 0) send_value(ctx, 1, 0, 1);
    else (void)ctx.recv();
  });
  EXPECT_EQ(result.total.recoveries, 0u);
}

TEST(Runtime, RepeatedFaultsProduceOneRecoveryEach) {
  JobConfig cfg = base(2);
  cfg.faults = {{1, 4.0}, {1, 12.0}, {1, 20.0}};
  auto result = run_job(cfg, [](Ctx& ctx) {
    const int peer = 1 - ctx.rank();
    int start = 0;
    if (ctx.restored()) {
      // Application state must restore consistently with the recovery
      // layer's counters: resume the loop where the checkpoint was taken.
      util::ByteReader r(*ctx.restored());
      start = r.i32();
    }
    for (int i = start; i < 60; ++i) {
      if (i % 10 == 5) {
        util::ByteWriter w;
        w.i32(i);
        ctx.checkpoint(w.view());
      }
      send_value(ctx, peer, 0, i);
      (void)recv_value<int>(ctx, peer, 0);
      std::this_thread::sleep_for(std::chrono::microseconds(400));
    }
  });
  // Every fault that fired produced exactly one recovery; late ones may be
  // skipped if the job finished first.
  EXPECT_GE(result.total.recoveries, 1u);
  EXPECT_LE(result.total.recoveries, 3u);
}

TEST(Runtime, PerRankMetricsSumToTotal) {
  auto result = run_job(base(3), [](Ctx& ctx) {
    for (int d = 0; d < ctx.size(); ++d) {
      if (d != ctx.rank()) send_value(ctx, d, 0, 1);
    }
    for (int i = 0; i < ctx.size() - 1; ++i) (void)ctx.recv();
  });
  ASSERT_EQ(result.per_rank.size(), 3u);
  std::uint64_t sent = 0;
  for (const auto& m : result.per_rank) sent += m.app_sent;
  EXPECT_EQ(sent, result.total.app_sent);
  EXPECT_EQ(sent, 6u);
}

TEST(Runtime, WallTimeIsMeasured) {
  auto result = run_job(base(1), [](Ctx&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  });
  EXPECT_GE(result.wall_ms, 14.0);
}

TEST(Runtime, TelJobsReportLoggerActivity) {
  JobConfig cfg = base(2);
  cfg.protocol = ProtocolKind::kTel;
  auto result = run_job(cfg, [](Ctx& ctx) {
    const int peer = 1 - ctx.rank();
    for (int i = 0; i < 10; ++i) {
      send_value(ctx, peer, 0, i);
      (void)recv_value<int>(ctx, peer, 0);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  EXPECT_GT(result.logger.batches, 0u);
}

TEST(Runtime, CheckpointStoreStatsFlow) {
  auto result = run_job(base(2), [](Ctx& ctx) {
    ctx.checkpoint({});
    ctx.checkpoint({});
  });
  EXPECT_EQ(result.checkpoints.saves, 4u);
  EXPECT_EQ(result.total.checkpoints, 4u);
}

TEST(Runtime, RestartFromScratchWithoutCheckpoint) {
  JobConfig cfg = base(2);
  cfg.faults = {{1, 3.0}};
  auto done = std::make_shared<std::atomic<int>>(0);
  auto result = run_job(cfg, [done](Ctx& ctx) {
    EXPECT_FALSE(ctx.restored().has_value());  // never checkpointed
    const int peer = 1 - ctx.rank();
    for (int i = 0; i < 15; ++i) {
      send_value(ctx, peer, 0, i);
      (void)recv_value<int>(ctx, peer, 0);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    done->fetch_add(1);
  });
  // Both logical ranks completed; a killed first attempt never increments,
  // and a kill in the tiny window between increment and return legitimately
  // re-runs the function, so 3 is possible.
  EXPECT_GE(done->load(), 2);
  EXPECT_LE(done->load(), 2 + static_cast<int>(result.total.recoveries));
}

TEST(Runtime, BadFaultRankAborts) {
  JobConfig cfg = base(2);
  cfg.faults = {{7, 1.0}};
  EXPECT_DEATH((void)run_job(cfg, [](Ctx& ctx) {
                 std::this_thread::sleep_for(std::chrono::milliseconds(10));
                 (void)ctx;
               }),
               "bad rank");
}

TEST(Runtime, RecvFromBadRankAborts) {
  // Queue B indexes its lanes by source: an out-of-range source is rejected
  // loudly instead of waiting forever for a rank that does not exist.
  EXPECT_DEATH((void)run_job(base(2),
                             [](Ctx& ctx) {
                               if (ctx.rank() == 0) (void)ctx.recv(5, 0);
                             }),
               "recv from bad rank");
}

TEST(Runtime, ZeroRanksRejected) {
  JobConfig cfg = base(0);
  EXPECT_DEATH((void)run_job(cfg, [](Ctx&) {}), "at least one rank");
}

TEST(Runtime, CtxExposesRankAndSize) {
  run_job(base(3), [](Ctx& ctx) {
    EXPECT_GE(ctx.rank(), 0);
    EXPECT_LT(ctx.rank(), 3);
    EXPECT_EQ(ctx.size(), 3);
  });
}

}  // namespace
}  // namespace windar::ft
