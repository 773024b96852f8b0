// Runtime-level tests: chaos kill semantics, restart policy, result
// aggregation, and configuration validation.
#include <gtest/gtest.h>

#include <atomic>

#include "mp/comm.h"
#include "util/wait.h"
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
  // A kill must never land on a rank whose function already returned.  Rank
  // 1 returns on its only receive; rank 0 then sends a farewell that no one
  // receives, and its delivery fires the kill of rank 1.
  JobConfig cfg = base(2);
  cfg.latency = net::LatencyModel::deterministic();
  cfg.chaos = {kill_on_delivery(1, 2)};
  auto result = run_job(cfg, [](Ctx& ctx) {
    if (ctx.rank() == 0) {
      send_value(ctx, 1, 0, 1);
      // Let rank 1 return before the farewell reaches it, then let the
      // farewell land before the job ends.
      util::coop_sleep_for(std::chrono::milliseconds(50));
      send_value(ctx, 1, 1, -1);
      util::coop_sleep_for(std::chrono::milliseconds(20));
    } else {
      (void)ctx.recv(0, 0);
    }
  });
  EXPECT_EQ(result.chaos_triggers_fired, 1u);
  EXPECT_EQ(result.total.recoveries, 0u);
}

TEST(Runtime, RepeatedFaultsProduceOneRecoveryEach) {
  // Three kills of rank 1 at its 10th, 25th and 40th delivered packets
  // (fabric-wide, so re-deliveries after a rollback count too): each lands
  // within the 60 exchanges and produces exactly one recovery.
  JobConfig cfg = base(2);
  cfg.chaos = {kill_on_delivery(1, 10), kill_on_delivery(1, 25),
               kill_on_delivery(1, 40)};
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
    }
  });
  EXPECT_EQ(result.total.recoveries, 3u);
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
  cfg.chaos = {kill_on_delivery(1, 8)};
  auto done = std::make_shared<std::atomic<int>>(0);
  auto result = run_job(cfg, [done](Ctx& ctx) {
    EXPECT_FALSE(ctx.restored().has_value());  // never checkpointed
    const int peer = 1 - ctx.rank();
    for (int i = 0; i < 15; ++i) {
      send_value(ctx, peer, 0, i);
      (void)recv_value<int>(ctx, peer, 0);
    }
    done->fetch_add(1);
  });
  // The kill lands at rank 1's 8th of 15 receives: its first attempt never
  // increments, and both logical ranks complete exactly once.
  EXPECT_EQ(result.total.recoveries, 1u);
  EXPECT_EQ(done->load(), 2);
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
