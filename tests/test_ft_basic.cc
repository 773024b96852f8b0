// Failure-free integration tests of the recovery layer: applications run on
// windar (all three protocols, both send modes) and must produce exactly the
// raw-transport result, with sane overhead accounting.
#include <gtest/gtest.h>

#include "mp/collectives.h"
#include "util/wait.h"
#include "windar/runtime.h"

namespace windar::ft {
namespace {

using mp::recv_value;
using mp::send_value;

JobConfig config(int n, ProtocolKind proto, SendMode mode,
                 std::uint64_t seed = 1) {
  JobConfig c;
  c.n = n;
  c.protocol = proto;
  c.mode = mode;
  c.latency = net::LatencyModel::turbulent();
  c.seed = seed;
  return c;
}

// Ring: each rank passes an accumulating token around twice.
void ring_app(Ctx& ctx) {
  const int n = ctx.size();
  const int me = ctx.rank();
  const int next = (me + 1) % n;
  const int prev = (me - 1 + n) % n;
  if (n == 1) return;
  for (int round = 0; round < 2; ++round) {
    if (me == 0) {
      send_value(ctx, next, 0, 1000 * round);
      const int token = recv_value<int>(ctx, prev, 0);
      EXPECT_EQ(token, 1000 * round + (n - 1) * (n) / 2);
    } else {
      int token = recv_value<int>(ctx, prev, 0);
      send_value(ctx, next, 0, token + me);
    }
  }
}

class FtMatrix
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, SendMode>> {};

TEST_P(FtMatrix, RingCompletes) {
  auto [proto, mode] = GetParam();
  auto result = run_job(config(4, proto, mode), ring_app);
  EXPECT_EQ(result.total.app_sent, 8u);
  EXPECT_EQ(result.total.app_delivered, 8u);
  EXPECT_EQ(result.total.dup_dropped, 0u);
  EXPECT_EQ(result.total.suppressed_sends, 0u);
  EXPECT_EQ(result.total.recoveries, 0u);
}

TEST_P(FtMatrix, AllReduceMatchesClosedForm) {
  auto [proto, mode] = GetParam();
  run_job(config(6, proto, mode), [](Ctx& ctx) {
    mp::Coll coll(ctx);
    const double contrib[1] = {static_cast<double>(ctx.rank() + 1)};
    auto total = coll.allreduce_sum(contrib);
    EXPECT_DOUBLE_EQ(total[0], 21.0);
  });
}

TEST_P(FtMatrix, AnySourceGathersEverything) {
  auto [proto, mode] = GetParam();
  run_job(config(5, proto, mode), [](Ctx& ctx) {
    if (ctx.rank() == 0) {
      long long sum = 0;
      for (int i = 0; i < 4; ++i) sum += recv_value<int>(ctx);
      EXPECT_EQ(sum, 10);
    } else {
      send_value(ctx, 0, 7, ctx.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FtMatrix,
    ::testing::Combine(::testing::Values(ProtocolKind::kTdi,
                                         ProtocolKind::kTag,
                                         ProtocolKind::kTel),
                       ::testing::Values(SendMode::kBlocking,
                                         SendMode::kNonBlocking)),
    [](const auto& param_info) {
      return to_string(std::get<0>(param_info.param)) + "_" +
             to_string(std::get<1>(param_info.param));
    });

TEST(FtBasic, TdiPiggybackIsExactlyN) {
  for (int n : {2, 4, 8}) {
    auto result = run_job(config(n, ProtocolKind::kTdi, SendMode::kNonBlocking),
                          ring_app);
    EXPECT_DOUBLE_EQ(result.total.avg_piggyback_idents(), n);
  }
}

TEST(FtBasic, TagPiggybackGrowsWithTraffic) {
  auto result = run_job(config(4, ProtocolKind::kTag, SendMode::kNonBlocking),
                        ring_app);
  // The ring is causally chained: later sends carry earlier determinants.
  EXPECT_GT(result.total.piggyback_idents, 0u);
}

TEST(FtBasic, TelLoggerReceivesDeterminants) {
  auto result = run_job(config(4, ProtocolKind::kTel, SendMode::kNonBlocking),
                        [](Ctx& ctx) {
                          ring_app(ctx);
                          // Give the async flush a chance before returning.
                          util::coop_sleep_for(
                              std::chrono::milliseconds(10));
                        });
  EXPECT_GT(result.logger.batches, 0u);
}

TEST(FtBasic, CheckpointAdvanceReleasesLogs) {
  auto result =
      run_job(config(2, ProtocolKind::kTdi, SendMode::kNonBlocking),
              [](Ctx& ctx) {
                const int peer = 1 - ctx.rank();
                for (int i = 0; i < 10; ++i) {
                  send_value(ctx, peer, 0, i);
                  EXPECT_EQ(recv_value<int>(ctx, peer, 0), i);
                }
                ctx.checkpoint({});
                // Wait for the peer's CHECKPOINT_ADVANCE to arrive and GC.
                for (int spin = 0;
                     spin < 200 && ctx.process().log_entries() > 0; ++spin) {
                  util::coop_sleep_for(std::chrono::milliseconds(1));
                }
                EXPECT_EQ(ctx.process().log_entries(), 0u);
              });
  EXPECT_EQ(result.total.checkpoints, 2u);
  EXPECT_EQ(result.total.log_released_entries, 20u);
}

TEST(FtBasic, MetricsSummaryIsPopulated) {
  auto result =
      run_job(config(2, ProtocolKind::kTdi, SendMode::kNonBlocking), ring_app);
  EXPECT_NE(result.total.summary().find("sent="), std::string::npos);
  EXPECT_GT(result.wall_ms, 0.0);
  EXPECT_GT(result.fabric.packets_delivered, 0u);
}

TEST(FtBasic, BlockingModeRecordsSendBlockTime) {
  auto result =
      run_job(config(2, ProtocolKind::kTdi, SendMode::kBlocking), ring_app);
  EXPECT_GT(result.total.send_block_ns, 0);
}

TEST(FtBasic, SingleRankJob) {
  auto result = run_job(config(1, ProtocolKind::kTdi, SendMode::kNonBlocking),
                        [](Ctx& ctx) { EXPECT_EQ(ctx.size(), 1); });
  EXPECT_EQ(result.total.app_sent, 0u);
}

TEST(FtBasic, SelfSendDelivers) {
  run_job(config(2, ProtocolKind::kTdi, SendMode::kNonBlocking), [](Ctx& ctx) {
    send_value(ctx, ctx.rank(), 3, 41 + ctx.rank());
    EXPECT_EQ(recv_value<int>(ctx, ctx.rank(), 3), 41 + ctx.rank());
  });
}

TEST(FtBasic, ApplicationErrorPropagates) {
  EXPECT_THROW(
      run_job(config(2, ProtocolKind::kTdi, SendMode::kNonBlocking),
              [](Ctx& ctx) {
                if (ctx.rank() == 1) throw std::runtime_error("app bug");
                (void)ctx.recv(1, 0);  // would block forever
              }),
      std::runtime_error);
}

}  // namespace
}  // namespace windar::ft
