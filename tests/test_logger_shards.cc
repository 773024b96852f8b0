// Job-level tests for the sharded TEL/PES event logger: digest equivalence
// against the single-logger seed deployment, batched-ack accounting, chaos
// kills racing in-flight DET batches, and both rank execution models across
// shard counts.  The unit-level shard tests live in test_event_logger.cc.
#include <gtest/gtest.h>

#include "chaos_app.h"

namespace windar::ft {
namespace {

ChaosPlan quiet_plan(std::uint64_t seed, int n, int iterations) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.n = n;
  plan.iterations = iterations;
  plan.checkpoint_every = 5;
  return plan;
}

TEST(LoggerShards, ShardedTelMatchesSingleLoggerDigest) {
  const ChaosPlan plan = quiet_plan(7, 4, 24);
  const auto seed_run =
      chaos::run_plan(plan, ProtocolKind::kTel, false, /*logger_shards=*/1);
  for (int shards : {2, 4}) {
    const auto sharded =
        chaos::run_plan(plan, ProtocolKind::kTel, false, shards);
    EXPECT_EQ(sharded.digest, seed_run.digest) << "shards=" << shards;
    EXPECT_GT(sharded.result.logger.batches, 0u);
    EXPECT_GT(sharded.result.logger.commit_rounds, 0u);
    // Batched acks: one per affected rank per commit round, never one per
    // kTelLog packet, let alone one per determinant.
    EXPECT_LE(sharded.result.logger.acks,
              sharded.result.logger.commit_rounds *
                  static_cast<std::uint64_t>(plan.n));
  }
}

TEST(LoggerShards, PesRidesTheShardedLogger) {
  const ChaosPlan plan = quiet_plan(11, 4, 16);
  const auto seed_run =
      chaos::run_plan(plan, ProtocolKind::kPes, false, /*logger_shards=*/1);
  const auto sharded =
      chaos::run_plan(plan, ProtocolKind::kPes, false, /*logger_shards=*/2);
  EXPECT_EQ(sharded.digest, seed_run.digest);
  EXPECT_GT(sharded.result.logger.commit_rounds, 0u);
}

TEST(LoggerShards, ShardCountClampsToJobSize) {
  // More shards than ranks: clamped, still converges.
  const ChaosPlan plan = quiet_plan(13, 3, 12);
  const auto base = chaos::run_plan(plan, ProtocolKind::kTel, false, 1);
  const auto over = chaos::run_plan(plan, ProtocolKind::kTel, false, 16);
  EXPECT_EQ(over.digest, base.digest);
}

TEST(LoggerShards, KillMidDetBatchLosesNoStability) {
  // Kill a sender exactly as it puts a kTelLog batch on the wire: the batch
  // (committed late or dropped) was never acked, so its determinants were
  // still piggybacked and survivors hold copies — recovery must converge to
  // the clean digest, on the seed layout and on a sharded logger.
  ChaosPlan plan = quiet_plan(17, 4, 24);
  plan.events.push_back(kill_on_send(1, Kind::kTelLog, /*nth=*/2));
  for (int shards : {1, 2}) {
    const auto clean = chaos::run_plan(plan, ProtocolKind::kTel, false, shards);
    const auto faulty = chaos::run_plan(plan, ProtocolKind::kTel, true, shards);
    EXPECT_EQ(faulty.digest, clean.digest) << "shards=" << shards;
    EXPECT_GE(faulty.result.chaos_triggers_fired, 1u) << "shards=" << shards;
    EXPECT_GE(faulty.result.total.recoveries, 1u) << "shards=" << shards;
  }
}

TEST(LoggerShards, BothExecModelsConvergeAcrossShardCounts) {
  const ChaosPlan plan = quiet_plan(19, 4, 16);
  const auto baseline = chaos::run_plan(plan, ProtocolKind::kTel, false, 1,
                                        exec::ExecModel::kThreads);
  for (const auto exec_model :
       {exec::ExecModel::kThreads, exec::ExecModel::kCoop}) {
    for (int shards : {1, 2, 4}) {
      const auto run = chaos::run_plan(plan, ProtocolKind::kTel, false, shards,
                                       exec_model);
      EXPECT_EQ(run.digest, baseline.digest)
          << "exec=" << static_cast<int>(exec_model) << " shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace windar::ft
