// Event-keyed fault injection: regression tests for the chaos schedule and
// the overlapping/repeated-failure hardening.  Unlike the wall-clock faults
// in test_recovery.cc, every kill here is keyed to a protocol event (nth
// delivery, nth control-packet send), so the scenario lands at the same
// protocol-relative point however slow the host runs.
#include <gtest/gtest.h>

#include "chaos_app.h"

namespace windar::ft {
namespace {

ChaosPlan base_plan(std::uint64_t seed = 7) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.n = 4;
  plan.iterations = 30;
  plan.checkpoint_every = 3;
  return plan;
}

std::uint64_t clean_digest(const ChaosPlan& plan, ProtocolKind proto) {
  return chaos::run_plan(plan, proto, /*with_faults=*/false).digest;
}

TEST(Chaos, DeliveryKeyedKillConverges) {
  ChaosPlan plan = base_plan();
  plan.events = {kill_on_delivery(1, 8)};
  const auto faulty = chaos::run_plan(plan, ProtocolKind::kTdi, true);
  EXPECT_EQ(clean_digest(plan, ProtocolKind::kTdi), faulty.digest);
  EXPECT_EQ(faulty.result.chaos_triggers_fired, 1u);
  EXPECT_EQ(faulty.result.total.recoveries, 1u);
}

TEST(Chaos, RepeatedKillOfSameRankCountsBothRecoveries) {
  // Satellite regression: two kills of the same rank must report
  // recoveries == 2 (the old `recoveries = 1` assignment collapsed them).
  ChaosPlan plan = base_plan();
  plan.events = {kill_on_delivery(1, 6), kill_on_delivery(1, 16)};
  const auto faulty = chaos::run_plan(plan, ProtocolKind::kTdi, true);
  EXPECT_EQ(clean_digest(plan, ProtocolKind::kTdi), faulty.digest);
  EXPECT_EQ(faulty.result.chaos_triggers_fired, 2u);
  EXPECT_EQ(faulty.result.total.recoveries, 2u);
}

TEST(Chaos, KillDuringOwnGatherWindow) {
  // The incarnation of rank 1 is killed as it broadcasts its first ROLLBACK
  // — a repeated failure landing inside its own recovery, usually within
  // the Process construction window (exercising the deferred-kill path).
  ChaosPlan plan = base_plan();
  plan.events = {kill_on_delivery(1, 6),
                 kill_on_send(1, Kind::kRollback, 1)};
  const auto faulty = chaos::run_plan(plan, ProtocolKind::kTdi, true);
  EXPECT_EQ(clean_digest(plan, ProtocolKind::kTdi), faulty.digest);
  EXPECT_EQ(faulty.result.total.recoveries, 2u);
}

TEST(Chaos, OverlappingFailureDuringPeersGatherWindow) {
  // Rank 2 dies exactly as it answers rank 1's ROLLBACK: its RESPONSE send
  // is the trigger.  Rank 1's gather must fall back to rank 2's incarnation
  // (served by the immediate targeted re-broadcast when rank 2's own
  // ROLLBACK arrives).
  for (ProtocolKind proto : {ProtocolKind::kTdi, ProtocolKind::kTag}) {
    ChaosPlan plan = base_plan();
    plan.events = {kill_on_delivery(1, 6),
                   kill_on_send(2, Kind::kResponse, 1)};
    const auto faulty = chaos::run_plan(plan, proto, true);
    EXPECT_EQ(clean_digest(plan, proto), faulty.digest)
        << "protocol " << to_string(proto);
    EXPECT_EQ(faulty.result.total.recoveries, 2u);
  }
}

TEST(Chaos, KillMidCheckpointFanOut) {
  // The image is saved before CHECKPOINT_ADVANCE notifications fan out, so
  // dying on the first advance send recovers from the checkpoint just taken.
  ChaosPlan plan = base_plan();
  plan.events = {kill_on_send(1, Kind::kCheckpointAdvance, 2)};
  const auto faulty = chaos::run_plan(plan, ProtocolKind::kTdi, true);
  EXPECT_EQ(clean_digest(plan, ProtocolKind::kTdi), faulty.digest);
  EXPECT_EQ(faulty.result.total.recoveries, 1u);
}

TEST(Chaos, HeldDownRestartStillConverges) {
  // revive_after_packets holds the incarnation's restart until the fabric
  // delivered that much further traffic — survivors run ahead before the
  // rollback lands.
  ChaosPlan plan = base_plan();
  plan.events = {kill_on_delivery(1, 6, /*revive_after=*/40)};
  const auto faulty = chaos::run_plan(plan, ProtocolKind::kTdi, true);
  EXPECT_EQ(clean_digest(plan, ProtocolKind::kTdi), faulty.digest);
  EXPECT_EQ(faulty.result.total.recoveries, 1u);
}

TEST(Chaos, DuplicatedAndDelayedControlPacketsAreHarmless) {
  // Control-plane shaping: duplicated ROLLBACKs and delayed RESPONSEs must
  // not corrupt recovery (duplicate RESPONSEs are idempotent, ROLLBACK
  // handling re-runs safely).
  ChaosPlan plan = base_plan();
  plan.events = {kill_on_delivery(1, 6),
                 duplicate_on_send(1, Kind::kRollback, 1, /*repeat=*/true),
                 delay_on_send(2, Kind::kResponse, 1, /*delay_us=*/2000)};
  const auto faulty = chaos::run_plan(plan, ProtocolKind::kTdi, true);
  EXPECT_EQ(clean_digest(plan, ProtocolKind::kTdi), faulty.digest);
  EXPECT_GE(faulty.result.chaos_triggers_fired, 2u);
}

TEST(Chaos, BackoffCapsRollbackRebroadcastsDuringLongOutage) {
  // Rank 2 stays down (held by revive_after) while rank 1 recovers; rank
  // 1's re-broadcasts must back off exponentially rather than fire at the
  // base interval for the whole outage.  Bound is generous: with base 1 ms
  // and cap 64 ms even a multi-second outage fits in ~40 rounds per
  // recovery, where a fixed 1 ms interval would take thousands.
  ChaosPlan plan = base_plan();
  plan.iterations = 20;
  plan.events = {kill_on_delivery(1, 6), kill_on_delivery(2, 6, 60)};
  JobConfig cfg = chaos::plan_config(plan, ProtocolKind::kTdi, true);
  cfg.rollback_retry = std::chrono::milliseconds(1);
  cfg.rollback_retry_cap = std::chrono::milliseconds(64);
  auto sum = std::make_shared<std::atomic<std::uint64_t>>(0);
  const JobResult result = run_job(cfg, [sum](Ctx& ctx) {
    (void)ctx;
    // Reuse the harness shape via run_plan for digest tests; here only the
    // broadcast accounting matters, so a minimal exchange suffices.
    const int n = ctx.size();
    const int right = (ctx.rank() + 1) % n;
    const int left = (ctx.rank() - 1 + n) % n;
    int start = 0;
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
    }
    for (int it = start; it < 20; ++it) {
      if (it > 0 && it % 3 == 0) {
        util::ByteWriter w;
        w.i32(it);
        ctx.checkpoint(w.view());
      }
      mp::send_value(ctx, right, 1, static_cast<std::uint64_t>(it));
      (void)mp::recv_value<std::uint64_t>(ctx, left, 1);
    }
    sum->fetch_add(1);
  });
  EXPECT_GE(result.total.recoveries, 2u);
  EXPECT_GE(result.total.rollback_broadcasts, 2u);
  EXPECT_LE(result.total.rollback_broadcasts,
            40u * result.total.recoveries);
}

TEST(Chaos, SurvivorsKeepSendingDuringPacedReplay) {
  // Survivor non-stop recovery under chaos: replay_burst=1 forces every
  // ROLLBACK answer through the paced-replay path (one logged resend per
  // periodic tick) while survivors keep sending fresh messages straight to
  // the recovering rank.  Convergence to the clean digest proves survivors
  // neither stalled their own traffic nor corrupted the replay stream; a
  // long checkpoint interval keeps the sender logs deep so the replay
  // window is wide.
  ChaosPlan plan = base_plan();
  plan.checkpoint_every = 1000;  // no log release: maximal replay depth
  plan.replay_burst = 1;
  plan.events = {kill_on_delivery(1, 20)};
  const auto faulty = chaos::run_plan(plan, ProtocolKind::kTdi, true);
  EXPECT_EQ(clean_digest(plan, ProtocolKind::kTdi), faulty.digest);
  EXPECT_EQ(faulty.result.total.recoveries, 1u);
  // The replay outlived one burst, so it went through the paced path.
  EXPECT_GT(faulty.result.total.resent_msgs, 1u);
  // Fresh sends that overtake the replay park in the recovering rank's
  // queue B.  A ring rank has one sender, which runs at most a replay
  // window ahead, so the queue stays within one message per iteration.
  EXPECT_LE(faulty.result.total.queue_b_peak,
            static_cast<std::uint64_t>(plan.iterations));
}

TEST(Chaos, PacedReplayOfSeed1239ConvergesEveryRun) {
  // Seed 1239 kills rank 0 twice and rank 3 at its third CHECKPOINT_ADVANCE
  // send, which can land while rank 3 serves rank 0's paced replay or after
  // rank 3's function returned.  The run hangs if a RESPONSE meant for a
  // dead incarnation closes its successor's gather, and diverges if the
  // harness counts the re-run rank's digest twice.  Both depend on timing,
  // hence the repeats.
  ChaosPlan plan = make_chaos_plan(1239);
  plan.replay_burst = 1;
  const std::uint64_t clean = clean_digest(plan, ProtocolKind::kTdi);
  for (int run = 0; run < 10; ++run) {
    const auto faulty = chaos::run_plan(plan, ProtocolKind::kTdi, true);
    EXPECT_EQ(clean, faulty.digest) << "run " << run;
  }
}

TEST(Chaos, ChaosRunsAcrossAllProtocols) {
  for (ProtocolKind proto :
       {ProtocolKind::kTdi, ProtocolKind::kTdiSparse, ProtocolKind::kTag,
        ProtocolKind::kTel, ProtocolKind::kPes}) {
    ChaosPlan plan = base_plan();
    plan.events = {kill_on_delivery(2, 7)};
    const auto faulty = chaos::run_plan(plan, proto, true);
    EXPECT_EQ(clean_digest(plan, proto), faulty.digest)
        << "protocol " << to_string(proto);
  }
}

TEST(Chaos, KillTargetMustBeARank) {
  JobConfig cfg;
  cfg.n = 2;
  cfg.chaos = {kill_on_delivery(5, 1)};
  EXPECT_DEATH(run_job(cfg, [](Ctx&) {}), "must be a rank");
}

}  // namespace
}  // namespace windar::ft
