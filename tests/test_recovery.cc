// Recovery integration tests: inject faults and verify the paper's
// correctness obligations — no lost message, no duplicate delivery, no
// orphan (dependency gate respected), and bit-identical application outcomes
// versus failure-free runs.
//
// Faults are event-keyed (kill_on_delivery: "kill rank R on its Kth app
// delivery") rather than wall-clock, so each scenario lands at the same
// protocol-relative point on any host speed; test_recovery_edge.cc keeps
// wall-clock schedules covered.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

#include "mp/collectives.h"
#include "rank_results.h"
#include "windar/fault.h"
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
  c.restart_delay_ms = 5;
  return c;
}

// An iterative neighbour-exchange app with per-iteration checkpoints and a
// deterministic running digest.  Any lost/duplicated/mis-ordered delivery
// changes the digest.
struct ExchangeApp {
  int iterations = 30;
  int checkpoint_every = 5;
  // Milliseconds of fake compute per iteration to give the injector a window.
  int compute_us = 300;

  std::uint64_t operator()(Ctx& ctx) const {
    const int n = ctx.size();
    const int me = ctx.rank();
    const int right = (me + 1) % n;
    const int left = (me - 1 + n) % n;

    int start = 0;
    std::uint64_t digest = 0x9E37 + static_cast<std::uint64_t>(me);
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
      digest = r.u64();
    }
    for (int it = start; it < iterations; ++it) {
      if (checkpoint_every > 0 && it > 0 && it % checkpoint_every == 0) {
        util::ByteWriter w;
        w.i32(it);
        w.u64(digest);
        ctx.checkpoint(w.view());
      }
      send_value(ctx, right, 1, digest ^ static_cast<std::uint64_t>(it));
      const auto from_left = recv_value<std::uint64_t>(ctx, left, 1);
      digest = digest * 1099511628211ull + from_left + static_cast<std::uint64_t>(it);
      std::this_thread::sleep_for(std::chrono::microseconds(compute_us));
    }
    return digest;
  }
};

/// Runs the exchange app and sums every rank's digest into a single job
/// outcome value (order-insensitive but value-sensitive).
double run_exchange(const JobConfig& cfg, const ExchangeApp& app) {
  auto digests = std::make_shared<RankResults<std::uint64_t>>(cfg.n);
  run_job(cfg, [&app, digests](Ctx& ctx) {
    digests->set(ctx.rank(), app(ctx) % 1000000007ull);
  });
  return static_cast<double>(digests->sum());
}

class RecoveryMatrix
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, SendMode>> {};

TEST_P(RecoveryMatrix, SingleFaultSameOutcome) {
  auto [proto, mode] = GetParam();
  ExchangeApp app;
  const double clean = run_exchange(config(4, proto, mode), app);

  JobConfig faulty = config(4, proto, mode);
  faulty.chaos = {kill_on_delivery(1, 8)};
  const double recovered = run_exchange(faulty, app);
  EXPECT_EQ(clean, recovered);
}

TEST_P(RecoveryMatrix, FaultBeforeFirstCheckpointRestartsFromScratch) {
  auto [proto, mode] = GetParam();
  ExchangeApp app;
  app.iterations = 12;
  app.checkpoint_every = 0;  // never checkpoint: recovery = full restart
  const double clean = run_exchange(config(3, proto, mode), app);
  JobConfig faulty = config(3, proto, mode);
  faulty.chaos = {kill_on_delivery(2, 3)};
  EXPECT_EQ(clean, run_exchange(faulty, app));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RecoveryMatrix,
    ::testing::Combine(::testing::Values(ProtocolKind::kTdi,
                                         ProtocolKind::kTdiSparse,
                                         ProtocolKind::kTag,
                                         ProtocolKind::kTel,
                                         ProtocolKind::kPes),
                       ::testing::Values(SendMode::kBlocking,
                                         SendMode::kNonBlocking)),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param)) + "_" +
                         to_string(std::get<1>(param_info.param));
      // gtest parameter names must be alphanumeric.
      std::erase(name, '-');
      return name;
    });

TEST(Recovery, RecoveryMetricsReported) {
  ExchangeApp app;
  // Checkpoint every iteration so a checkpoint exists before the 8 ms fault
  // even when instrumentation (e.g. TSan) slows iteration progress; the
  // loads > 0 assertion below depends on it.
  app.checkpoint_every = 1;
  JobConfig cfg = config(4, ProtocolKind::kTdi, SendMode::kNonBlocking);
  cfg.chaos = {kill_on_delivery(1, 8)};
  auto result = run_job(cfg, [&app](Ctx& ctx) { (void)app(ctx); });
  EXPECT_EQ(result.total.recoveries, 1u);
  EXPECT_GT(result.total.resent_msgs + result.total.dup_dropped +
                result.total.suppressed_sends,
            0u);
  EXPECT_GT(result.checkpoints.loads, 0u);
}

TEST(Recovery, TwoSequentialFaultsSameRank) {
  ExchangeApp app;
  app.iterations = 40;
  const double clean =
      run_exchange(config(3, ProtocolKind::kTdi, SendMode::kNonBlocking), app);
  JobConfig faulty = config(3, ProtocolKind::kTdi, SendMode::kNonBlocking);
  faulty.chaos = {kill_on_delivery(1, 6), kill_on_delivery(1, 25)};
  EXPECT_EQ(clean, run_exchange(faulty, app));
}

TEST(Recovery, FaultsOnDifferentRanks) {
  ExchangeApp app;
  app.iterations = 40;
  const double clean =
      run_exchange(config(4, ProtocolKind::kTdi, SendMode::kNonBlocking), app);
  JobConfig faulty = config(4, ProtocolKind::kTdi, SendMode::kNonBlocking);
  faulty.chaos = {kill_on_delivery(0, 6), kill_on_delivery(2, 20)};
  EXPECT_EQ(clean, run_exchange(faulty, app));
}

TEST(Recovery, SimultaneousFaults) {
  // Paper §III.D / Fig. 2: multiple simultaneous failures; lost logs are
  // regenerated during the failed processes' rolling forward.
  ExchangeApp app;
  app.iterations = 30;
  for (ProtocolKind proto :
       {ProtocolKind::kTdi, ProtocolKind::kTag, ProtocolKind::kTel}) {
    const double clean =
        run_exchange(config(4, proto, SendMode::kNonBlocking), app);
    JobConfig faulty = config(4, proto, SendMode::kNonBlocking);
    faulty.chaos = {kill_on_delivery(1, 8), kill_on_delivery(2, 8)};
    EXPECT_EQ(clean, run_exchange(faulty, app))
        << "protocol " << to_string(proto);
  }
}

TEST(Recovery, AnySourceNondeterminismStaysCorrectUnderTdi) {
  // The paper's §II.C observation: ANY_SOURCE delivery order must not affect
  // the outcome; TDI replays independent messages in arrival order and the
  // commutative reduction still gets the right answer.
  auto total = std::make_shared<std::atomic<long long>>(0);
  JobConfig cfg = config(5, ProtocolKind::kTdi, SendMode::kNonBlocking);
  // Kill rank 0 on its 25th delivery: one past the checkpoint it takes at
  // round rounds/2 (24 worker messages delivered by then).
  cfg.chaos = {kill_on_delivery(0, 25)};
  run_job(cfg, [total](Ctx& ctx) {
    const int rounds = 12;
    if (ctx.rank() == 0) {
      long long sum = 0;
      int start = 0;
      // Resume from the checkpoint: channel state restores alongside the app
      // blob, so restarting the loop at round 0 would wait forever for the
      // rounds the restored watermarks already cover.
      if (ctx.restored()) {
        util::ByteReader r(*ctx.restored());
        sum = r.i64();
        start = r.i32();
      }
      for (int round = start; round < rounds; ++round) {
        if (round == rounds / 2) {
          util::ByteWriter w;
          w.i64(sum);
          w.i32(round);
          ctx.checkpoint(w.view());
        }
        for (int i = 1; i < ctx.size(); ++i) {
          sum += recv_value<int>(ctx);  // ANY_SOURCE
        }
      }
      total->store(sum);
    } else {
      int start = 0;
      if (ctx.restored()) start = 0;  // workers are stateless; resend all
      for (int round = start; round < rounds; ++round) {
        send_value(ctx, 0, 1, ctx.rank() * 10 + round);
      }
    }
  });
  // Expected: sum over rounds, workers of (rank*10 + round).
  long long expect = 0;
  for (int round = 0; round < 12; ++round) {
    for (int r = 1; r < 5; ++r) expect += r * 10 + round;
  }
  EXPECT_EQ(total->load(), expect);
}

TEST(Recovery, SurvivorLogsServeRecoveryAfterCompletion) {
  // Rank 1 fails late; rank 0 may already be finished and parked — its
  // Process must still serve the ROLLBACK.
  ExchangeApp app;
  app.iterations = 20;
  const double clean =
      run_exchange(config(2, ProtocolKind::kTdi, SendMode::kNonBlocking), app);
  JobConfig faulty = config(2, ProtocolKind::kTdi, SendMode::kNonBlocking);
  faulty.chaos = {kill_on_delivery(1, 19)};
  EXPECT_EQ(clean, run_exchange(faulty, app));
}

TEST(Recovery, CheckpointSpillToDisk) {
  ExchangeApp app;
  JobConfig cfg = config(3, ProtocolKind::kTdi, SendMode::kNonBlocking);
  // PID-unique dir: ctest registers this binary twice (plain and
  // _logger_shards4) and runs both concurrently under -j; a shared dir
  // lets one process delete or clobber the other's checkpoints mid-write
  // (rename CHECK-aborts, or recovery restores a foreign image and hangs).
  const std::string dir =
      "/tmp/windar_test_recovery_spill." + std::to_string(::getpid());
  cfg.checkpoint_spill_dir = dir;
  cfg.chaos = {kill_on_delivery(1, 8)};
  const double clean =
      run_exchange(config(3, ProtocolKind::kTdi, SendMode::kNonBlocking), app);
  EXPECT_EQ(clean, run_exchange(cfg, app));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace windar::ft
