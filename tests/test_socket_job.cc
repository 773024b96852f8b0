// End-to-end tests for the multi-process socket transport path
// (windar/launcher.h): real fork/exec'd worker processes over Unix-domain
// sockets, real SIGKILLs, recovery from disk checkpoints.
//
// This binary owns main(): the launcher re-execs it as each per-rank worker
// (is_worker_invocation branches before gtest ever runs), so it links
// GTest::gtest without gtest_main.
//
// Every test compares the multi-process digest against the in-process
// simulated digest for the same ring workload — the digest is a pure
// function of the delivered values, so equality certifies no lost, no
// duplicated, and no mis-ordered delivery across the process boundary.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "chaos_app.h"
#include "util/parse.h"
#include "windar/launcher.h"

namespace windar::ft {
namespace {

constexpr int kIters = 12;
constexpr int kCkpt = 4;

/// The failure-free expected digest, computed in one address space.
std::uint64_t sim_digest(int n, ProtocolKind proto) {
  JobConfig cfg;
  cfg.n = n;
  cfg.protocol = proto;
  cfg.mode = SendMode::kNonBlocking;
  auto sum = std::make_shared<std::atomic<std::uint64_t>>(0);
  run_job(cfg, [sum](Ctx& ctx) {
    sum->fetch_add(chaos::ring_digest_rank(ctx, kIters, kCkpt) %
                   1000000007ull);
  });
  return sum->load();
}

LaunchSpec base_spec(int n, ProtocolKind proto) {
  LaunchSpec spec;
  spec.job.n = n;
  spec.job.protocol = proto;
  spec.job.mode = SendMode::kNonBlocking;
  spec.job.restart_delay_ms = 2;
  spec.worker_args = {"--iters=" + std::to_string(kIters),
                      "--ckpt=" + std::to_string(kCkpt)};
  spec.timeout_ms = 60000;
  return spec;
}

TEST(SocketJob, CleanJobMatchesSimDigest) {
  const LaunchSpec spec = base_spec(4, ProtocolKind::kTdi);
  const MultiProcResult r = run_multiproc_job(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.digest, sim_digest(4, ProtocolKind::kTdi));
  EXPECT_EQ(r.recoveries, 0u);
  EXPECT_EQ(r.rank_digest.size(), 4u);
}

TEST(SocketJob, CleanJobFabricStatsBalance) {
  const LaunchSpec spec = base_spec(4, ProtocolKind::kTdi);
  const MultiProcResult r = run_multiproc_job(spec);
  ASSERT_TRUE(r.ok) << r.error;
  // Merged across all worker incarnations of a fault-free job, every packet
  // sent over the sockets must be accounted for — same invariant the
  // in-process Fabric maintains.
  EXPECT_TRUE(r.fabric.accounted()) << "sent=" << r.fabric.packets_sent
                                    << " delivered="
                                    << r.fabric.packets_delivered;
  EXPECT_EQ(r.fabric.frame_errors, 0u);
  EXPECT_GT(r.app_sent, 0u);
}

TEST(SocketJob, ExternalSigkillConverges) {
  // Rank 2's 5th app delivery names rank 1 as the victim: rank 2 reports
  // the kill and the launcher SIGKILLs rank 1 from outside, wherever that
  // process happens to be in the ring.
  LaunchSpec spec = base_spec(4, ProtocolKind::kTdi);
  net::ChaosEvent ev = kill_on_delivery(2, 5);
  ev.target = 1;
  spec.job.chaos = {ev};
  const MultiProcResult r = run_multiproc_job(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.digest, sim_digest(4, ProtocolKind::kTdi));
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_GT(r.checkpoints, 0u);
}

TEST(SocketJob, ChaosDeliveryKillConverges) {
  LaunchSpec spec = base_spec(4, ProtocolKind::kTag);
  net::ChaosEvent ev;
  ev.when = net::ChaosEvent::When::kDeliver;
  ev.action = net::ChaosEvent::Action::kKill;
  ev.endpoint = 2;
  ev.kind = static_cast<std::uint16_t>(Kind::kApp);
  ev.nth = 5;  // SIGKILL rank 2 in its reader thread at its 5th app delivery
  spec.job.chaos = {ev};
  const MultiProcResult r = run_multiproc_job(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.digest, sim_digest(4, ProtocolKind::kTag));
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_GE(r.chaos_triggers_fired, 1u);
}

TEST(SocketJob, ChaosSendKillConvergesWithEventLogger) {
  LaunchSpec spec = base_spec(4, ProtocolKind::kTel);
  net::ChaosEvent ev;
  ev.when = net::ChaosEvent::When::kSend;
  ev.action = net::ChaosEvent::Action::kKill;
  ev.endpoint = 0;
  ev.kind = static_cast<std::uint16_t>(Kind::kApp);
  ev.nth = 3;  // SIGKILL rank 0 mid-send of its 3rd app packet
  spec.job.chaos = {ev};
  const MultiProcResult r = run_multiproc_job(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.digest, sim_digest(4, ProtocolKind::kTel));
  EXPECT_GE(r.recoveries, 1u);
  // TEL routes determinants through the launcher-hosted event logger.
  EXPECT_GT(r.logger.batches, 0u);
}

TEST(SocketJob, ForwardedCheckpointAndReplayKnobsConverge) {
  // Synchronous commits, a short delta chain and tight survivor replay
  // pacing all reach the workers; recovery under them still converges.
  LaunchSpec spec = base_spec(4, ProtocolKind::kTdi);
  spec.job.ckpt_async = 0;
  spec.job.ckpt_delta_anchor = 2;
  spec.job.replay_burst = 2;
  spec.job.chaos = {kill_on_delivery(2, 6)};
  const MultiProcResult r = run_multiproc_job(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.digest, sim_digest(4, ProtocolKind::kTdi));
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_EQ(r.config.ckpt_async, 0);
  EXPECT_EQ(r.config.ckpt_delta_anchor, 2u);
}

TEST(SocketJob, OverlappingKillsConverge) {
  LaunchSpec spec = base_spec(5, ProtocolKind::kTdi);
  // Two ranks die at the same protocol point (their 5th app delivery), so
  // both kills fire mid-job however fast the host runs the ring.
  spec.job.chaos = {kill_on_delivery(1, 5), kill_on_delivery(3, 5)};
  const MultiProcResult r = run_multiproc_job(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.digest, sim_digest(5, ProtocolKind::kTdi));
  EXPECT_GE(r.recoveries, 2u);
}

}  // namespace
}  // namespace windar::ft

int main(int argc, char** argv) {
  if (windar::ft::WorkerConfig::is_worker_invocation(argc, argv)) {
    const windar::ft::WorkerConfig cfg =
        windar::ft::WorkerConfig::parse(argc, argv);
    int iters = 12;
    int ckpt = 4;
    for (const std::string& a : cfg.app_args) {
      using windar::util::parse_number;
      if (a.rfind("--iters=", 0) == 0) {
        iters = parse_number<int>(a.substr(8), "--iters");
      }
      if (a.rfind("--ckpt=", 0) == 0) {
        ckpt = parse_number<int>(a.substr(7), "--ckpt");
      }
    }
    return windar::ft::run_worker(cfg, [iters, ckpt](windar::ft::Ctx& ctx) {
      return windar::ft::chaos::ring_digest_rank(ctx, iters, ckpt);
    });
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
