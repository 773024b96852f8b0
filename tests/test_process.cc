// Process-level behaviour tests: duplicate filtering, FIFO gating under
// fabric reordering, eager vs rendezvous acks, suppression counters, and
// queue introspection — driven through small jobs where the invariant can be
// asserted from the metrics.
#include <gtest/gtest.h>

#include "mp/comm.h"
#include "windar/runtime.h"

namespace windar::ft {
namespace {

using mp::recv_value;
using mp::send_value;

JobConfig base(int n, SendMode mode = SendMode::kNonBlocking) {
  JobConfig c;
  c.n = n;
  c.protocol = ProtocolKind::kTdi;
  c.mode = mode;
  c.latency = net::LatencyModel::turbulent();
  c.restart_delay_ms = 5;
  return c;
}

TEST(Process, FifoPreservedUnderHeavyJitter) {
  // The fabric reorders aggressively; the recovery layer's per-pair FIFO
  // gate must still deliver in send order.
  auto cfg = base(2);
  cfg.latency.base = std::chrono::nanoseconds(1'000);
  cfg.latency.jitter = std::chrono::nanoseconds(300'000);
  run_job(cfg, [](Ctx& ctx) {
    constexpr int kN = 300;
    if (ctx.rank() == 0) {
      for (int i = 0; i < kN; ++i) send_value(ctx, 1, 1, i);
    } else {
      for (int i = 0; i < kN; ++i) {
        ASSERT_EQ(recv_value<int>(ctx, 0, 1), i);
      }
    }
  });
}

TEST(Process, LargePayloadRoundTrip) {
  run_job(base(2), [](Ctx& ctx) {
    std::vector<double> big(20'000);
    for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
    if (ctx.rank() == 0) {
      mp::send_vec<double>(ctx, 1, 0, big);
    } else {
      EXPECT_EQ(mp::recv_vec<double>(ctx, 0, 0), big);
    }
  });
}

TEST(Process, RendezvousAckOnlyOnConsumption) {
  // Blocking mode, payload above the eager threshold: the sender must stall
  // until the receiver's application actually recvs.
  auto cfg = base(2, SendMode::kBlocking);
  cfg.eager_threshold = 1024;
  auto result = run_job(cfg, [](Ctx& ctx) {
    std::vector<std::uint8_t> big(64 * 1024, 7);
    if (ctx.rank() == 0) {
      ctx.send(1, 0, big);
    } else {
      // Delay consumption; the sender's block time must cover this.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      (void)ctx.recv(0, 0);
    }
  });
  EXPECT_GE(result.total.send_block_ns, 15'000'000);  // >= 15 ms
}

TEST(Process, EagerAckReleasesQuickly) {
  auto cfg = base(2, SendMode::kBlocking);
  cfg.eager_threshold = 1 << 20;
  auto result = run_job(cfg, [](Ctx& ctx) {
    std::vector<std::uint8_t> small(512, 7);
    if (ctx.rank() == 0) {
      ctx.send(1, 0, small);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      (void)ctx.recv(0, 0);
    }
  });
  // Eager ack comes from the receiver layer (pumping peers) long before the
  // application consumes; but in blocking mode the receiver only pumps when
  // inside recv — so the ack arrives once the receiver enters recv.  Still,
  // the sender must complete well within the test.
  EXPECT_EQ(result.total.dup_dropped, 0u);
}

TEST(Process, SuppressionCountsDuringRollForward) {
  JobConfig cfg = base(2);
  // Kill rank 0 on its 15th delivery: past its checkpoint at i == 10, so
  // rolling forward re-executes sends rank 1 already delivered, however fast
  // or slow the host runs.
  cfg.chaos = {kill_on_delivery(0, 15)};
  auto result = run_job(cfg, [](Ctx& ctx) {
    const int peer = 1 - ctx.rank();
    int start = 0;
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
    }
    for (int i = start; i < 30; ++i) {
      if (i == 10 && ctx.rank() == 0) {
        util::ByteWriter w;
        w.i32(i);
        ctx.checkpoint(w.view());
      }
      send_value(ctx, peer, 0, i);
      (void)recv_value<int>(ctx, peer, 0);
      std::this_thread::sleep_for(std::chrono::microseconds(400));
    }
  });
  EXPECT_EQ(result.total.recoveries, 1u);
  // Rolling forward re-executes sends; some are suppressed (peer confirmed
  // delivery via RESPONSE) or arrive as duplicates and are discarded.
  EXPECT_GT(result.total.suppressed_sends + result.total.dup_dropped, 0u);
}

TEST(Process, ResendsCoverInFlightLoss) {
  // Kill the receiver at its 1000th of 2000 arrivals.  Never having
  // checkpointed, it restarts from scratch: everything it had received, and
  // whatever was still in flight, must be replayed from the sender log.
  JobConfig cfg = base(2);
  cfg.chaos = {kill_on_delivery(1, 1000)};
  auto result = run_job(cfg, [](Ctx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 2000; ++i) send_value(ctx, 1, 0, i);
    } else {
      long long sum = 0;
      for (int i = 0; i < 2000; ++i) sum += recv_value<int>(ctx, 0, 0);
      EXPECT_EQ(sum, 2000ll * 1999 / 2);
    }
  });
  EXPECT_EQ(result.total.recoveries, 1u);
  EXPECT_GT(result.total.resent_msgs, 0u);
}

TEST(Process, DeliveredTotalMatchesMetrics) {
  auto cfg = base(3);
  run_job(cfg, [](Ctx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i) (void)ctx.recv();
      EXPECT_EQ(ctx.process().delivered_total(), 5u);
      EXPECT_EQ(ctx.process().receive_queue_depth(), 0u);
    } else {
      for (int i = 0; i < 2; ++i) send_value(ctx, 0, 0, i);
      if (ctx.rank() == 1) send_value(ctx, 0, 0, 9);
    }
  });
}

TEST(Process, TagFilterHoldsUnrelatedMessages) {
  run_job(base(2), [](Ctx& ctx) {
    if (ctx.rank() == 0) {
      send_value(ctx, 1, 5, 55);
      send_value(ctx, 1, 6, 66);
    } else {
      // Consume in send order but match by tag explicitly.
      EXPECT_EQ(recv_value<int>(ctx, 0, 5), 55);
      EXPECT_EQ(recv_value<int>(ctx, 0, 6), 66);
    }
  });
}

TEST(Process, ManyRanksStress) {
  auto cfg = base(12);
  cfg.latency = net::LatencyModel::turbulent();
  auto result = run_job(cfg, [](Ctx& ctx) {
    const int n = ctx.size();
    // All-to-all twice.
    for (int round = 0; round < 2; ++round) {
      for (int d = 0; d < n; ++d) {
        if (d != ctx.rank()) send_value(ctx, d, round, ctx.rank());
      }
      int seen = 0;
      for (int i = 0; i < n - 1; ++i) {
        (void)ctx.recv(mp::kAnySource, round);
        ++seen;
      }
      EXPECT_EQ(seen, n - 1);
    }
  });
  EXPECT_EQ(result.total.app_sent, 12u * 11u * 2u);
  EXPECT_EQ(result.total.app_delivered, 12u * 11u * 2u);
}

TEST(Process, CheckpointIncludesLogAndCounters) {
  JobConfig cfg = base(2);
  // Commit the checkpoint on the application thread and kill rank 0 on its
  // 15th delivery: always after the committed checkpoint at i == 10, so the
  // incarnation restores it however fast or slow the host runs.
  cfg.ckpt_async = 0;
  cfg.chaos = {kill_on_delivery(0, 15)};
  // Rank 0 checkpoints BETWEEN its sends; after recovery, the pre-checkpoint
  // sends must not be replayed to rank 1 (they were delivered and their
  // indices are in the restored last_send counters).
  auto result = run_job(cfg, [](Ctx& ctx) {
    if (ctx.rank() == 0) {
      int start = 0;
      if (ctx.restored()) {
        util::ByteReader r(*ctx.restored());
        start = r.i32();
      }
      for (int i = start; i < 20; ++i) {
        // Checkpoint once, on whichever execution first reaches i == 10: if
        // the fault lands after the checkpoint the incarnation restarts at
        // start == 10 and must not checkpoint again, and if it lands before,
        // the restart-from-scratch run takes the one checkpoint itself.
        if (i == 10 && !ctx.restored()) {
          util::ByteWriter w;
          w.i32(i);
          ctx.checkpoint(w.view());
        }
        send_value(ctx, 1, 0, i);
        (void)recv_value<int>(ctx, 1, 0);  // echo keeps the pair in lockstep
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    } else {
      for (int i = 0; i < 20; ++i) {
        const int v = recv_value<int>(ctx, 0, 0);
        EXPECT_EQ(v, i);
        send_value(ctx, 0, 0, v);
      }
    }
  });
  EXPECT_EQ(result.total.recoveries, 1u);
  EXPECT_EQ(result.total.checkpoints, 1u);
}

}  // namespace
}  // namespace windar::ft
