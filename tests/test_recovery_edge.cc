// Edge-case recovery tests: faults interacting with collectives, blocked
// senders, rendezvous transfers, and the TEL determinant-gather path.
#include <gtest/gtest.h>

#include <atomic>

#include "mp/collectives.h"
#include "rank_results.h"
#include "util/wait.h"
#include "windar/runtime.h"

namespace windar::ft {
namespace {

using mp::recv_value;
using mp::send_value;

JobConfig base(int n, ProtocolKind proto = ProtocolKind::kTdi,
               SendMode mode = SendMode::kNonBlocking) {
  JobConfig c;
  c.n = n;
  c.protocol = proto;
  c.mode = mode;
  c.latency = net::LatencyModel::turbulent();
  c.restart_delay_ms = 4;
  return c;
}

TEST(RecoveryEdge, FaultDuringAllreduceSeries) {
  // Collectives are plain logged traffic; killing the tree root mid-series
  // must not change any reduction result.
  auto sums = std::make_shared<std::atomic<long long>>(0);
  JobConfig cfg = base(5);
  // The root receives two packets per round (50 in all): its 30th lands in
  // round 15, past the round-8 checkpoint.
  cfg.chaos = {kill_on_delivery(0, 30)};
  const JobResult result = run_job(cfg, [sums](Ctx& ctx) {
    mp::Coll coll(ctx);
    int start = 0;
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
      coll.reset_seq(r.u32());
    }
    long long acc = 0;
    for (int round = start; round < 25; ++round) {
      if (round > 0 && round % 8 == 0) {
        util::ByteWriter w;
        w.i32(round);
        w.u32(coll.seq());
        ctx.checkpoint(w.view());
      }
      const double contrib[1] = {static_cast<double>(ctx.rank() + round)};
      const auto total = coll.allreduce_sum(contrib);
      // n*(n-1)/2 + n*round for n = 5
      EXPECT_DOUBLE_EQ(total[0], 10.0 + 5.0 * round) << "round " << round;
      acc += static_cast<long long>(total[0]);
    }
    if (ctx.rank() == 1) sums->store(acc);
  });
  long long expect = 0;
  for (int round = 0; round < 25; ++round) expect += 10 + 5 * round;
  EXPECT_EQ(sums->load(), expect);
  EXPECT_EQ(result.total.recoveries, 1u);
}

TEST(RecoveryEdge, KillAfterLastEngineCallStillRecovers) {
  // Rank 0 is killed after its last engine call, while it computes before
  // returning: nothing inside its rank function observes the kill, so the
  // function returns normally.  The supervisor must still recover it.
  // Counting the rank done instead loses the kill when it finishes last (as
  // here), and strands its next incarnation when a peer finishes after it:
  // that peer sees the job done and leaves before sending its RESPONSE.
  JobConfig cfg = base(2);
  // No jitter, so the farewell cannot overtake the last echo: rank 0's
  // endpoint receives 6 echoes, then the farewell, which is the kill.
  cfg.latency = net::LatencyModel::deterministic(
      std::chrono::nanoseconds(1'000), std::chrono::nanoseconds(0));
  cfg.chaos = {kill_on_delivery(0, 7)};
  const JobResult result = run_job(cfg, [](Ctx& ctx) {
    const int peer = 1 - ctx.rank();
    int start = 0;
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
    }
    for (int i = start; i < 6; ++i) {
      if (ctx.rank() == 0) {
        if (i == 2 && !ctx.restored()) {
          util::ByteWriter w;
          w.i32(i);
          ctx.checkpoint(w.view());
        }
        send_value(ctx, peer, 0, i);
        EXPECT_EQ(recv_value<int>(ctx, peer, 0), i);
      } else {
        send_value(ctx, peer, 0, recv_value<int>(ctx, peer, 0));
      }
    }
    if (ctx.rank() == 0) {
      // Local work after the last exchange; the farewell arrives meanwhile.
      util::coop_sleep_for(std::chrono::milliseconds(30));
    } else if (!ctx.restored()) {
      // Let rank 0 get past its last receive before the farewell kills it.
      util::coop_sleep_for(std::chrono::milliseconds(5));
      send_value(ctx, peer, 1, -1);  // farewell, never received
    }
  });
  EXPECT_EQ(result.total.recoveries, 1u);
}

TEST(RecoveryEdge, BlockedSenderSurvivesReceiverDeath) {
  // The Fig. 8 mechanism in isolation: a blocking-mode sender is stalled on
  // a rendezvous transfer when the receiver dies; the ROLLBACK-driven
  // resend must eventually complete the send.
  JobConfig cfg = base(2, ProtocolKind::kTdi, SendMode::kBlocking);
  cfg.eager_threshold = 256;        // force rendezvous
  cfg.chaos = {kill_on_delivery(1, 3)};
  auto result = run_job(cfg, [](Ctx& ctx) {
    std::vector<std::uint8_t> big(32 * 1024, 0xAA);
    if (ctx.rank() == 0) {
      for (int i = 0; i < 6; ++i) ctx.send(1, 0, big);
    } else {
      for (int i = 0; i < 6; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        auto m = ctx.recv(0, 0);
        ASSERT_EQ(m.payload.size(), big.size());
      }
    }
  });
  EXPECT_EQ(result.total.recoveries, 1u);
  EXPECT_GT(result.total.send_block_ns, 0);
}

TEST(RecoveryEdge, TelGathersStableDeterminantsFromLogger) {
  // Build a long delivery history, give the logger time to absorb it, then
  // kill the rank: the replay table must come (mostly) from the TelQuery.
  JobConfig cfg = base(3, ProtocolKind::kTel);
  cfg.chaos = {kill_on_delivery(0, 60)};  // iteration 30 of 40
  auto out = std::make_shared<std::atomic<long long>>(0);
  const JobResult result = run_job(cfg, [out](Ctx& ctx) {
    if (ctx.rank() == 0) {
      long long acc = 0;
      int start = 0;
      if (ctx.restored()) {
        util::ByteReader r(*ctx.restored());
        start = r.i32();
        acc = r.i64();
      }
      for (int i = start; i < 40; ++i) {
        if (i == 12) {
          util::ByteWriter w;
          w.i32(i);
          w.i64(acc);
          ctx.checkpoint(w.view());
        }
        // Two independent producers, ANY_SOURCE: order matters to the
        // digest only through the commutative sum.
        acc += recv_value<int>(ctx) + recv_value<int>(ctx);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
      out->store(acc);
    } else {
      for (int i = 0; i < 40; ++i) {
        send_value(ctx, 0, 1, ctx.rank() * 100 + i);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    }
  });
  long long expect = 0;
  for (int i = 0; i < 40; ++i) expect += 100 + i + 200 + i;
  EXPECT_EQ(out->load(), expect);
  EXPECT_EQ(result.total.recoveries, 1u);
}

TEST(RecoveryEdge, ZeroEagerThresholdStillCompletes) {
  JobConfig cfg = base(2, ProtocolKind::kTdi, SendMode::kBlocking);
  cfg.eager_threshold = 0;  // every transfer is rendezvous
  run_job(cfg, [](Ctx& ctx) {
    const int peer = 1 - ctx.rank();
    for (int i = 0; i < 10; ++i) {
      if (ctx.rank() == 0) {
        send_value(ctx, peer, 0, i);
        EXPECT_EQ(recv_value<int>(ctx, peer, 0), i);
      } else {
        EXPECT_EQ(recv_value<int>(ctx, peer, 0), i);
        send_value(ctx, peer, 0, i);
      }
    }
  });
}

TEST(RecoveryEdge, FaultStormAllProtocols) {
  // Three staggered faults on three different ranks.
  for (auto proto : {ProtocolKind::kTdi, ProtocolKind::kTag,
                     ProtocolKind::kTel}) {
    std::uint64_t recoveries = 0;
    auto run = [&](std::vector<net::ChaosEvent> chaos) {
      JobConfig cfg = base(4, proto);
      cfg.chaos = std::move(chaos);
      auto digests = std::make_shared<RankResults<std::uint64_t>>(cfg.n);
      recoveries = run_job(cfg, [digests](Ctx& ctx) {
        const int n = ctx.size();
        std::uint64_t h = 7 + static_cast<std::uint64_t>(ctx.rank());
        int start = 0;
        if (ctx.restored()) {
          util::ByteReader r(*ctx.restored());
          start = r.i32();
          h = r.u64();
        }
        for (int i = start; i < 35; ++i) {
          if (i > 0 && i % 7 == 0) {
            util::ByteWriter w;
            w.i32(i);
            w.u64(h);
            ctx.checkpoint(w.view());
          }
          send_value(ctx, (ctx.rank() + 1) % n, 0, h);
          h = h * 31 + recv_value<std::uint64_t>(ctx, (ctx.rank() + n - 1) % n, 0);
        }
        digests->set(ctx.rank(), h % 1000003);
      }).total.recoveries;
      return digests->sum();
    };
    const std::uint64_t clean = run({});
    // One ring delivery per rank per iteration: iterations 8, 16 and 26.
    const std::uint64_t faulted =
        run({kill_on_delivery(1, 8), kill_on_delivery(3, 16),
             kill_on_delivery(2, 26)});
    EXPECT_EQ(clean, faulted) << to_string(proto);
    EXPECT_EQ(recoveries, 3u) << to_string(proto);
  }
}

}  // namespace
}  // namespace windar::ft
