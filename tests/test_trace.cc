// Tests for the causal-event trace recorder and the offline invariant
// validator — including end-to-end traces from real jobs with faults, for
// all three protocols.
#include <gtest/gtest.h>

#include "mp/comm.h"
#include "windar/runtime.h"
#include "windar/trace.h"

namespace windar::ft {
namespace {

using mp::recv_value;
using mp::send_value;

TraceEvent deliver(int rank, std::uint32_t inc, int peer, SeqNo idx,
                   SeqNo seq, SeqNo dep = 0) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kDeliver;
  e.rank = rank;
  e.incarnation = inc;
  e.peer = peer;
  e.pair_index = idx;
  e.deliver_seq = seq;
  e.depend_self = dep;
  return e;
}

TEST(TraceValidator, AcceptsCleanSequence) {
  std::vector<TraceEvent> tr{
      deliver(0, 0, 1, 1, 1),
      deliver(0, 0, 2, 1, 2),
      deliver(0, 0, 1, 2, 3),
  };
  const auto verdict = validate_trace(tr, 3);
  EXPECT_TRUE(verdict.ok()) << verdict.violations[0];
  EXPECT_EQ(verdict.deliveries_checked, 3u);
}

TEST(TraceValidator, DetectsFifoViolation) {
  std::vector<TraceEvent> tr{
      deliver(0, 0, 1, 2, 1),  // idx 2 before idx 1
  };
  const auto verdict = validate_trace(tr, 2);
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.violations[0].find("FIFO"), std::string::npos);
}

TEST(TraceValidator, DetectsDuplicateDelivery) {
  std::vector<TraceEvent> tr{
      deliver(0, 0, 1, 1, 1),
      deliver(0, 0, 1, 1, 2),  // same pair index twice
  };
  EXPECT_FALSE(validate_trace(tr, 2).ok());
}

TEST(TraceValidator, DetectsOrphan) {
  // Delivery #1 claims to depend on 3 prior local deliveries.
  std::vector<TraceEvent> tr{deliver(0, 0, 1, 1, 1, /*dep=*/3)};
  const auto verdict = validate_trace(tr, 2);
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.violations[0].find("gate"), std::string::npos);
}

TEST(TraceValidator, DetectsOrderGap) {
  std::vector<TraceEvent> tr{
      deliver(0, 0, 1, 1, 1),
      deliver(0, 0, 1, 2, 3),  // deliver_seq jumps 1 -> 3
  };
  const auto verdict = validate_trace(tr, 2);
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.violations[0].find("order"), std::string::npos);
}

TEST(TraceValidator, ContinuityAcrossIncarnation) {
  TraceEvent rec;
  rec.kind = TraceEvent::Kind::kRecover;
  rec.rank = 0;
  rec.incarnation = 1;
  rec.deliver_seq = 2;                // restored delivered_total
  rec.restored_deliver = {0, 2};      // had delivered idx 1..2 from rank 1
  std::vector<TraceEvent> good{rec, deliver(0, 1, 1, 3, 3)};
  EXPECT_TRUE(validate_trace(good, 2).ok());

  std::vector<TraceEvent> bad{rec, deliver(0, 1, 1, 2, 3)};  // repeats idx 2
  EXPECT_FALSE(validate_trace(bad, 2).ok());

  std::vector<TraceEvent> gap{rec, deliver(0, 1, 1, 4, 3)};  // skips idx 3
  EXPECT_FALSE(validate_trace(gap, 2).ok());
}

TEST(TraceValidator, RejectsBadRanks) {
  std::vector<TraceEvent> tr{deliver(7, 0, 1, 1, 1)};
  EXPECT_FALSE(validate_trace(tr, 2).ok());
  std::vector<TraceEvent> tr2{deliver(0, 0, 9, 1, 1)};
  EXPECT_FALSE(validate_trace(tr2, 2).ok());
}

TEST(TraceSinkBasics, RecordSnapshotDumpClear) {
  TraceSink sink;
  sink.record(deliver(0, 0, 1, 1, 1));
  TraceEvent s;
  s.kind = TraceEvent::Kind::kSend;
  s.rank = 1;
  s.peer = 0;
  s.pair_index = 1;
  sink.record(s);
  EXPECT_EQ(sink.size(), 2u);
  const std::string text = sink.dump();
  EXPECT_NE(text.find("deliver"), std::string::npos);
  EXPECT_NE(text.find("send"), std::string::npos);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

// ---- end-to-end: real jobs must produce valid traces ----

class TracedJobs : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(TracedJobs, FaultyJobTraceValidates) {
  TraceSink sink;
  JobConfig cfg;
  cfg.n = 4;
  cfg.protocol = GetParam();
  cfg.latency = net::LatencyModel::turbulent();
  cfg.restart_delay_ms = 4;
  cfg.trace = &sink;
  // Simultaneous pair failure: rank 1's 12th delivery kills ranks 1 and 2.
  net::ChaosEvent partner = kill_on_delivery(1, 12);
  partner.target = 2;
  cfg.chaos = {kill_on_delivery(1, 12), partner};
  const JobResult result = run_job(cfg, [](Ctx& ctx) {
    const int n = ctx.size();
    int start = 0;
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
    }
    for (int i = start; i < 25; ++i) {
      if (i > 0 && i % 8 == 0) {
        util::ByteWriter w;
        w.i32(i);
        ctx.checkpoint(w.view());
      }
      send_value(ctx, (ctx.rank() + 1) % n, 0, i);
      (void)recv_value<int>(ctx, (ctx.rank() + n - 1) % n, 0);
    }
  });
  EXPECT_EQ(result.total.recoveries, 2u);
  const auto verdict = validate_trace(sink.snapshot(), cfg.n);
  EXPECT_TRUE(verdict.ok())
      << verdict.violations[0] << " (of " << verdict.violations.size() << ")";
  EXPECT_GT(verdict.deliveries_checked, 0u);
  EXPECT_GT(verdict.sends_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, TracedJobs,
                         ::testing::Values(ProtocolKind::kTdi,
                                           ProtocolKind::kTag,
                                           ProtocolKind::kTel),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST(TracedJobs, TdiGateValuesAreRecorded) {
  // In a causally chained ring, later deliveries must declare non-zero
  // dependencies on the receiver — proves depend_on_receiver plumbing works.
  TraceSink sink;
  JobConfig cfg;
  cfg.n = 3;
  cfg.protocol = ProtocolKind::kTdi;
  cfg.latency = net::LatencyModel::turbulent();
  cfg.trace = &sink;
  run_job(cfg, [](Ctx& ctx) {
    const int n = ctx.size();
    for (int i = 0; i < 6; ++i) {
      send_value(ctx, (ctx.rank() + 1) % n, 0, i);
      (void)recv_value<int>(ctx, (ctx.rank() + n - 1) % n, 0);
    }
  });
  bool nonzero_dep = false;
  for (const auto& e : sink.snapshot()) {
    if (e.kind == TraceEvent::Kind::kDeliver && e.depend_self > 0) {
      nonzero_dep = true;
    }
  }
  EXPECT_TRUE(nonzero_dep);
}

}  // namespace
}  // namespace windar::ft
