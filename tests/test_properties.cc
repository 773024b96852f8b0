// Property-based tests: randomized workloads, fault schedules, and network
// seeds, checked against the paper's correctness obligations (§III.D):
//   P1  outcome equality — failure+recovery produces exactly the
//       failure-free result;
//   P2  no lost messages — every send is eventually delivered exactly once
//       (delivered counts match send counts);
//   P3  no duplicate deliveries — the application-observed per-pair
//       sequences are gap-free and strictly increasing (asserted inside the
//       app via its running digests);
//   P4  holds for every protocol and both send paths.
#include <gtest/gtest.h>

#include <algorithm>

#include "mp/comm.h"
#include "rank_results.h"
#include "util/rng.h"
#include "windar/runtime.h"

namespace windar::ft {
namespace {

using mp::recv_value;
using mp::send_value;

// A randomized but *deterministically generated* workload: given the same
// topology seed, every rank makes the same send/recv script regardless of
// timing, so the job outcome is a pure function of the script.
struct RandomWorkload {
  int n = 4;
  int steps = 60;
  std::uint64_t topology_seed = 1;
  int checkpoint_every = 12;

  // Each step: every rank sends to a script-chosen peer, then receives all
  // messages addressed to it this step (counts are globally known).
  std::uint64_t run(Ctx& ctx) const {
    util::Rng script(topology_seed);
    // Precompute the full destination matrix so all ranks agree.
    std::vector<std::vector<int>> dst_of(static_cast<std::size_t>(steps),
                                         std::vector<int>(static_cast<std::size_t>(n)));
    for (int s = 0; s < steps; ++s) {
      for (int r = 0; r < n; ++r) {
        int d = static_cast<int>(script.next_below(static_cast<std::uint64_t>(n)));
        dst_of[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)] = d;
      }
    }
    const int me = ctx.rank();
    int start = 0;
    std::uint64_t digest = 0xABCD + static_cast<std::uint64_t>(me);
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
      digest = r.u64();
    }
    for (int s = start; s < steps; ++s) {
      if (checkpoint_every > 0 && s > 0 && s % checkpoint_every == 0) {
        util::ByteWriter w;
        w.i32(s);
        w.u64(digest);
        ctx.checkpoint(w.view());
      }
      const int to = dst_of[static_cast<std::size_t>(s)][static_cast<std::size_t>(me)];
      send_value(ctx, to, s, digest ^ static_cast<std::uint64_t>(s));
      int expected = 0;
      for (int r = 0; r < n; ++r) {
        if (dst_of[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)] == me) ++expected;
      }
      // ANY_SOURCE fan-in folded commutatively (order must not matter).
      std::uint64_t fold = 0;
      for (int i = 0; i < expected; ++i) {
        fold += recv_value<std::uint64_t>(ctx, mp::kAnySource, s);
      }
      digest = digest * 0x100000001B3ull + fold + static_cast<std::uint64_t>(s);
    }
    return digest;
  }
};

std::uint64_t job_outcome(const RandomWorkload& wl, ProtocolKind proto,
                          SendMode mode, std::vector<net::ChaosEvent> chaos,
                          std::uint64_t net_seed,
                          JobResult* result_out = nullptr) {
  // Every property job also records its causal trace and must pass the
  // offline invariant validator (FIFO, continuity, gate, order).
  TraceSink sink;
  JobConfig cfg;
  cfg.n = wl.n;
  cfg.protocol = proto;
  cfg.mode = mode;
  cfg.latency = net::LatencyModel::turbulent();
  cfg.seed = net_seed;
  cfg.chaos = std::move(chaos);
  cfg.restart_delay_ms = 3;
  cfg.trace = &sink;
  auto results = std::make_shared<RankResults<std::uint64_t>>(cfg.n);
  auto result = run_job(cfg, [&wl, results](Ctx& ctx) {
    results->set(ctx.rank(), wl.run(ctx) % 0xFFFFFFFFFFFFull);
  });
  if (result_out) *result_out = result;
  const auto verdict = validate_trace(sink.snapshot(), cfg.n);
  EXPECT_TRUE(verdict.ok()) << "trace: " << verdict.violations.size()
                            << " violations, first: "
                            << verdict.violations[0];
  return results->sum();
}

class PropertySweep
    : public ::testing::TestWithParam<std::tuple<int, ProtocolKind>> {};

TEST_P(PropertySweep, FaultedOutcomeEqualsCleanOutcome) {
  const auto [sweep_seed, proto] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(sweep_seed) * 7919 + 13);

  RandomWorkload wl;
  wl.n = 3 + static_cast<int>(rng.next_below(4));        // 3..6 ranks
  wl.steps = 30 + static_cast<int>(rng.next_below(30));  // 30..59 steps
  wl.topology_seed = rng.next_u64();
  wl.checkpoint_every = 8 + static_cast<int>(rng.next_below(8));

  const SendMode mode = rng.next_below(2) ? SendMode::kBlocking
                                          : SendMode::kNonBlocking;

  JobResult clean_run;
  const std::uint64_t clean =
      job_outcome(wl, proto, mode, {}, rng.next_u64(), &clean_run);

  // Random fault schedule: 1-2 kills of random ranks, each at a random one
  // of the victim's failure-free deliveries, so every kill lands mid-run.
  // Two kills keyed to the same delivery of the same rank are one failure.
  std::vector<net::ChaosEvent> kills;
  const int nfaults = 1 + static_cast<int>(rng.next_below(2));
  for (int i = 0; i < nfaults; ++i) {
    const int rank =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(wl.n)));
    const std::uint64_t delivered =
        clean_run.per_rank[static_cast<std::size_t>(rank)].app_delivered;
    ASSERT_GT(delivered, 0u) << "rank " << rank << " receives nothing";
    const net::ChaosEvent kill =
        kill_on_delivery(rank, 1 + rng.next_below(delivered));
    if (std::find(kills.begin(), kills.end(), kill) == kills.end()) {
      kills.push_back(kill);
    }
  }

  JobResult faulted_run;
  const std::uint64_t faulted =
      job_outcome(wl, proto, mode, kills, rng.next_u64(), &faulted_run);

  EXPECT_EQ(clean, faulted)
      << "protocol=" << to_string(proto) << " mode=" << to_string(mode)
      << " n=" << wl.n << " steps=" << wl.steps << " kills=" << kills.size();
  EXPECT_EQ(faulted_run.total.recoveries, kills.size());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PropertySweep,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(ProtocolKind::kTdi,
                                         ProtocolKind::kTag,
                                         ProtocolKind::kTel)),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_" +
             to_string(std::get<1>(param_info.param));
    });

TEST(Property, DeliveryConservationFailureFree) {
  // P2/P3 baseline: without faults every send is delivered exactly once —
  // no duplicates sneak past the filter, nothing is lost to jitter.
  // (Under faults the per-incarnation counters legitimately double-count
  // re-executed work; there, outcome equality is the conservation check.)
  RandomWorkload wl;
  wl.n = 4;
  wl.steps = 40;
  wl.topology_seed = 999;
  for (auto proto : {ProtocolKind::kTdi, ProtocolKind::kTag,
                     ProtocolKind::kTel}) {
    JobResult result;
    (void)job_outcome(wl, proto, SendMode::kNonBlocking, {}, 5, &result);
    const Metrics& metrics = result.total;
    EXPECT_EQ(metrics.app_delivered, metrics.app_sent) << to_string(proto);
    EXPECT_EQ(metrics.dup_dropped, 0u) << to_string(proto);
    EXPECT_EQ(metrics.suppressed_sends, 0u) << to_string(proto);
  }
}

TEST(Property, TdiPiggybackInvariantUnderFaults) {
  // TDI's piggyback is exactly n identifiers per message, faults or not.
  RandomWorkload wl;
  wl.n = 5;
  wl.steps = 30;
  wl.topology_seed = 7;
  JobResult result;
  (void)job_outcome(wl, ProtocolKind::kTdi, SendMode::kNonBlocking,
                    {kill_on_delivery(1, 5)}, 11, &result);
  EXPECT_EQ(result.total.recoveries, 1u);
  EXPECT_DOUBLE_EQ(result.total.avg_piggyback_idents(), 5.0);
}

}  // namespace
}  // namespace windar::ft
