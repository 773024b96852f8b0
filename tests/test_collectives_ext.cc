// Tests for the extended collectives: generic-op reductions, allgather,
// alltoall, scan, scatter — on the raw transport and on the recovery layer
// (including with a fault, since collectives are just logged traffic).
#include <gtest/gtest.h>

#include "mp/collectives.h"
#include "mp/runtime.h"
#include "windar/runtime.h"

namespace windar::mp {
namespace {

class CollExtP : public ::testing::TestWithParam<int> {};

TEST_P(CollExtP, ReduceMinMax) {
  const int n = GetParam();
  run_raw(n, [n](Comm& c) {
    Coll coll(c);
    const double contrib[2] = {static_cast<double>(c.rank() + 1),
                               static_cast<double>(-c.rank())};
    auto mins = coll.allreduce(contrib, Coll::Op::kMin);
    EXPECT_DOUBLE_EQ(mins[0], 1.0);
    EXPECT_DOUBLE_EQ(mins[1], -(n - 1));
    auto maxs = coll.allreduce(contrib, Coll::Op::kMax);
    EXPECT_DOUBLE_EQ(maxs[0], n);
    EXPECT_DOUBLE_EQ(maxs[1], 0.0);
  });
}

TEST_P(CollExtP, ReduceGenericSumMatchesDedicated) {
  const int n = GetParam();
  run_raw(n, [n](Comm& c) {
    Coll coll(c);
    const double contrib[1] = {static_cast<double>(c.rank())};
    auto a = coll.allreduce(contrib, Coll::Op::kSum);
    auto b = coll.allreduce_sum(contrib);
    EXPECT_DOUBLE_EQ(a[0], b[0]);
    EXPECT_DOUBLE_EQ(a[0], n * (n - 1) / 2.0);
  });
}

TEST_P(CollExtP, AllgatherRankOrder) {
  const int n = GetParam();
  run_raw(n, [n](Comm& c) {
    Coll coll(c);
    const double mine[2] = {static_cast<double>(c.rank()),
                            static_cast<double>(c.rank() * 10)};
    auto all = coll.allgather(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r)].size(), 2u);
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)][0], r);
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)][1], r * 10);
    }
  });
}

TEST_P(CollExtP, AlltoallTransposesBlocks) {
  const int n = GetParam();
  run_raw(n, [n](Comm& c) {
    Coll coll(c);
    // Block (me -> dst) = {me * 100 + dst}.
    std::vector<std::vector<double>> blocks(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      blocks[static_cast<std::size_t>(d)] = {
          static_cast<double>(c.rank() * 100 + d)};
    }
    auto got = coll.alltoall(blocks);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
    for (int src = 0; src < n; ++src) {
      ASSERT_EQ(got[static_cast<std::size_t>(src)].size(), 1u);
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(src)][0],
                       src * 100 + c.rank());
    }
  });
}

TEST_P(CollExtP, ScanIsInclusivePrefix) {
  const int n = GetParam();
  (void)n;
  run_raw(GetParam(), [](Comm& c) {
    Coll coll(c);
    const double contrib[1] = {static_cast<double>(c.rank() + 1)};
    auto prefix = coll.scan_sum(contrib);
    const double expect = (c.rank() + 1) * (c.rank() + 2) / 2.0;
    EXPECT_DOUBLE_EQ(prefix[0], expect);
  });
}

TEST_P(CollExtP, ScatterDistributesBlocks) {
  const int n = GetParam();
  run_raw(n, [n](Comm& c) {
    Coll coll(c);
    std::vector<std::vector<double>> blocks;
    if (c.rank() == 1 % n) {
      for (int r = 0; r < n; ++r) {
        blocks.push_back({static_cast<double>(r * 7)});
      }
    }
    auto mine = coll.scatter(blocks, 1 % n);
    ASSERT_EQ(mine.size(), 1u);
    EXPECT_DOUBLE_EQ(mine[0], c.rank() * 7);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollExtP, ::testing::Values(1, 2, 3, 5, 8));

TEST(CollExtFt, AllWorkOnRecoveryLayerWithFault) {
  ft::JobConfig cfg;
  cfg.n = 4;
  cfg.protocol = ft::ProtocolKind::kTdi;
  cfg.latency = net::LatencyModel::turbulent();
  cfg.restart_delay_ms = 4;
  // Rank 2 receives four packets per round (48 in all): its 40th lands in
  // round 10, past the round-8 checkpoint.
  cfg.chaos = {ft::kill_on_delivery(2, 40)};
  const ft::JobResult result = ft::run_job(cfg, [](ft::Ctx& ctx) {
    Coll coll(ctx);
    int start = 0;
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
      coll.reset_seq(r.u32());
    }
    for (int round = start; round < 12; ++round) {
      if (round > 0 && round % 4 == 0) {
        util::ByteWriter w;
        w.i32(round);
        w.u32(coll.seq());
        ctx.checkpoint(w.view());
      }
      const double mine[1] = {static_cast<double>(ctx.rank() + round)};
      auto all = coll.allgather(mine);
      for (int r = 0; r < 4; ++r) {
        ASSERT_DOUBLE_EQ(all[static_cast<std::size_t>(r)][0], r + round);
      }
      auto total = coll.allreduce(mine, Coll::Op::kMax);
      ASSERT_DOUBLE_EQ(total[0], 3.0 + round);
    }
  });
  EXPECT_EQ(result.total.recoveries, 1u);
}

}  // namespace
}  // namespace windar::mp
