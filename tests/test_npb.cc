// NPB skeleton tests: checksum determinism on the raw transport, exact
// checksum equality on every protocol / send mode, and under fault injection
// — the end-to-end correctness oracle for the whole recovery stack.
#include <gtest/gtest.h>

#include <atomic>

#include "mp/runtime.h"
#include "npb/driver.h"

namespace windar::npb {
namespace {

Params tiny(App app, double scale = 0.25) {
  Params p = make_params(app, 4, scale);
  p.checkpoint_every = 3;
  return p;
}

double run_raw_checksum(App app, int n, std::uint64_t seed) {
  Params p = tiny(app);
  auto sum = std::make_shared<std::atomic<double>>(0.0);
  mp::run_raw(
      n,
      [&](mp::Comm& c) {
        const double cs = run_app(c, p, nullptr);
        if (c.rank() == 0) sum->store(cs);
      },
      net::LatencyModel::turbulent(), seed);
  return sum->load();
}

double run_ft_checksum(App app, int n, ft::ProtocolKind proto,
                       ft::SendMode mode, std::vector<net::ChaosEvent> chaos,
                       std::uint64_t seed,
                       ft::JobResult* result_out = nullptr) {
  Params p = tiny(app);
  ft::JobConfig cfg;
  cfg.n = n;
  cfg.protocol = proto;
  cfg.mode = mode;
  cfg.latency = net::LatencyModel::turbulent();
  cfg.seed = seed;
  cfg.chaos = std::move(chaos);
  cfg.restart_delay_ms = 5;
  auto sum = std::make_shared<std::atomic<double>>(0.0);
  auto result = ft::run_job(cfg, [&](ft::Ctx& ctx) {
    const double cs = run_app(ctx, p, &ctx);
    if (ctx.rank() == 0) sum->store(cs);
  });
  if (result_out) *result_out = result;
  return sum->load();
}

class NpbApps : public ::testing::TestWithParam<App> {};

TEST_P(NpbApps, RawChecksumIsSeedIndependent) {
  // The result must not depend on network timing: deterministic programs.
  const double a = run_raw_checksum(GetParam(), 4, 1);
  const double b = run_raw_checksum(GetParam(), 4, 99);
  EXPECT_EQ(a, b);
}

TEST_P(NpbApps, FtMatchesRawOnAllProtocols) {
  const App app = GetParam();
  const double expected = run_raw_checksum(app, 4, 1);
  for (auto proto : {ft::ProtocolKind::kTdi, ft::ProtocolKind::kTag,
                     ft::ProtocolKind::kTel}) {
    EXPECT_EQ(expected,
              run_ft_checksum(app, 4, proto, ft::SendMode::kNonBlocking, {}, 3))
        << to_string(proto);
  }
}

TEST_P(NpbApps, BlockingModeSameChecksum) {
  const App app = GetParam();
  const double expected = run_raw_checksum(app, 4, 1);
  EXPECT_EQ(expected, run_ft_checksum(app, 4, ft::ProtocolKind::kTdi,
                                      ft::SendMode::kBlocking, {}, 5));
}

TEST_P(NpbApps, RecoversFromMidRunFault) {
  const App app = GetParam();
  const double expected = run_raw_checksum(app, 4, 1);
  // Kill rank 2 halfway through its failure-free deliveries: the kill
  // always lands mid-run, however fast the host.
  ft::JobResult clean;
  ASSERT_EQ(expected, run_ft_checksum(app, 4, ft::ProtocolKind::kTdi,
                                      ft::SendMode::kNonBlocking, {}, 7,
                                      &clean));
  const net::ChaosEvent kill =
      ft::kill_at_fraction(2, 0.5, clean.per_rank[2].app_delivered);
  ft::JobResult faulted;
  EXPECT_EQ(expected, run_ft_checksum(app, 4, ft::ProtocolKind::kTdi,
                                      ft::SendMode::kNonBlocking, {kill}, 7,
                                      &faulted))
      << "kill at delivery " << kill.nth;
  EXPECT_EQ(faulted.total.recoveries, 1u);
}

INSTANTIATE_TEST_SUITE_P(Apps, NpbApps,
                         ::testing::Values(App::kLU, App::kBT, App::kSP, App::kCG,
                                           App::kMG),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(Npb, ScalesAcrossRankCounts) {
  for (int n : {1, 2, 4, 8}) {
    const double cs = run_raw_checksum(App::kLU, n, 1);
    EXPECT_GT(cs, 0.0) << "n=" << n;
  }
}

TEST(Npb, ChecksumIndependentOfDecomposition) {
  // The skeletons are relaxations whose result depends on the decomposition
  // only through boundary-condition placement, so checksums differ across n;
  // what must hold is per-n determinism.
  const double a = run_raw_checksum(App::kSP, 2, 1);
  const double b = run_raw_checksum(App::kSP, 2, 42);
  EXPECT_EQ(a, b);
}

TEST(Npb, ParamsMatchPaperProfiles) {
  const Params lu = make_params(App::kLU, 16);
  const Params bt = make_params(App::kBT, 16);
  const Params sp = make_params(App::kSP, 16);
  // LU: most iterations (message frequency), 1 component (small messages).
  EXPECT_GT(lu.iterations, bt.iterations);
  EXPECT_LT(lu.components, bt.components);
  // BT: largest per-message faces and checkpoint (most cells * components).
  EXPECT_GT(bt.nx * bt.ny * bt.nz * bt.components,
            sp.nx * sp.ny * sp.nz * sp.components);
  EXPECT_GT(sp.components, lu.components);
}

TEST(Npb, ScaleShrinksIterations) {
  EXPECT_LT(make_params(App::kLU, 4, 0.2).iterations,
            make_params(App::kLU, 4, 1.0).iterations);
  EXPECT_GE(make_params(App::kLU, 4, 0.01).iterations, 2);
}

}  // namespace
}  // namespace windar::npb
