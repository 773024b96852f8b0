// Domain example: surviving *simultaneous* multi-node failures (the paper's
// §III.D / Fig. 2 scenario).
//
// A 2-D halo-exchange computation loses several ranks at the same instant.
// Their sender logs vanish with them, but the paper's argument holds: every
// lost message is regenerated — with its dependency vector — by the failed
// processes' own rolling forward, while surviving ranks replay from their
// logs, so recovery converges even though the failed ranks must recover
// *each other*.  The example runs the same computation with 0, 1, 2 and 3
// simultaneous failures and shows the checksum never changes.
//
//   ./simultaneous_failures [--ranks=6] [--iters=40] [--protocol=tdi]
#include <atomic>
#include <cstdio>

#include "mp/collectives.h"
#include "npb/topology.h"
#include "util/options.h"
#include "windar/runtime.h"

using namespace windar;

namespace {

constexpr int kTagX = 1;
constexpr int kTagY = 2;

/// Runs the job; `*checksum` receives rank 0's reduction.
ft::JobResult run_once(const ft::JobConfig& cfg, int iters, double* checksum) {
  auto out = std::make_shared<std::atomic<double>>(0.0);
  auto result = ft::run_job(cfg, [iters, out](ft::Ctx& ctx) {
    const npb::Grid2D g(ctx.rank(), ctx.size());
    mp::Coll coll(ctx);
    double cell = 1.0 + 0.1 * ctx.rank();
    int start = 0;
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
      cell = r.f64();
      const std::uint32_t seq = r.u32();
      coll.reset_seq(seq);
    }
    for (int it = start; it < iters; ++it) {
      if (it > 0 && it % 10 == 0) {
        util::ByteWriter w;
        w.i32(it);
        w.f64(cell);
        w.u32(coll.seq());
        ctx.checkpoint(w.view());
      }
      double west = 0.5, east = 0.5, north = 0.5, south = 0.5;
      if (g.east() >= 0) mp::send_value(ctx, g.east(), kTagX, cell);
      if (g.west() >= 0) west = mp::recv_value<double>(ctx, g.west(), kTagX);
      if (g.west() >= 0) mp::send_value(ctx, g.west(), kTagX, cell);
      if (g.east() >= 0) east = mp::recv_value<double>(ctx, g.east(), kTagX);
      if (g.south() >= 0) mp::send_value(ctx, g.south(), kTagY, cell);
      if (g.north() >= 0) north = mp::recv_value<double>(ctx, g.north(), kTagY);
      if (g.north() >= 0) mp::send_value(ctx, g.north(), kTagY, cell);
      if (g.south() >= 0) south = mp::recv_value<double>(ctx, g.south(), kTagY);
      cell = 0.4 * cell + 0.15 * (west + east + north + south);
    }
    const double contrib[1] = {cell};
    const double total = coll.allreduce_sum(contrib)[0];
    if (ctx.rank() == 0) out->store(total);
  });
  *checksum = out->load();
  std::printf("  kills=%zu  checksum=%.12f  wall=%.1fms  recoveries=%llu "
              "resent=%llu\n",
              cfg.chaos.size(), *checksum, result.wall_ms,
              static_cast<unsigned long long>(result.total.recoveries),
              static_cast<unsigned long long>(result.total.resent_msgs));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const int ranks = static_cast<int>(opts.integer("ranks", 6, "process count"));
  const int iters = static_cast<int>(opts.integer("iters", 40, "iterations"));
  const std::string proto_name = opts.str("protocol", "tdi", "tdi | tag | tel");
  opts.finish();

  if (ranks < 2) {
    std::printf("need at least 2 ranks (rank 1's deliveries trigger the "
                "failures)\n");
    return 2;
  }

  ft::JobConfig cfg;
  cfg.n = ranks;
  cfg.protocol = proto_name == "tag"   ? ft::ProtocolKind::kTag
                 : proto_name == "tel" ? ft::ProtocolKind::kTel
                                       : ft::ProtocolKind::kTdi;
  cfg.latency = net::LatencyModel::turbulent();
  cfg.restart_delay_ms = 5;

  std::printf("baseline (no faults):\n");
  double expected = 0;
  const ft::JobResult clean = run_once(cfg, iters, &expected);

  // Every failure is keyed to one trigger, halfway through rank 1's
  // failure-free deliveries; each event names its own victim.
  const net::ChaosEvent trigger =
      ft::kill_at_fraction(1, 0.5, clean.per_rank[1].app_delivered);
  bool ok = true;
  for (int k = 1; k <= 3 && k < ranks; ++k) {
    std::printf("%d simultaneous failure%s at rank 1's delivery %llu:\n", k,
                k > 1 ? "s" : "", static_cast<unsigned long long>(trigger.nth));
    cfg.chaos.clear();
    for (int i = 0; i < k; ++i) {
      cfg.chaos.push_back(trigger);
      cfg.chaos.back().target = i + 1;
    }
    double checksum = 0;
    const ft::JobResult result = run_once(cfg, iters, &checksum);
    ok &= checksum == expected &&
          result.total.recoveries == static_cast<std::uint64_t>(k);
  }
  std::printf(ok ? "OK: all failure counts reproduce the baseline checksum\n"
                 : "MISMATCH: a checksum or a recovery count is off!\n");
  return ok ? 0 : 1;
}
