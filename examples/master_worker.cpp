// Domain example: master/worker task farm using ANY_SOURCE — the paper's
// §II.C motivating case for relaxing the PWD model.
//
// The master hands out integration sub-intervals and collects partial sums
// with MPI_ANY_SOURCE-style receives: the arrival order of results is
// non-deterministic, but addition is commutative, so the outcome is
// order-independent.  Under TDI this non-determinism survives recovery —
// results are re-delivered in whatever order they arrive, gated only by the
// dependency-interval vector — yet the final integral matches the
// failure-free run.
//
//   ./master_worker [--ranks=5] [--tasks=64] [--protocol=tdi]
#include <atomic>
#include <cmath>
#include <cstdio>

#include "util/options.h"
#include "windar/runtime.h"

using namespace windar;

namespace {

constexpr int kTagTask = 1;
constexpr int kTagResult = 2;
constexpr int kTagStop = 3;

// The integrand: fully deterministic, mildly expensive.
double integrate_chunk(double a, double b) {
  constexpr int kSteps = 400;
  const double h = (b - a) / kSteps;
  double sum = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const double x = a + (i + 0.5) * h;
    sum += std::exp(-x * x) * std::cos(3.0 * x) * h;
  }
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const int ranks = static_cast<int>(opts.integer("ranks", 5, "process count"));
  const int tasks = static_cast<int>(opts.integer("tasks", 64, "sub-intervals"));
  const std::string proto_name = opts.str("protocol", "tdi", "tdi | tag | tel");
  opts.finish();

  if (ranks < 2) {
    std::printf("need at least 2 ranks (1 master + workers)\n");
    return 2;
  }

  ft::JobConfig cfg;
  cfg.n = ranks;
  cfg.protocol = proto_name == "tag"   ? ft::ProtocolKind::kTag
                 : proto_name == "tel" ? ft::ProtocolKind::kTel
                                       : ft::ProtocolKind::kTdi;
  cfg.latency = net::LatencyModel::turbulent();

  auto result_out = std::make_shared<std::atomic<double>>(0.0);

  auto app = [&](ft::Ctx& ctx) {
    const int me = ctx.rank();
    if (me == 0) {
      // ---- master ----
      int next_task = 0;
      int outstanding = 0;
      double integral = 0.0;
      int done_workers = 0;
      if (ctx.restored()) {
        util::ByteReader r(*ctx.restored());
        next_task = r.i32();
        outstanding = r.i32();
        integral = r.f64();
      }
      // Seed one task per worker (on recovery, re-seeding is handled by the
      // duplicate filter: workers discard repeats).
      auto send_task = [&](int worker) {
        if (next_task < tasks) {
          mp::send_value(ctx, worker, kTagTask, next_task++);
          ++outstanding;
        } else {
          mp::send_value(ctx, worker, kTagStop, 0);
          ++done_workers;
        }
      };
      if (!ctx.restored()) {
        for (int w = 1; w < ctx.size(); ++w) send_task(w);
      }
      while (done_workers < ctx.size() - 1) {
        if (next_task % 16 == 0 && outstanding > 0) {
          util::ByteWriter w;
          w.i32(next_task);
          w.i32(outstanding);
          w.f64(integral);
          ctx.checkpoint(w.view());
        }
        // ANY_SOURCE: worker results arrive in non-deterministic order.
        mp::Message m = ctx.recv(mp::kAnySource, kTagResult);
        integral += util::from_bytes<double>(m.payload);
        --outstanding;
        send_task(m.src);
      }
      result_out->store(integral);
    } else {
      // ---- worker (stateless: restarts from scratch on failure) ----
      while (true) {
        mp::Message m = ctx.recv(0, mp::kAnyTag);
        if (m.tag == kTagStop) break;
        const int task = util::from_bytes<int>(m.payload);
        const double a = -4.0 + 8.0 * task / tasks;
        const double b = -4.0 + 8.0 * (task + 1) / tasks;
        mp::send_value(ctx, 0, kTagResult, integrate_chunk(a, b));
      }
    }
  };

  auto clean = ft::run_job(cfg, app);
  const double expected = result_out->load();
  std::printf("failure-free : integral=%.12f wall=%.1fms\n", expected,
              clean.wall_ms);

  // Crash the last worker mid-farm, on its second message: which tasks a
  // worker gets depends on arrival order, but the master seeds every worker
  // with one task and ends with a stop, so a worker always receives two
  // messages when there is a task for each worker (else only the stop).
  cfg.chaos = {ft::kill_on_delivery(ranks - 1, tasks >= ranks - 1 ? 2 : 1)};
  result_out->store(0);
  auto faulty = ft::run_job(cfg, app);
  std::printf("with fault   : integral=%.12f wall=%.1fms recoveries=%llu "
              "dup_dropped=%llu\n",
              result_out->load(), faulty.wall_ms,
              static_cast<unsigned long long>(faulty.total.recoveries),
              static_cast<unsigned long long>(faulty.total.dup_dropped));

  if (std::abs(result_out->load() - expected) > 1e-12) {
    std::printf("MISMATCH!\n");
    return 1;
  }
  if (faulty.total.recoveries != 1) {
    std::printf("FAIL: the kill did not produce exactly one recovery\n");
    return 1;
  }
  std::printf("OK: commutative ANY_SOURCE farm survives worker crash\n");
  return 0;
}
