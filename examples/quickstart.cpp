// Quickstart: run a small fault-tolerant job with the TDI protocol.
//
// Four ranks pass an accumulating token around a ring for a number of
// rounds, checkpointing as they go.  Halfway through its deliveries, rank 2
// is crashed by an event-keyed chaos kill; the run completes anyway and the
// final token value is identical to the failure-free result.
//
//   ./quickstart [--ranks=4] [--rounds=40] [--protocol=tdi|tag|tel|...]
//                [--mode=nonblocking|blocking]
#include <atomic>
#include <cstdio>

#include "util/check.h"
#include "util/options.h"
#include "windar/runtime.h"

using namespace windar;

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const int ranks = static_cast<int>(opts.integer("ranks", 4, "process count"));
  const int rounds = static_cast<int>(opts.integer("rounds", 40, "ring rounds"));
  const std::string protocol_name =
      opts.str("protocol", "tdi", "tdi | tdi-s | tdi-d | tag | tel | pes");
  const bool blocking = opts.str("mode", "nonblocking", "send path") == "blocking";
  opts.finish();
  const auto protocol = ft::parse_protocol(protocol_name);
  WINDAR_CHECK(protocol) << "unknown protocol '" << protocol_name << "'";

  ft::JobConfig cfg;
  cfg.n = ranks;
  cfg.protocol = *protocol;
  cfg.mode = blocking ? ft::SendMode::kBlocking : ft::SendMode::kNonBlocking;
  cfg.latency = net::LatencyModel::turbulent();

  auto final_token = std::make_shared<std::atomic<long long>>(0);

  auto app = [&](ft::Ctx& ctx) {
    const int n = ctx.size();
    const int me = ctx.rank();
    const int next = (me + 1) % n;
    const int prev = (me - 1 + n) % n;

    // Restore loop position from the last checkpoint if we are an
    // incarnation of a crashed rank.
    int start = 0;
    long long acc = 0;
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
      acc = r.i64();
      std::printf("[rank %d] recovered at round %d\n", me, start);
    }

    for (int round = start; round < rounds; ++round) {
      if (round > 0 && round % 10 == 0) {
        util::ByteWriter w;
        w.i32(round);
        w.i64(acc);
        ctx.checkpoint(w.view());
      }
      if (me == 0) {
        mp::send_value(ctx, next, 0, acc + 1);
        acc = mp::recv_value<long long>(ctx, prev, 0);
      } else {
        const auto token = mp::recv_value<long long>(ctx, prev, 0);
        mp::send_value(ctx, next, 0, token + 1);
      }
    }
    if (me == 0) final_token->store(acc);
  };

  // Failure-free reference run.
  auto clean = ft::run_job(cfg, app);
  const long long expected = final_token->load();
  std::printf("failure-free : token=%lld wall=%.1fms\n", expected,
              clean.wall_ms);

  // Same job with rank 2 crashed halfway through its failure-free deliveries.
  const int victim = ranks > 2 ? 2 : 0;
  const std::uint64_t delivered =
      clean.per_rank[static_cast<std::size_t>(victim)].app_delivered;
  cfg.chaos = {ft::kill_at_fraction(victim, 0.5, delivered)};
  final_token->store(-1);
  auto faulty = ft::run_job(cfg, app);
  const long long recovered = final_token->load();
  std::printf("with fault   : token=%lld wall=%.1fms recoveries=%llu "
              "resent=%llu dup_dropped=%llu\n",
              recovered, faulty.wall_ms,
              static_cast<unsigned long long>(faulty.total.recoveries),
              static_cast<unsigned long long>(faulty.total.resent_msgs),
              static_cast<unsigned long long>(faulty.total.dup_dropped));

  if (expected != recovered) {
    std::printf("MISMATCH: recovery changed the result!\n");
    return 1;
  }
  if (faulty.total.recoveries != 1) {
    std::printf("FAIL: the kill did not produce exactly one recovery\n");
    return 1;
  }
  std::printf("OK: recovery preserved the result (protocol piggyback: "
              "%.1f identifiers/msg)\n",
              faulty.total.avg_piggyback_idents());
  return 0;
}
