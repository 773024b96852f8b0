// Ablation A2: sender-log memory versus checkpoint interval — quantifies
// the CHECKPOINT_ADVANCE garbage-collection path (Algorithm 1 lines 32-39).
//
// A pairwise-exchange workload runs a fixed number of rounds while varying
// the checkpoint cadence.  The peak sender-log footprint should shrink
// roughly in proportion to the interval, while released-entry counts rise —
// the memory/IO trade the paper's checkpoint interval choice (180 s)
// balances.
//
//   ./abl_logmem [--rounds=200] [--ranks=8]
#include "bench/common.h"
#include "mp/comm.h"

using namespace windar;
using namespace windar::bench;

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const int rounds = static_cast<int>(opts.integer("rounds", 200, "rounds"));
  const int ranks = static_cast<int>(opts.integer("ranks", 8, "ranks"));
  const bool csv = opts.flag("csv", false, "also print CSV");
  opts.finish();

  util::Table table({"ckpt every", "checkpoints", "peak log entries",
                     "peak log KiB", "released entries", "wall ms"});

  for (int every : {0, 100, 50, 25, 10, 5}) {
    ft::JobConfig cfg;
    cfg.n = ranks;
    cfg.protocol = ft::ProtocolKind::kTdi;
    cfg.latency = bench_latency();
    const std::string label = "ckpt_every=" + std::to_string(every);
    auto result = bounded_run_job(cfg, label, [&](ft::Ctx& ctx) {
      const int n = ctx.size();
      const int me = ctx.rank();
      const int peer = me ^ 1;  // pairwise partners
      if (peer >= n) return;
      std::vector<double> payload(64, 1.0);
      for (int round = 0; round < rounds; ++round) {
        if (every > 0 && round > 0 && round % every == 0) ctx.checkpoint({});
        if (me < peer) {
          mp::send_vec<double>(ctx, peer, 1, payload);
          (void)mp::recv_vec<double>(ctx, peer, 1);
        } else {
          (void)mp::recv_vec<double>(ctx, peer, 1);
          mp::send_vec<double>(ctx, peer, 1, payload);
        }
      }
    });
    const ft::Metrics& m = result.total;
    table.row({every == 0 ? "never" : std::to_string(every),
               std::to_string(m.checkpoints),
               std::to_string(m.log_peak_entries),
               fmt(static_cast<double>(m.log_peak_bytes) / 1024.0, 1),
               std::to_string(m.log_released_entries),
               fmt(result.wall_ms, 1)});
  }

  table.print("Ablation A2 — sender-log footprint vs checkpoint interval "
              "(TDI, pairwise exchange)");
  if (csv) std::fputs(table.csv().c_str(), stdout);
  return 0;
}
