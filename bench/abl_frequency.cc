// Ablation A4: piggyback and tracking overhead versus message frequency —
// the paper's claim that TDI's advantage is "more prominent" for
// applications with frequent message passing (§IV.A).
//
// A fixed 8-rank ring workload varies the compute time between messages
// (high compute = low frequency).  TDI's piggyback stays exactly n
// identifiers regardless of rate; the determinant protocols' piggyback per
// message grows as more unstable/unsent determinants accumulate per send
// window.
//
//   ./abl_frequency [--ranks=8] [--rounds=120]
#include "bench/common.h"
#include "mp/comm.h"
#include "npb/workload.h"

using namespace windar;
using namespace windar::bench;

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const int ranks = static_cast<int>(opts.integer("ranks", 8, "ranks"));
  const int rounds = static_cast<int>(opts.integer("rounds", 120, "rounds"));
  const bool csv = opts.flag("csv", false, "also print CSV");
  opts.finish();

  util::Table table({"gap us", "msgs/s/rank", "protocol", "idents/msg",
                     "track us/msg"});

  for (int gap_us : {0, 50, 200, 1000}) {
    for (auto proto : all_protocols()) {
      ft::JobConfig cfg;
      cfg.n = ranks;
      cfg.protocol = proto;
      cfg.latency = bench_latency();
      const std::string label = "gap_us=" + std::to_string(gap_us) +
                                " protocol=" + to_string(proto);
      auto result = bounded_run_job(cfg, label, [&](ft::Ctx& ctx) {
        const int n = ctx.size();
        const int right = (ctx.rank() + 1) % n;
        const int left = (ctx.rank() + n - 1) % n;
        for (int round = 0; round < rounds; ++round) {
          if (round > 0 && round % 40 == 0) ctx.checkpoint({});
          mp::send_value(ctx, right, 0, round);
          (void)mp::recv_value<int>(ctx, left, 0);
          npb::compute_spin(gap_us * 1000);
        }
      });
      const ft::Metrics& m = result.total;
      const double rate = result.wall_ms > 0
                              ? static_cast<double>(m.app_sent) /
                                    static_cast<double>(ranks) /
                                    (result.wall_ms / 1e3)
                              : 0.0;
      table.row({std::to_string(gap_us), fmt(rate, 0), to_string(proto),
                 fmt(m.avg_piggyback_idents()), fmt(m.avg_track_us(), 3)});
    }
  }

  table.print("Ablation A4 — overhead vs message frequency (ring, 8 ranks)");
  if (csv) std::fputs(table.csv().c_str(), stdout);
  return 0;
}
