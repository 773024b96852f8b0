// Ablation A5: dense vs sparse TDI vector encoding.
//
// The paper's TDI piggybacks all n vector entries on every message.  One
// might hope that on sparse communication graphs (halo exchanges, rings)
// most entries stay zero, making (index, value) pairs cheaper on the wire.
// The measured result is a *negative* one that justifies the paper's dense
// choice: depend_interval entries are monotone counters that saturate to
// non-zero within one diameter of the communication graph, so nnz ~ n
// almost immediately and each surviving entry then costs two words (index +
// value) against the dense form's one.  "sparse wins" is judged on bytes
// per message — the wire cost — while idents/msg counts tracked entries
// (identical accounting for both encodings; Fig. 6's metric).
// Kept as an ablation because the failure mode is instructive.
//
//   ./abl_sparse [--ranks=4,8,16,32] [--scale=1.0]
#include "bench/common.h"
#include "mp/comm.h"

using namespace windar;
using namespace windar::bench;

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const auto ranks = opts.int_list("ranks", {4, 8, 16, 32}, "rank sweep");
  const double scale = opts.real("scale", 1.0, "iteration scale factor");
  const bool csv = opts.flag("csv", false, "also print CSV");
  opts.finish();

  util::Table table({"workload", "ranks", "dense idents/msg",
                     "sparse idents/msg", "dense B/msg", "sparse B/msg",
                     "sparse wins"});

  auto add_row = [&](const std::string& name, int n, const ft::Metrics& dense,
                     const ft::Metrics& sparse) {
    const double di = dense.avg_piggyback_idents();
    const double si = sparse.avg_piggyback_idents();
    auto bytes_per = [](const ft::Metrics& m) {
      return m.app_sent ? static_cast<double>(m.piggyback_bytes) /
                              static_cast<double>(m.app_sent)
                        : 0.0;
    };
    table.row({name, std::to_string(n), fmt(di), fmt(si),
               fmt(bytes_per(dense)), fmt(bytes_per(sparse)),
               bytes_per(sparse) < bytes_per(dense) ? "yes" : "no"});
  };

  for (auto app : all_apps()) {
    for (int n : ranks) {
      ft::Metrics results[2];
      for (int variant = 0; variant < 2; ++variant) {
        NpbJob job;
        job.app = app;
        job.ranks = n;
        job.scale = scale;
        job.protocol = variant == 0 ? ft::ProtocolKind::kTdi
                                    : ft::ProtocolKind::kTdiSparse;
        results[variant] = run_npb_job(job).result.total;
      }
      add_row(to_string(app), n, results[0], results[1]);
    }
  }

  // Nearest-neighbour ring: the sparsest realistic pattern.
  for (int n : ranks) {
    ft::Metrics results[2];
    for (int variant = 0; variant < 2; ++variant) {
      ft::JobConfig cfg;
      cfg.n = n;
      cfg.protocol = variant == 0 ? ft::ProtocolKind::kTdi
                                  : ft::ProtocolKind::kTdiSparse;
      cfg.latency = bench_latency();
      const std::string label = "app=ring ranks=" + std::to_string(n) +
                                " protocol=" + to_string(cfg.protocol);
      auto result = bounded_run_job(cfg, label, [&](ft::Ctx& ctx) {
        const int right = (ctx.rank() + 1) % ctx.size();
        const int left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        for (int round = 0; round < 40; ++round) {
          mp::send_value(ctx, right, 0, round);
          (void)mp::recv_value<int>(ctx, left, 0);
        }
      });
      results[variant] = result.total;
    }
    add_row("ring", n, results[0], results[1]);
  }

  table.print("Ablation A5 — dense (paper) vs sparse TDI vector encoding");
  if (csv) std::fputs(table.csv().c_str(), stdout);
  return 0;
}
