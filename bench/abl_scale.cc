// Ablation A1: piggyback size versus system scale on a synthetic workload —
// isolates the paper's scalability argument (§IV.A last paragraph) from the
// NPB communication patterns.
//
// Workload: a neighbour ring with periodic cross-ring shuffles, which makes
// every process causally depend on every other within a few rounds (worst
// case for determinant-based protocols).  TDI's piggyback is n identifiers
// by construction — exactly linear in scale; TAG/TEL grow super-linearly
// because the determinant population grows with both scale and traffic.
// TDI-S/TDI-D are the sub-linear encodings this sweep exists to judge: at
// 1k-4k ranks the dense vector is the dominant per-message cost, and the
// delta encoding is the one that breaks the O(n) wall.
//
// Scale runs multiplex ranks on the cooperative scheduler (--exec=coop) so
// 4096 ranks fit on a 4-core host.  Determinant protocols are skipped above
// --det-rank-cap (their piggyback would dominate the wall clock); the skip
// is logged, never silent.
//
// Each row runs under a bench::Watchdog (a row that outlives kRowBoundMs
// prints "FAIL <row> (hang after N ms)" and exits 3) and reports the process's
// peak RSS so far (getrusage ru_maxrss).  The peak only ever rises, so for a
// clean per-scale memory figure run one --ranks value per process.
//
//   ./abl_scale [--ranks=4,8,16,24,32,48] [--rounds=30]
//               [--protocols=tdi,tag,tel] [--exec=auto]
//               [--json=BENCH_scale.json]
#include <sys/resource.h>

#include "bench/common.h"
#include "mp/comm.h"

using namespace windar;
using namespace windar::bench;

namespace {

void ring_shuffle_app(ft::Ctx& ctx, int rounds) {
  const int n = ctx.size();
  const int me = ctx.rank();
  for (int round = 0; round < rounds; ++round) {
    if (round > 0 && round % 10 == 0) ctx.checkpoint({});
    const int hop = (round % 5 == 4) ? (n / 2 > 0 ? n / 2 : 1) : 1;
    const int to = (me + hop) % n;
    const int from = (me - hop + n) % n;
    if (to == me) continue;
    mp::send_value(ctx, to, round, me * 1000 + round);
    (void)mp::recv_value<int>(ctx, from, round);
  }
}

// Generous enough for dense TDI at 4096 ranks (93 s on a 1-CPU host); a
// hung row is what it exists to catch.
constexpr double kRowBoundMs = 300'000;

/// Peak resident set of this process so far, in MiB (Linux reports KiB).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const auto ranks = opts.int_list("ranks", {4, 8, 16, 24, 32, 48}, "scales");
  const int rounds = static_cast<int>(opts.integer("rounds", 30, "rounds"));
  const auto protocols = parse_protocol_list(
      opts.str("protocols", "tdi,tag,tel",
               "comma list: tdi | tdi-s | tdi-d | tag | tel | pes"));
  const int det_cap = static_cast<int>(
      opts.integer("det-rank-cap", 128,
                   "skip determinant protocols (tag/tel/pes) above this rank "
                   "count (no hard limit since the dynamic knowledge bitset; "
                   "purely a wall-clock guard — their piggyback grows with "
                   "scale AND traffic)"));
  const int logger_shards = static_cast<int>(
      opts.integer("logger-shards", 0,
                   "TEL/PES event-logger shards (0 = env/default)"));
  exec::ExecModel exec_model = exec::ExecModel::kAuto;
  const std::string ename =
      opts.str("exec", "auto", "threads | coop | auto (rank execution model)");
  WINDAR_CHECK(exec::parse_exec_model(ename, &exec_model))
      << "unknown exec model '" << ename << "'";
  const std::string json_path =
      opts.str("json", "", "also write rows to this JSON file");
  const bool csv = opts.flag("csv", false, "also print CSV");
  opts.finish();

  util::Table table({"ranks", "protocol", "wall ms", "msgs", "msgs/s",
                     "idents/msg", "bytes/msg", "pb ratio",
                     "idents/msg per rank", "peak rss MB"});
  JsonRows json;
  Watchdog watchdog(kRowBoundMs);

  for (int n : ranks) {
    for (auto proto : protocols) {
      if (determinant_based(proto) && n > det_cap) {
        std::fprintf(stderr,
                     "abl_scale: skipping %s at n=%d (> --det-rank-cap=%d; "
                     "determinant piggyback dominates at scale)\n",
                     ft::to_string(proto).c_str(), n, det_cap);
        continue;
      }
      ft::JobConfig cfg;
      cfg.n = n;
      cfg.protocol = proto;
      cfg.latency = bench_latency();
      cfg.exec_model = exec_model;
      cfg.logger_shards = logger_shards;
      watchdog.arm("abl_scale ranks=" + std::to_string(n) + " protocol=" +
                   to_string(proto) + " exec=" + ename);
      auto result =
          ft::run_job(cfg, [&](ft::Ctx& ctx) { ring_shuffle_app(ctx, rounds); });
      watchdog.disarm();
      const double rss_mb = peak_rss_mb();
      const ft::Metrics& m = result.total;
      const double bytes_per_msg =
          m.app_sent ? static_cast<double>(m.piggyback_bytes) /
                           static_cast<double>(m.app_sent)
                     : 0.0;
      const double msgs_per_s =
          result.wall_ms > 0
              ? static_cast<double>(m.app_sent) / (result.wall_ms / 1e3)
              : 0.0;
      table.row({std::to_string(n), to_string(proto),
                 fmt(result.wall_ms, 1), std::to_string(m.app_sent),
                 fmt(msgs_per_s, 0), fmt(m.avg_piggyback_idents()),
                 fmt(bytes_per_msg), fmt(m.piggyback_compression(), 3),
                 fmt(m.avg_piggyback_idents() / n, 3), fmt(rss_mb, 0)});
      json.field("ranks", n)
          .field("protocol", std::string(to_string(proto)))
          .field("wall_ms", result.wall_ms)
          .field("msgs", m.app_sent)
          .field("msgs_per_s", msgs_per_s)
          .field("piggyback_idents_per_msg", m.avg_piggyback_idents())
          .field("piggyback_bytes_per_msg", bytes_per_msg)
          .field("piggyback_bytes_dense", m.piggyback_bytes_dense)
          .field("piggyback_bytes_sent", m.piggyback_bytes_sent)
          .field("piggyback_ratio", m.piggyback_compression())
          .field("piggyback_resyncs", m.piggyback_resyncs)
          // Per-send protocol time (vector merge + piggyback encode): the
          // figure that must stay flat in n for TDI-D now that delta
          // tracking is O(churn), not O(n).
          .field("track_send_ns_per_msg",
                 m.app_sent ? static_cast<double>(m.track_send_ns) /
                                  static_cast<double>(m.app_sent)
                            : 0.0)
          .field("recoveries", m.recoveries)
          .field("peak_rss_mb", rss_mb)
          .end_row();
    }
  }

  table.print("Ablation A1 — piggyback growth with system scale "
              "(ring + cross-ring shuffle)");
  if (csv) std::fputs(table.csv().c_str(), stdout);
  if (!json_path.empty()) {
    WINDAR_CHECK(json.write(json_path)) << "cannot write " << json_path;
    std::fprintf(stderr, "abl_scale: wrote %s\n", json_path.c_str());
  }
  return 0;
}
