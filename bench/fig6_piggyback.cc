// Reproduces paper Fig. 6: average amount of piggyback per message (number
// of identifiers) for the three causal logging protocols on LU / BT / SP at
// 4, 8, 16, 32 processes.
//
// Expected shape (paper §IV.A): TDI piggybacks exactly n identifiers per
// message (the dependency-interval vector), flat in message frequency; TAG
// and TEL piggyback determinants (4 identifiers each) and grow sharply with
// message frequency (LU worst) and with system scale; TEL sits below TAG
// because stability acknowledgements from the event logger retire
// determinants early.  The TDI-S/TDI-D rows judge the sparse and delta
// encodings against the same dense baseline: "pb ratio" is wire bytes over
// what the dense vector would have cost for the same sends.
//
// The --logger-shards sweep adds sharded-event-logger columns: TEL/PES rerun
// at each shard count (other protocols don't touch the logger and run once),
// showing the single-logger commit serialization — the Fig. 6 TEL-above-TAG
// anomaly — disappear at >= 2 shards.
//
//   ./fig6_piggyback [--ranks=4,8,16,32] [--scale=1.0] [--logger-shards=1]
//                    [--csv] [--json=BENCH_logger.json]
#include "bench/common.h"

using namespace windar;
using namespace windar::bench;

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const auto ranks = opts.int_list("ranks", {4, 8, 16, 32}, "rank sweep");
  const double scale = opts.real("scale", 1.0, "iteration scale factor");
  const auto shard_list = opts.int_list(
      "logger-shards", {1},
      "event-logger shard sweep (TEL/PES rerun per value; others run once)");
  const auto protocols = parse_protocol_list(
      opts.str("protocols", "tdi,tdi-s,tdi-d,tag,tel",
               "comma list: tdi | tdi-s | tdi-d | tag | tel | pes"));
  exec::ExecModel exec_model = exec::ExecModel::kAuto;
  const std::string ename =
      opts.str("exec", "auto", "threads | coop | auto (rank execution model)");
  WINDAR_CHECK(exec::parse_exec_model(ename, &exec_model))
      << "unknown exec model '" << ename << "'";
  const std::string json_path =
      opts.str("json", "", "also write rows to this JSON file");
  const bool csv = opts.flag("csv", false, "also print CSV");
  opts.finish();

  util::Table table({"app", "ranks", "protocol", "shards", "msgs",
                     "piggyback idents/msg", "piggyback bytes/msg",
                     "pb ratio", "logger msgs", "commit rounds", "acks"});
  JsonRows json;

  for (auto app : all_apps()) {
    for (int n : ranks) {
      for (auto proto : protocols) {
        for (std::size_t si = 0; si < shard_list.size(); ++si) {
          // Protocols that never talk to the logger produce the same row at
          // every shard count: run them once, at the first value.
          if (si > 0 && !uses_logger(proto)) continue;
          const int shards = shard_list[si];
          NpbJob job;
          job.app = app;
          job.ranks = n;
          job.protocol = proto;
          job.scale = scale;
          job.exec_model = exec_model;
          job.logger_shards = shards;
          const NpbOutcome out = run_npb_job(job);
          const ft::Metrics& m = out.result.total;
          const double bytes_per_msg =
              m.app_sent ? static_cast<double>(m.piggyback_bytes) /
                               static_cast<double>(m.app_sent)
                         : 0.0;
          table.row({std::string(to_string(app)), std::to_string(n),
                     to_string(proto),
                     uses_logger(proto) ? std::to_string(shards) : "-",
                     std::to_string(m.app_sent), fmt(m.avg_piggyback_idents()),
                     fmt(bytes_per_msg), fmt(m.piggyback_compression(), 3),
                     std::to_string(out.result.logger.batches),
                     std::to_string(out.result.logger.commit_rounds),
                     std::to_string(out.result.logger.acks)});
          json.field("app", std::string(to_string(app)))
              .field("ranks", n)
              .field("protocol", std::string(to_string(proto)))
              .field("logger_shards", uses_logger(proto) ? shards : 0)
              .field("msgs", m.app_sent)
              .field("piggyback_idents_per_msg", m.avg_piggyback_idents())
              .field("piggyback_bytes_per_msg", bytes_per_msg)
              .field("piggyback_ratio", m.piggyback_compression())
              .field("logger_msgs", out.result.logger.batches)
              .field("logger_commit_rounds", out.result.logger.commit_rounds)
              .field("logger_acks", out.result.logger.acks)
              .end_row();
        }
      }
    }
  }

  table.print(
      "Fig. 6 — average piggyback per message (identifiers), TDI vs TAG vs TEL");
  if (csv) std::fputs(table.csv().c_str(), stdout);
  if (!json_path.empty()) {
    WINDAR_CHECK(json.write(json_path)) << "cannot write " << json_path;
    std::fprintf(stderr, "fig6_piggyback: wrote %s\n", json_path.c_str());
  }
  return 0;
}
