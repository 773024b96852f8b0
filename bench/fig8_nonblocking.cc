// Reproduces paper Fig. 8: the gain from eliminating computation blocking
// (paper §III.E / §IV.B).
//
// Methodology, scaled from the paper's: run each benchmark under the TDI
// protocol in the two communication architectures of Fig. 4 — (a) blocking
// synchronous sends on the application thread, (b) buffered queues with
// sender/receiver threads — inject one fault mid-run (after a checkpoint),
// recover, and compare total accomplishment time.  Reported as the
// normalized accomplishment time of each mode against the blocking mode
// (blocking = 1.0), so "gain" = 1 - nonblocking/blocking.
//
// The fault is event-keyed: rank 1 % n dies on application delivery
// k = half its failure-free delivery count, so every run of a cell crashes
// at the same protocol point however fast the host is.  A row whose kill
// does not produce exactly one recovery aborts the run.
//
// Expected shape: non-blocking <= blocking everywhere; the gap widens with
// system scale, and is sensitive to message size (BT's large rendezvous
// messages block senders on busy/recovering receivers).
//
//   ./fig8_nonblocking [--ranks=4,8,16,32] [--scale=1.0] [--repeats=3]
//                      [--json=BENCH_fig8.json]
#include "bench/common.h"

using namespace windar;
using namespace windar::bench;

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const auto ranks = opts.int_list("ranks", {4, 8, 16, 32}, "rank sweep");
  const double scale = opts.real("scale", 1.0, "iteration scale factor");
  const int repeats = static_cast<int>(
      opts.integer("repeats", 3, "timed repetitions per cell (median)"));
  const bool csv = opts.flag("csv", false, "also print CSV");
  const std::string json_path = opts.str(
      "json", "", "also write rows as a JSON array to this path");
  opts.finish();

  util::Table table({"app", "ranks", "kill", "blocking ms", "nonblocking ms",
                     "normalized", "gain %", "send-block ms (blk)"});
  JsonRows json;

  for (auto app : all_apps()) {
    for (int n : ranks) {
      // Key the fault: half of the victim's failure-free deliveries.
      NpbJob probe;
      probe.app = app;
      probe.ranks = n;
      probe.scale = scale;
      const int victim = 1 % n;
      const std::uint64_t clean_delivered =
          run_npb_job(probe)
              .result.per_rank[static_cast<std::size_t>(victim)]
              .app_delivered;
      const net::ChaosEvent kill =
          ft::kill_at_fraction(victim, 0.5, clean_delivered);

      ft::JobConfig config;  // as resolved by the last timed run
      auto timed = [&](ft::SendMode mode, double* send_block_ms) {
        util::Samples walls;
        double blocked = 0;
        for (int rep = 0; rep < repeats; ++rep) {
          NpbJob job = probe;
          job.mode = mode;
          job.seed = 1 + static_cast<std::uint64_t>(rep);
          job.chaos = {kill};
          const NpbOutcome out = run_npb_job(job);
          WINDAR_CHECK_EQ(out.result.total.recoveries, 1u)
              << "fig8 app=" << npb::to_string(app) << " ranks=" << n
              << " mode=" << ft::to_string(mode) << " seed=" << job.seed
              << " kill=" << victim << "@" << kill.nth;
          walls.add(out.result.wall_ms);
          blocked += static_cast<double>(out.result.total.send_block_ns) / 1e6;
          config = out.result.config;
        }
        if (send_block_ms) *send_block_ms = blocked / repeats;
        return walls.median();
      };

      double blk_send_block = 0;
      const double blocking_ms = timed(ft::SendMode::kBlocking, &blk_send_block);
      const double nonblocking_ms = timed(ft::SendMode::kNonBlocking, nullptr);
      const double normalized = nonblocking_ms / blocking_ms;
      const std::string kill_at =
          std::to_string(victim) + "@" + std::to_string(kill.nth);
      table.row({std::string(to_string(app)), std::to_string(n), kill_at,
                 fmt(blocking_ms, 1), fmt(nonblocking_ms, 1),
                 fmt(normalized, 3), fmt(100.0 * (1.0 - normalized), 1),
                 fmt(blk_send_block, 1)});
      json.field("app", std::string(npb::to_string(app)))
          .field("ranks", n)
          .field("scale", scale)
          .field("kill_rank", victim)
          .field("kill_nth", kill.nth)
          .field("clean_delivered", clean_delivered)
          .field("repeats", repeats)
          .field("stat", std::string("median"))
          .field("blocking_ms", blocking_ms)
          .field("nonblocking_ms", nonblocking_ms)
          .field("normalized", normalized)
          .field("gain_pct", 100.0 * (1.0 - normalized))
          .field("send_block_ms_blk", blk_send_block)
          .host_and_config(config);
      json.end_row();
    }
  }

  table.print(
      "Fig. 8 — normalized accomplishment time with one fault: blocking vs "
      "non-blocking send path (TDI)");
  if (csv) std::fputs(table.csv().c_str(), stdout);
  if (!json_path.empty() && !json.write(json_path)) {
    std::fprintf(stderr, "fig8_nonblocking: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  return 0;
}
