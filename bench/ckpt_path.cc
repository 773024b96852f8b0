// A10: checkpoint-path cost — synchronous vs asynchronous commit, full vs
// delta images, fault-free vs post-fault completion.
//
// A ring workload carries a sizeable application state blob (mostly cold;
// a few bytes mutate per round, the delta codec's favourable case) and
// checkpoints every `ckpt-every` rounds into a real spill directory, so
// the commit path pays genuine serialize + write + fsync + rename costs.
//
// The headline number is the application-thread checkpoint stall
// (ckpt_stall_ns per checkpoint): under synchronous commit it contains the
// whole serialize+fsync; under asynchronous commit it is just the seal.
// The acceptance bar for the async path is a >=5x stall reduction.  The
// faulted variant kills rank 1 on its delivery halfway through the ring
// (the ring delivers one message per rank per round) and reports
// completion wall time, showing recovery works (and is not slower) with
// deltas + async commit.  A faulted row whose kill does not produce exactly
// one recovery aborts.
//
//   ./ckpt_path [--ranks=4] [--rounds=240] [--ckpt-every=8]
//               [--state-kb=256] [--anchor-k=8] [--json=BENCH_ckpt.json]
//
// Every row runs under a 60 s watchdog: a row that outlives it prints
// "FAIL ckpt_path <row parameters> (hang after ...)" and exits 3.
#include <cstring>
#include <filesystem>

#include "bench/common.h"
#include "mp/comm.h"

using namespace windar;
using namespace windar::bench;

namespace {

struct RunStats {
  double wall_ms = 0;
  double stall_us_per_ckpt = 0;
  double commit_us_per_ckpt = 0;
  ft::Metrics m;
  ft::CheckpointStoreStats store;
};

RunStats run_once(int ranks, int rounds, int ckpt_every, std::size_t state_kb,
                  std::size_t anchor_k, bool async, bool faulted,
                  const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ft::JobConfig cfg;
  cfg.n = ranks;
  cfg.latency = bench_latency();
  cfg.checkpoint_spill_dir = dir;
  cfg.ckpt_async = async ? 1 : 0;
  cfg.ckpt_delta_anchor = anchor_k;
  cfg.restart_delay_ms = 5;
  if (faulted) {
    cfg.chaos = {ft::kill_at_fraction(1 % ranks, 0.5,
                                      static_cast<std::uint64_t>(rounds))};
  }

  const std::size_t state_bytes = state_kb * 1024;
  auto result = ft::run_job(cfg, [&](ft::Ctx& ctx) {
    const int n = ctx.size();
    const int right = (ctx.rank() + 1) % n;
    const int left = (ctx.rank() + n - 1) % n;
    std::vector<std::uint8_t> state(state_bytes, 0xA5);
    std::uint32_t start = 0;
    if (ctx.restored() && ctx.restored()->size() >= sizeof(start)) {
      std::memcpy(&start, ctx.restored()->data(), sizeof(start));
    }
    for (std::uint32_t round = start;
         round < static_cast<std::uint32_t>(rounds); ++round) {
      mp::send_value(ctx, right, 0, round);
      (void)mp::recv_value<std::uint32_t>(ctx, left, 0);
      // Touch a handful of bytes: realistic iterative-solver dirtiness,
      // so consecutive images differ in a few pages out of hundreds.
      state[(round * 4097) % state_bytes] ^= 0x5A;
      if ((round + 1) % static_cast<std::uint32_t>(ckpt_every) == 0) {
        const std::uint32_t resume_at = round + 1;
        std::memcpy(state.data(), &resume_at, sizeof(resume_at));
        ctx.checkpoint(state);
      }
    }
  });

  RunStats out;
  out.wall_ms = result.wall_ms;
  out.m = result.total;
  out.store = result.checkpoints;
  if (out.m.checkpoints > 0) {
    out.stall_us_per_ckpt = static_cast<double>(out.m.ckpt_stall_ns) / 1e3 /
                            static_cast<double>(out.m.checkpoints);
  }
  if (out.m.ckpt_committed > 0) {
    out.commit_us_per_ckpt = static_cast<double>(out.m.ckpt_commit_ns) / 1e3 /
                             static_cast<double>(out.m.ckpt_committed);
  }
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const int ranks = static_cast<int>(opts.integer("ranks", 4, "ranks"));
  const int rounds = static_cast<int>(opts.integer("rounds", 240, "rounds"));
  const int ckpt_every =
      static_cast<int>(opts.integer("ckpt-every", 8, "rounds per checkpoint"));
  const std::size_t state_kb = static_cast<std::size_t>(
      opts.integer("state-kb", 256, "application state size"));
  const std::size_t anchor_k = static_cast<std::size_t>(
      opts.integer("anchor-k", 8, "full image every K commits"));
  const bool csv = opts.flag("csv", false, "also print CSV");
  const std::string json_path = opts.str(
      "json", "", "also write rows as a JSON array to this path");
  opts.finish();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "windar_ckpt_bench").string();

  util::Table table({"mode", "fault", "wall ms", "ckpts", "committed",
                     "stall us/ckpt", "commit us/ckpt", "delta/fulls",
                     "MB written"});
  JsonRows json_rows;
  JsonRows* const json = json_path.empty() ? nullptr : &json_rows;

  // A healthy row takes well under a second; a minute means it hung.
  Watchdog watchdog(60'000);
  double sync_stall = 0, async_stall = 0;
  for (const bool faulted : {false, true}) {
    for (const bool async : {false, true}) {
      const std::string mode = async ? "async" : "sync";
      const std::string label =
          "ckpt_path mode=" + mode +
          " faulted=" + std::to_string(faulted ? 1 : 0) +
          " ranks=" + std::to_string(ranks) +
          " rounds=" + std::to_string(rounds) +
          " ckpt_every=" + std::to_string(ckpt_every) +
          " state_kb=" + std::to_string(state_kb) +
          " anchor_k=" + std::to_string(anchor_k);
      watchdog.arm(label);
      RunStats r = run_once(ranks, rounds, ckpt_every, state_kb, anchor_k,
                            async, faulted, dir);
      watchdog.disarm();
      WINDAR_CHECK_EQ(r.m.recoveries, faulted ? 1u : 0u) << label;
      if (!faulted) (async ? async_stall : sync_stall) = r.stall_us_per_ckpt;
      table.row({mode, faulted ? "kill r1" : "none", fmt(r.wall_ms, 1),
                 std::to_string(r.m.checkpoints),
                 std::to_string(r.m.ckpt_committed),
                 fmt(r.stall_us_per_ckpt, 1), fmt(r.commit_us_per_ckpt, 1),
                 std::to_string(r.store.delta_saves) + "/" +
                     std::to_string(r.store.full_saves),
                 fmt(static_cast<double>(r.store.bytes_written) / 1e6)});
      if (json) {
        json->field("mode", mode)
            .field("faulted", faulted ? 1 : 0)
            .field("ranks", ranks)
            .field("state_kb", static_cast<std::uint64_t>(state_kb))
            .field("anchor_k", static_cast<std::uint64_t>(anchor_k))
            .field("wall_ms", r.wall_ms)
            .field("checkpoints", r.m.checkpoints)
            .field("committed", r.m.ckpt_committed)
            .field("stall_us_per_ckpt", r.stall_us_per_ckpt)
            .field("commit_us_per_ckpt", r.commit_us_per_ckpt)
            .field("full_saves", r.store.full_saves)
            .field("delta_saves", r.store.delta_saves)
            .field("bytes_written", r.store.bytes_written)
            .field("delta_bytes", r.store.delta_bytes)
            .field("recoveries", r.m.recoveries);
        json->end_row();
      }
    }
  }

  table.print("A10 — checkpoint path: app-thread stall & completion");
  if (sync_stall > 0 && async_stall > 0) {
    std::printf("\nasync stall reduction: %.1fx (sync %.1f us -> async %.1f "
                "us per checkpoint)\n",
                sync_stall / async_stall, sync_stall, async_stall);
  }
  if (csv) std::fputs(table.csv().c_str(), stdout);
  if (json && !json->write(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
