// Ablation A3: rolling-forward overhead — TDI's dependency-gated replay
// versus the PWD baselines' exact-order replay (paper §III.A and §V's
// "proactive perception of delivery order").
//
// Workload: a fan-in ANY_SOURCE aggregator (rank 0) fed by all other ranks —
// independent messages whose arrival order is scrambled by fabric jitter.
// Rank 0 is crashed mid-run and must roll forward.  Under TDI, resent
// messages are deliverable the moment they arrive (their depend_interval
// gate is already satisfied); under TAG/TEL the incarnation must first
// gather determinants from every survivor and then deliver in exactly the
// recorded order, holding early arrivals in the receiving queue.  We report
// the fault-to-finish recovery cost (faulted wall time minus failure-free
// wall time) per protocol.  The crash is event-keyed: rank 0 dies on the
// delivery 60% of the way through its failure-free deliveries, and a run
// whose kill does not produce exactly one recovery aborts.
//
//   ./abl_replay [--ranks=8] [--rounds=40] [--repeats=5]
#include "bench/common.h"
#include "mp/comm.h"

using namespace windar;
using namespace windar::bench;

namespace {

void fanin_app(ft::Ctx& ctx, int rounds) {
  const int n = ctx.size();
  if (ctx.rank() == 0) {
    long long sum = 0;
    int start = 0;
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
      sum = r.i64();
    }
    for (int round = start; round < rounds; ++round) {
      if (round > 0 && round % 8 == 0) {
        util::ByteWriter w;
        w.i32(round);
        w.i64(sum);
        ctx.checkpoint(w.view());
      }
      for (int i = 1; i < n; ++i) {
        sum += mp::recv_value<int>(ctx);  // ANY_SOURCE fan-in
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  } else {
    for (int round = 0; round < rounds; ++round) {
      mp::send_value(ctx, 0, 1, ctx.rank() + round);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const int ranks = static_cast<int>(opts.integer("ranks", 8, "ranks"));
  const int rounds = static_cast<int>(opts.integer("rounds", 40, "rounds"));
  const int repeats = static_cast<int>(opts.integer("repeats", 5, "medians"));
  const bool csv = opts.flag("csv", false, "also print CSV");
  opts.finish();

  util::Table table({"protocol", "clean ms", "faulted ms", "recovery cost ms",
                     "resent msgs", "dup dropped"});

  for (auto proto : {ft::ProtocolKind::kTdi, ft::ProtocolKind::kTag,
                     ft::ProtocolKind::kTel, ft::ProtocolKind::kPes}) {
    util::Samples clean_ms, faulted_ms;
    std::uint64_t resent = 0, dups = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      ft::JobConfig cfg;
      cfg.n = ranks;
      cfg.protocol = proto;
      cfg.latency = bench_latency();
      cfg.seed = 1 + static_cast<std::uint64_t>(rep);
      cfg.restart_delay_ms = 5;
      const std::string label = "protocol=" + to_string(proto) +
                                " seed=" + std::to_string(cfg.seed);
      auto clean = bounded_run_job(cfg, label + " clean",
                                   [&](ft::Ctx& c) { fanin_app(c, rounds); });
      clean_ms.add(clean.wall_ms);

      cfg.chaos = {
          ft::kill_at_fraction(0, 0.6, clean.per_rank[0].app_delivered)};
      auto faulted = bounded_run_job(cfg, label + " faulted",
                                     [&](ft::Ctx& c) { fanin_app(c, rounds); });
      WINDAR_CHECK_EQ(faulted.total.recoveries, 1u)
          << label << " kill=0@" << cfg.chaos[0].nth;
      faulted_ms.add(faulted.wall_ms);
      resent += faulted.total.resent_msgs;
      dups += faulted.total.dup_dropped;
    }
    table.row({to_string(proto), fmt(clean_ms.median(), 1),
               fmt(faulted_ms.median(), 1),
               fmt(faulted_ms.median() - clean_ms.median(), 1),
               std::to_string(resent / repeats),
               std::to_string(dups / repeats)});
  }

  table.print("Ablation A3 — rolling-forward cost: dependency-gated (TDI) vs "
              "PWD-ordered replay (TAG/TEL)");
  if (csv) std::fputs(table.csv().c_str(), stdout);
  return 0;
}
