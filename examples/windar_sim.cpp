// windar_sim — full command-line driver for the recovery stack.
//
// Runs any built-in workload under any protocol / send mode / kill
// schedule, prints the overhead metrics, and (optionally) records and
// validates the causal event trace.  `--kills=rank@nth` kills a rank on its
// nth application delivery; the run fails unless every scheduled kill
// produced a recovery.  This is the "everything in one binary"
// surface for experimenting beyond the canned benchmarks.
//
// Examples:
//   ./windar_sim --app=lu --ranks=16 --protocol=tag
//   ./windar_sim --app=ring --ranks=8 --kills=2@10,3@25 --trace
//   ./windar_sim --app=bt --mode=blocking --ckpt-every=4 --repeat=3
//
// --transport=socket (or WINDAR_TRANSPORT=socket) runs the job as one real
// OS process per rank over Unix-domain sockets: the binary re-execs itself
// as each worker, kills become actual SIGKILLs, and recovery restores from
// disk checkpoints (windar/launcher.h).
//
//   ./windar_sim --app=ring --ranks=8 --transport=socket --kills=2@10
#include <atomic>
#include <cstdio>

#include "mp/collectives.h"
#include "net/transport.h"
#include "npb/driver.h"
#include "util/options.h"
#include "util/parse.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/wait.h"
#include "windar/launcher.h"
#include "windar/runtime.h"
#include "windar/trace.h"

using namespace windar;

namespace {

/// Parses "rank@nth,rank@nth,...": kill `rank` on its nth application
/// delivery.  Anything else is fatal.
std::vector<net::ChaosEvent> parse_kills(const std::string& s) {
  std::vector<net::ChaosEvent> out;
  if (s.empty()) return out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    auto comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    const auto at = item.find('@');
    WINDAR_CHECK(at != std::string::npos)
        << "kill syntax is rank@nth, got '" << item << "'";
    const auto nth = util::parse_number<std::uint64_t>(item.substr(at + 1),
                                                       "kill delivery");
    WINDAR_CHECK_GT(nth, 0u) << "kill deliveries count from 1";
    out.push_back(ft::kill_on_delivery(
        util::parse_number<int>(item.substr(0, at), "kill rank"), nth));
    pos = comma + 1;
  }
  return out;
}

// Built-in non-NPB workloads.
void ring_workload(ft::Ctx& ctx, int rounds, int ckpt_every) {
  const int n = ctx.size();
  int start = 0;
  if (ctx.restored()) {
    util::ByteReader r(*ctx.restored());
    start = r.i32();
  }
  for (int i = start; i < rounds; ++i) {
    if (ckpt_every > 0 && i > 0 && i % ckpt_every == 0) {
      util::ByteWriter w;
      w.i32(i);
      ctx.checkpoint(w.view());
    }
    mp::send_value(ctx, (ctx.rank() + 1) % n, 0, i);
    (void)mp::recv_value<int>(ctx, (ctx.rank() + n - 1) % n, 0);
    util::coop_sleep_for(std::chrono::microseconds(200));
  }
}

void alltoall_workload(ft::Ctx& ctx, int rounds, int ckpt_every) {
  const int n = ctx.size();
  int start = 0;
  if (ctx.restored()) {
    util::ByteReader r(*ctx.restored());
    start = r.i32();
  }
  for (int i = start; i < rounds; ++i) {
    if (ckpt_every > 0 && i > 0 && i % ckpt_every == 0) {
      util::ByteWriter w;
      w.i32(i);
      ctx.checkpoint(w.view());
    }
    for (int d = 0; d < n; ++d) {
      if (d != ctx.rank()) mp::send_value(ctx, d, i, ctx.rank());
    }
    for (int j = 0; j < n - 1; ++j) (void)ctx.recv(mp::kAnySource, i);
    util::coop_sleep_for(std::chrono::microseconds(200));
  }
}

struct SimOptions {
  std::string app;
  int ranks = 8;
  ft::ProtocolKind protocol = ft::ProtocolKind::kTdi;
  bool blocking = false;
  int rounds = 40;
  int ckpt_every = 8;
  double scale = 1.0;
  std::vector<net::ChaosEvent> kills;
  bool trace = false;
  bool dump_trace = false;
  int repeat = 1;
  std::uint64_t seed = 1;
  net::TransportKind transport = net::default_transport();
  exec::ExecModel exec_model = exec::ExecModel::kAuto;
  int exec_workers = 0;
  int logger_shards = 0;
};

SimOptions parse_sim_options(int argc, char** argv) {
  util::Options opts(argc, argv);
  SimOptions o;
  o.app = opts.str("app", "ring", "lu | bt | sp | ring | alltoall");
  o.ranks = static_cast<int>(opts.integer("ranks", 8, "process count"));
  const std::string protocol =
      opts.str("protocol", "tdi", "tdi | tdi-s | tdi-d | tag | tel | pes");
  const auto kind = ft::parse_protocol(protocol);
  WINDAR_CHECK(kind) << "unknown protocol '" << protocol << "'";
  o.protocol = *kind;
  o.blocking =
      opts.str("mode", "nonblocking", "blocking | nonblocking") == "blocking";
  o.rounds = static_cast<int>(opts.integer("rounds", 40, "workload rounds"));
  o.ckpt_every = static_cast<int>(
      opts.integer("ckpt-every", 8, "checkpoint cadence (0=off)"));
  o.scale = opts.real("scale", 1.0, "NPB iteration scale");
  o.kills = parse_kills(opts.str(
      "kills", "", "kill schedule, e.g. 2@10,3@25 (rank@nth delivery)"));
  o.trace = opts.flag("trace", false, "record + validate causal trace");
  o.dump_trace = opts.flag("dump-trace", false, "print the event log");
  o.repeat = static_cast<int>(opts.integer("repeat", 1, "repetitions"));
  o.seed =
      static_cast<std::uint64_t>(opts.integer("seed", 1, "network seed"));
  std::string tname = opts.str("transport", to_string(o.transport),
                               "sim | socket (one OS process per rank)");
  WINDAR_CHECK(net::parse_transport(tname, &o.transport))
      << "unknown transport '" << tname << "'";
  const std::string ename =
      opts.str("exec", "auto",
               "threads | coop | auto (rank execution model; coop "
               "multiplexes ranks on a fixed worker pool)");
  WINDAR_CHECK(exec::parse_exec_model(ename, &o.exec_model))
      << "unknown exec model '" << ename << "'";
  o.exec_workers = static_cast<int>(
      opts.integer("exec-workers", 0, "coop worker pool size (0=default)"));
  o.logger_shards = static_cast<int>(opts.integer(
      "logger-shards", 0,
      "TEL/PES event-logger shards, shard = rank % N (0 = "
      "WINDAR_LOGGER_SHARDS, else 1)"));
  opts.finish();
  return o;
}

std::function<void(ft::Ctx&)> make_workload(const SimOptions& o) {
  if (o.app == "ring") {
    return [o](ft::Ctx& ctx) { ring_workload(ctx, o.rounds, o.ckpt_every); };
  }
  if (o.app == "alltoall") {
    return
        [o](ft::Ctx& ctx) { alltoall_workload(ctx, o.rounds, o.ckpt_every); };
  }
  npb::App napp = o.app == "bt"   ? npb::App::kBT
                  : o.app == "sp" ? npb::App::kSP
                                  : npb::App::kLU;
  npb::Params params = npb::make_params(napp, o.ranks, o.scale);
  params.checkpoint_every = o.ckpt_every;
  return [params](ft::Ctx& ctx) { (void)npb::run_app(ctx, params, &ctx); };
}

// Socket-mode worker entry: the launcher re-execs this binary with the
// original app flags plus the --windar-* block; rebuild the same workload
// from the forwarded flags and run it under the worker lifecycle.
int sim_worker_main(int argc, char** argv) {
  const ft::WorkerConfig cfg = ft::WorkerConfig::parse(argc, argv);
  std::vector<char*> av;
  av.reserve(cfg.app_args.size());
  for (const std::string& s : cfg.app_args) {
    av.push_back(const_cast<char*>(s.c_str()));
  }
  SimOptions o = parse_sim_options(static_cast<int>(av.size()), av.data());
  o.ranks = cfg.job.n;  // the launcher's rank count is authoritative
  auto workload = make_workload(o);
  return ft::run_worker(cfg, [&workload](ft::Ctx& ctx) -> std::uint64_t {
    workload(ctx);
    return 0;  // these workloads carry no digest; convergence is the soak's job
  });
}

int run_socket_mode(const SimOptions& o, int argc, char** argv) {
  if (o.trace || o.dump_trace) {
    std::fprintf(stderr,
                 "windar_sim: --trace spans one address space; "
                 "unsupported with --transport=socket\n");
    return 2;
  }
  ft::LaunchSpec spec;
  spec.job.n = o.ranks;
  spec.job.protocol = o.protocol;
  spec.job.mode =
      o.blocking ? ft::SendMode::kBlocking : ft::SendMode::kNonBlocking;
  spec.job.chaos = o.kills;
  spec.job.logger_shards = o.logger_shards;
  // Forward the user's flags verbatim; each worker re-parses them.
  for (int i = 1; i < argc; ++i) spec.worker_args.push_back(argv[i]);

  util::Table table({"run", "wall ms", "msgs", "recoveries", "pkts sent",
                     "delivered", "MB wire"});
  bool ok = true;
  for (int rep = 0; rep < o.repeat; ++rep) {
    spec.job.seed = o.seed + static_cast<std::uint64_t>(rep);
    const ft::MultiProcResult r = ft::run_multiproc_job(spec);
    if (!r.ok) {
      std::fprintf(stderr, "windar_sim: job failed: %s\n", r.error.c_str());
      ok = false;
    } else if (r.recoveries != o.kills.size()) {
      std::fprintf(stderr, "windar_sim: %llu recoveries for %zu kills\n",
                   static_cast<unsigned long long>(r.recoveries),
                   o.kills.size());
      ok = false;
    }
    table.row({std::to_string(rep), util::fmt_double(r.wall_ms, 1),
               std::to_string(r.app_sent), std::to_string(r.recoveries),
               std::to_string(r.fabric.packets_sent),
               std::to_string(r.fabric.packets_delivered),
               util::fmt_double(
                   static_cast<double>(r.fabric.bytes_sent) / 1e6, 2)});
  }
  table.print("windar_sim — " + o.app + " / " + to_string(o.protocol) +
              " / socket (" + std::to_string(o.ranks) + " processes)");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (ft::WorkerConfig::is_worker_invocation(argc, argv)) {
    return sim_worker_main(argc, argv);
  }
  const SimOptions o = parse_sim_options(argc, argv);
  if (o.transport == net::TransportKind::kSocket) {
    return run_socket_mode(o, argc, argv);
  }

  ft::JobConfig cfg;
  cfg.n = o.ranks;
  cfg.protocol = o.protocol;
  cfg.mode = o.blocking ? ft::SendMode::kBlocking : ft::SendMode::kNonBlocking;
  cfg.latency = net::LatencyModel::turbulent();
  cfg.seed = o.seed;
  cfg.exec_model = o.exec_model;
  cfg.exec_workers = o.exec_workers;
  cfg.logger_shards = o.logger_shards;
  cfg.chaos = o.kills;
  ft::TraceSink sink;
  if (o.trace || o.dump_trace) cfg.trace = &sink;

  auto workload = make_workload(o);
  ft::FtRankFn fn = [&workload](ft::Ctx& ctx) { workload(ctx); };

  util::Table table({"run", "wall ms", "msgs", "idents/msg", "pb B/msg",
                     "pb ratio", "resyncs", "track us/msg", "ctrl msgs",
                     "recoveries", "dup", "resent"});
  bool ok = true;
  for (int rep = 0; rep < o.repeat; ++rep) {
    cfg.seed = o.seed + static_cast<std::uint64_t>(rep);
    sink.clear();
    auto result = ft::run_job(cfg, fn);
    const ft::Metrics& m = result.total;
    if (m.recoveries != o.kills.size()) {
      std::fprintf(stderr,
                   "windar_sim: run %d: %llu recoveries for %zu kills\n", rep,
                   static_cast<unsigned long long>(m.recoveries),
                   o.kills.size());
      ok = false;
    }
    const double pb_per_msg =
        m.app_sent ? static_cast<double>(m.piggyback_bytes_sent) /
                         static_cast<double>(m.app_sent)
                   : 0.0;
    table.row({std::to_string(rep), util::fmt_double(result.wall_ms, 1),
               std::to_string(m.app_sent),
               util::fmt_double(m.avg_piggyback_idents(), 2),
               util::fmt_double(pb_per_msg, 1),
               util::fmt_double(m.piggyback_compression(), 3),
               std::to_string(m.piggyback_resyncs),
               util::fmt_double(m.avg_track_us(), 3),
               std::to_string(m.control_msgs),
               std::to_string(m.recoveries), std::to_string(m.dup_dropped),
               std::to_string(m.resent_msgs)});
    if (o.dump_trace) std::fputs(sink.dump().c_str(), stdout);
    if (o.trace) {
      const auto verdict = ft::validate_trace(sink.snapshot(), o.ranks);
      if (verdict.ok()) {
        std::printf("trace: OK (%llu deliveries, %llu sends validated)\n",
                    static_cast<unsigned long long>(verdict.deliveries_checked),
                    static_cast<unsigned long long>(verdict.sends_checked));
      } else {
        std::printf("trace: %zu VIOLATIONS, first: %s\n",
                    verdict.violations.size(),
                    verdict.violations[0].c_str());
        return 1;
      }
    }
  }
  table.print("windar_sim — " + o.app + " / " + to_string(cfg.protocol) +
              " / " + to_string(cfg.mode));
  return ok ? 0 : 1;
}
