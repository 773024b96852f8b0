// Chaos soak driver: seeded randomized event-keyed fault schedules swept
// across the causal-logging protocols, each run checked for convergence to
// the failure-free digest.
//
//   chaos_soak [--schedules=50] [--seed0=1000] [--protocols=tdi,tdi-d,tag,tel]
//              [--replay=SEED] [--timeout-ms=30000] [--transport=sim|socket]
//              [--logger-shards=N] [--exec=threads|coop|auto] [--verbose]
//
// Every schedule is a pure function of its seed (windar::ft::make_chaos_plan),
// so a failure is replayed from the printed seed alone:
//
//   chaos_soak --replay=1017
//
// The summary's qb_peak column is the deepest queue B (messages parked
// awaiting delivery, Metrics::queue_b_peak) that any rank reached in the
// protocol's faulty runs; socket runs do not report it.
//
// --transport=socket runs every faulty schedule as real OS processes over
// Unix-domain sockets: chaos kills become actual SIGKILLs and recovery is
// driven by respawned incarnations restoring from disk checkpoints
// (windar/launcher.h).  The clean baseline digest is computed in-process —
// the ring digest is a pure function of the delivered values, identical
// across transports — so convergence still certifies exactly-once ordered
// delivery.  (The binary re-execs itself as the per-rank worker.)
//
// A per-run watchdog flags hangs: if one (plan, protocol) run exceeds
// --timeout-ms the driver prints "FAIL seed=... (hang)" and exits nonzero,
// leaving the seed on stdout for replay.  Exit status: 0 iff every run
// converged.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "net/transport.h"
#include "tests/chaos_app.h"
#include "util/parse.h"
#include "windar/launcher.h"

namespace {

using namespace windar;
using namespace windar::ft;

struct SoakOptions {
  int schedules = 50;
  std::uint64_t seed0 = 1000;
  std::vector<ProtocolKind> protocols;
  std::uint64_t replay = 0;  // 0: sweep mode
  double timeout_ms = 30000;
  net::TransportKind transport = net::TransportKind::kSim;
  int logger_shards = 0;  // TEL/PES logger shards (0 = env/default)
  exec::ExecModel exec_model = exec::ExecModel::kAuto;
  bool verbose = false;  // socket runs: the launcher narrates to stderr
};

SoakOptions parse_args(int argc, char** argv) {
  util::Options opts(argc, argv);
  SoakOptions opt;
  opt.schedules =
      static_cast<int>(opts.integer("schedules", 50, "plans per protocol"));
  opt.seed0 = static_cast<std::uint64_t>(
      opts.integer("seed0", 1000, "seed of the first plan"));
  opt.protocols = bench::parse_protocol_list(
      opts.str("protocols", "tdi,tdi-d,tag,tel", "protocols to soak"));
  opt.replay = static_cast<std::uint64_t>(
      opts.integer("replay", 0, "replay one plan by its seed (0 = sweep)"));
  opt.timeout_ms = opts.real("timeout-ms", 30000, "per-run hang bound");
  const std::string tname =
      opts.str("transport", net::to_string(net::default_transport()),
               "sim | socket (one OS process per rank)");
  WINDAR_CHECK(net::parse_transport(tname, &opt.transport))
      << "unknown transport '" << tname << "'";
  opt.logger_shards = static_cast<int>(opts.integer(
      "logger-shards", 0, "TEL/PES logger shards (0 = env/default)"));
  const std::string ename =
      opts.str("exec", "auto", "threads | coop | auto");
  WINDAR_CHECK(exec::parse_exec_model(ename, &opt.exec_model))
      << "unknown exec model '" << ename << "'";
  opt.verbose = opts.flag(
      "verbose", false,
      "socket runs: narrate launcher spawns, reaps, respawns and ALLDONE");
  opts.finish();
  return opt;
}

struct Tally {
  int runs = 0;
  int divergences = 0;
  std::uint64_t triggers = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t rollback_broadcasts = 0;
  std::uint64_t queue_b_peak = 0;  // deepest queue B of any rank and run
};

// Socket-mode worker entry: the launcher re-execs this binary with
// --windar-* flags plus our own --iters/--ckpt app arguments.
int soak_worker_main(int argc, char** argv) {
  const WorkerConfig cfg = WorkerConfig::parse(argc, argv);
  int iters = 30;
  int ckpt = 5;
  for (const std::string& a : cfg.app_args) {
    if (a.rfind("--iters=", 0) == 0) {
      iters = util::parse_number<int>(a.substr(8), "--iters");
    }
    if (a.rfind("--ckpt=", 0) == 0) {
      ckpt = util::parse_number<int>(a.substr(7), "--ckpt");
    }
  }
  return run_worker(cfg, [iters, ckpt](Ctx& ctx) {
    return ft::chaos::ring_digest_rank(ctx, iters, ckpt);
  });
}

// One faulty schedule as real processes with real SIGKILLs.
MultiProcResult run_plan_multiproc(const ChaosPlan& plan, ProtocolKind proto,
                                   double timeout_ms, int logger_shards,
                                   bool verbose) {
  LaunchSpec spec;
  spec.job = ft::chaos::plan_config(plan, proto, /*with_faults=*/true,
                                    logger_shards);
  spec.worker_args = {"--iters=" + std::to_string(plan.iterations),
                      "--ckpt=" + std::to_string(plan.checkpoint_every)};
  spec.timeout_ms = timeout_ms;
  spec.verbose = verbose;
  return run_multiproc_job(spec);
}

}  // namespace

int main(int argc, char** argv) {
  if (WorkerConfig::is_worker_invocation(argc, argv)) {
    return soak_worker_main(argc, argv);
  }
  const SoakOptions opt = parse_args(argc, argv);
  const bool replay = opt.replay != 0;
  const bool socket = opt.transport == net::TransportKind::kSocket;
  bench::Watchdog watchdog(opt.timeout_ms * (socket ? 2 : 1));

  int failures = 0;
  std::printf("%-10s %-6s %-9s %-9s %-9s %-8s %-7s %s\n", "protocol", "runs",
              "diverged", "triggers", "recov", "rb_bcast", "qb_peak",
              "status");
  for (const ProtocolKind proto : opt.protocols) {
    const std::string pname = to_string(proto);
    Tally tally;
    for (int s = 0; s < (replay ? 1 : opt.schedules); ++s) {
      const std::uint64_t seed = replay ? opt.replay : opt.seed0 + s;
      const ChaosPlan plan = make_chaos_plan(seed);
      if (replay) std::printf("replaying %s\n", plan.describe().c_str());
      watchdog.arm("seed=" + std::to_string(seed) + " proto=" + pname);
      // The clean baseline is always computed in-process: the digest is a
      // pure function of the delivered values, identical on either backend,
      // and the simulated run is far cheaper than n fault-free processes.
      const auto clean = ft::chaos::run_plan(plan, proto, false,
                                             opt.logger_shards,
                                             opt.exec_model);
      std::uint64_t faulty_digest = 0;
      std::uint64_t triggers = 0;
      std::uint64_t recoveries = 0;
      std::uint64_t rollback_broadcasts = 0;
      std::uint64_t queue_b_peak = 0;
      bool run_ok = true;
      std::string run_error;
      if (socket) {
        const auto faulty =
            run_plan_multiproc(plan, proto, opt.timeout_ms, opt.logger_shards,
                               opt.verbose);
        faulty_digest = faulty.digest;
        triggers = faulty.chaos_triggers_fired;
        recoveries = faulty.recoveries;
        run_ok = faulty.ok;
        run_error = faulty.error;
      } else {
        const auto faulty = ft::chaos::run_plan(plan, proto, true,
                                                opt.logger_shards,
                                                opt.exec_model);
        faulty_digest = faulty.digest;
        triggers = faulty.result.chaos_triggers_fired;
        recoveries = faulty.result.total.recoveries;
        rollback_broadcasts = faulty.result.total.rollback_broadcasts;
        queue_b_peak = faulty.result.total.queue_b_peak;
      }
      watchdog.disarm();
      ++tally.runs;
      tally.triggers += triggers;
      tally.recoveries += recoveries;
      tally.rollback_broadcasts += rollback_broadcasts;
      tally.queue_b_peak = std::max(tally.queue_b_peak, queue_b_peak);
      if (!run_ok || clean.digest != faulty_digest) {
        ++tally.divergences;
        ++failures;
        if (!run_ok) {
          std::printf("FAIL seed=%llu proto=%s (%s)\n",
                      static_cast<unsigned long long>(seed), pname.c_str(),
                      run_error.c_str());
        } else {
          std::printf(
              "FAIL seed=%llu proto=%s (digest %llu != clean %llu)\n",
              static_cast<unsigned long long>(seed), pname.c_str(),
              static_cast<unsigned long long>(faulty_digest),
              static_cast<unsigned long long>(clean.digest));
        }
        std::printf("  plan: %s\n", plan.describe().c_str());
      } else if (replay) {
        std::printf("OK seed=%llu proto=%s triggers=%llu recov=%llu\n",
                    static_cast<unsigned long long>(seed), pname.c_str(),
                    static_cast<unsigned long long>(triggers),
                    static_cast<unsigned long long>(recoveries));
      }
    }
    std::printf("%-10s %-6d %-9d %-9llu %-9llu %-8llu %-7llu %s\n",
                pname.c_str(), tally.runs, tally.divergences,
                static_cast<unsigned long long>(tally.triggers),
                static_cast<unsigned long long>(tally.recoveries),
                static_cast<unsigned long long>(tally.rollback_broadcasts),
                static_cast<unsigned long long>(tally.queue_b_peak),
                tally.divergences == 0 ? "ok" : "DIVERGED");
    std::fflush(stdout);
  }
  return failures == 0 ? 0 : 1;
}
