// Chaos soak driver: seeded randomized event-keyed fault schedules swept
// across the causal-logging protocols, each run checked for convergence to
// the failure-free digest.
//
//   chaos_soak [--schedules=50] [--seed0=1000] [--protocols=tdi,tag,tel]
//              [--replay=SEED] [--timeout-ms=30000] [--transport=sim|socket]
//              [--logger-shards=N] [--exec=threads|coop|auto]
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
#include <cstdlib>
#include <cstring>
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

struct Options {
  int schedules = 50;
  std::uint64_t seed0 = 1000;
  std::vector<ProtocolKind> protocols = {ProtocolKind::kTdi,
                                         ProtocolKind::kTdiDelta,
                                         ProtocolKind::kTag,
                                         ProtocolKind::kTel};
  std::uint64_t replay = 0;  // 0: sweep mode
  double timeout_ms = 30000;
  net::TransportKind transport = net::default_transport();
  int logger_shards = 0;  // TEL/PES logger shards (0 = env/default)
  exec::ExecModel exec_model = exec::ExecModel::kAuto;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--schedules=", 0) == 0) {
      opt.schedules = util::parse_number<int>(value("--schedules="),
                                              "--schedules");
    } else if (arg.rfind("--seed0=", 0) == 0) {
      opt.seed0 =
          util::parse_number<std::uint64_t>(value("--seed0="), "--seed0");
    } else if (arg.rfind("--replay=", 0) == 0) {
      opt.replay =
          util::parse_number<std::uint64_t>(value("--replay="), "--replay");
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      opt.timeout_ms =
          util::parse_number<double>(value("--timeout-ms="), "--timeout-ms");
    } else if (arg.rfind("--logger-shards=", 0) == 0) {
      opt.logger_shards = util::parse_number<int>(value("--logger-shards="),
                                                  "--logger-shards");
    } else if (arg.rfind("--exec=", 0) == 0) {
      if (!exec::parse_exec_model(value("--exec="), &opt.exec_model)) {
        std::fprintf(stderr, "unknown exec model '%s'\n", value("--exec="));
        std::exit(2);
      }
    } else if (arg.rfind("--transport=", 0) == 0) {
      if (!net::parse_transport(value("--transport="), &opt.transport)) {
        std::fprintf(stderr, "unknown transport '%s'\n",
                     value("--transport="));
        std::exit(2);
      }
    } else if (arg.rfind("--protocols=", 0) == 0) {
      opt.protocols = bench::parse_protocol_list(value("--protocols="));
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      std::exit(2);
    }
  }
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
                                   double timeout_ms, int logger_shards) {
  LaunchSpec spec;
  spec.job = ft::chaos::plan_config(plan, proto, /*with_faults=*/true,
                                    logger_shards);
  spec.worker_args = {"--iters=" + std::to_string(plan.iterations),
                      "--ckpt=" + std::to_string(plan.checkpoint_every)};
  spec.timeout_ms = timeout_ms;
  spec.verbose = std::getenv("WINDAR_LAUNCH_VERBOSE") != nullptr;
  return run_multiproc_job(spec);
}

}  // namespace

int main(int argc, char** argv) {
  if (WorkerConfig::is_worker_invocation(argc, argv)) {
    return soak_worker_main(argc, argv);
  }
  const Options opt = parse_args(argc, argv);
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
            run_plan_multiproc(plan, proto, opt.timeout_ms, opt.logger_shards);
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
