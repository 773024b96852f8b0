// Multi-process job launcher: one real OS process per rank, SIGKILL faults.
//
// The simulated runtime (runtime.h) models a cluster inside one address
// space.  This launcher runs the same protocol stack across *real* process
// boundaries: it fork/execs one worker process per rank (re-invoking the
// embedding binary with `--windar-*` flags), wires them together over
// net::SocketTransport, and injects faults by delivering an actual SIGKILL —
// the kernel reclaims the victim mid-syscall, half-written frames and all —
// then respawns a spare process as the next incarnation, which restores from
// the checkpoint spill directory and drives the ordinary ROLLBACK/RESPONSE
// recovery against the survivors.
//
// Job directory layout (created fresh per job, removed on success):
//   <dir>/data/ep<k>.sock   data-plane sockets (ranks 0..n-1, logger at n)
//   <dir>/ctrl/ep<k>.sock   control-plane sockets (launcher at endpoint n)
//   <dir>/ckpt/             checkpoint spill — the job's stable storage
//
// The control plane is a second SocketTransport (its own socket directory)
// so launcher coordination never flows through Process::dispatch and the
// data-plane stats stay comparable with the simulated fabric's:
//   JOIN     worker -> launcher   "rank k, incarnation i, listener bound"
//   GO       launcher -> worker   start barrier (all n joined; respawned
//                                 incarnations get an immediate GO)
//   DONE     worker -> launcher   rank function returned, payload = digest
//   KILLREQ  worker -> launcher   a chaos kill fired here: which event, the
//                                 revive hint — sent just before the worker
//                                 SIGKILLs itself (or names another target)
//   ALLDONE  launcher -> worker   every rank done and no recovery in flight;
//                                 parked workers may drain and exit
//   BYE      worker -> launcher   final transport stats + app counters
//
// Event-keyed chaos in real processes: the schedule is serialized onto every
// worker's command line and armed against its local data transport.  A kill
// event fires inside the process that hosts its matched endpoint (kSend
// matches at the sender, kDeliver at the receiver): the handler reports the
// fired event to the launcher, flushes, and SIGKILLs itself — a crash at the
// exact protocol point the event names.  An event whose `target` names
// another rank is an external kill: the launcher SIGKILLs the target on the
// report.  One-shot kills that already fired are left
// off the schedule handed to later spawns, so a fresh process does not re-arm
// them (the in-process schedule is job-global; a per-process copy that kept
// them would re-kill every incarnation forever).
//
// Known deviations from the simulated runtime, by design:
//   * revive_after_packets (a fabric-wide delivered-packet count) cannot be
//     observed across processes; the launcher approximates it as extra
//     restart delay.
//   * a SIGKILLed incarnation's transport stats die with it, so the merged
//     job stats only balance for fault-free runs (see net/transport.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/chaos.h"
#include "net/transport.h"
#include "windar/runtime.h"

namespace windar::ft {

// ---------------------------------------------------------------------------
// Chaos schedule <-> command-line spec string
// ---------------------------------------------------------------------------

/// Encodes events as "when,action,endpoint,kind,nth,target,delay_us,revive,
/// repeat" records joined by ';' — compact enough for an argv, parseable
/// without touching the event list's meaning.
std::string encode_chaos(const std::vector<net::ChaosEvent>& events);
std::vector<net::ChaosEvent> decode_chaos(const std::string& spec);

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Everything a worker process needs, parsed from the `--windar-*` flags the
/// launcher put on its command line.
struct WorkerConfig {
  /// The resolved job, restricted to the fields a worker uses (see
  /// LaunchSpec::job); `job.chaos` stays empty — the worker arms `chaos`.
  JobConfig job;
  int rank = 0;
  std::string dir;  // job directory (data/, ctrl/, ckpt/ live under it)
  std::uint32_t incarnation = 0;
  bool recovering = false;
  double timeout_ms = 120000;  // suicide watchdog (launcher died / wedged)
  std::vector<net::ChaosEvent> chaos;  // fired one-shot kills left out

  /// argv with every `--windar-*` flag stripped: what the embedding binary
  /// should feed its own option parser to recover its app arguments.
  std::vector<std::string> app_args;

  /// True iff argv carries `--windar-rank=`: this invocation is a worker,
  /// not a user-facing run.  Check this first in main().
  static bool is_worker_invocation(int argc, char** argv);
  /// Decodes the `--windar-*` flags encode_worker wrote; every other
  /// argument lands in app_args.  A malformed or unknown flag is fatal.
  static WorkerConfig parse(int argc, char** argv);
};

/// The `--windar-*` flags that make WorkerConfig::parse return `cfg` (all
/// fields but app_args).
std::vector<std::string> encode_worker(const WorkerConfig& cfg);

/// The worker's rank function: same Ctx surface as the simulated runtime,
/// returning this rank's result digest (any deterministic function of the
/// delivered values; the launcher folds them as sum of digest % 1000000007,
/// matching the chaos soak's combine).
using WorkerFn = std::function<std::uint64_t(Ctx&)>;

/// Runs the full worker lifecycle (JOIN, GO, rank function, DONE, park until
/// ALLDONE, BYE) and returns the process exit code.  Call from main() when
/// WorkerConfig::is_worker_invocation() is true and return its result.
int run_worker(const WorkerConfig& cfg, const WorkerFn& fn);

// ---------------------------------------------------------------------------
// Launcher side
// ---------------------------------------------------------------------------

struct LaunchSpec {
  /// Job shape, resolved once by the launcher.  Forwarded to every worker:
  /// n, protocol, mode, seed, eager_threshold, rollback_retry/cap,
  /// logger_shards, ckpt_async, ckpt_delta_anchor, replay_burst, chaos.
  /// Used by the launcher itself: restart_delay_ms, logger_storage_delay.
  /// Ignored, as they cannot apply to
  /// separate processes: latency (the sockets are real), fabric_shards and
  /// exec_* (no in-process fabric or scheduler), trace (a recorder spans one
  /// address space), checkpoint_spill_dir (the job directory's ckpt/ is the
  /// stable store).
  JobConfig job;
  /// Forwarded verbatim to every worker before the `--windar-*` flags: the
  /// embedding binary's own app arguments.
  std::vector<std::string> worker_args;
  std::string exe;      // binary to exec; empty = /proc/self/exe
  std::string job_dir;  // empty = fresh /tmp/windar_job_XXXXXX
  bool keep_dir = false;
  double timeout_ms = 120000;  // whole-job watchdog
  bool verbose = false;        // narrate spawns/kills/respawns to stderr
};

struct MultiProcResult {
  JobConfig config;   // the resolved configuration the job ran
  bool ok = false;
  std::string error;  // set when !ok
  double wall_ms = 0;
  /// Sum over ranks of (rank digest % 1000000007) — the soak combine.
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> rank_digest;
  std::uint64_t recoveries = 0;  // respawned incarnations (SIGKILLs recovered)
  std::uint64_t chaos_triggers_fired = 0;
  /// Merged over every surviving process's transport (final incarnations +
  /// launcher-side logger); balances only for fault-free jobs.
  net::FabricStats fabric;
  std::uint64_t app_sent = 0;
  std::uint64_t app_delivered = 0;
  std::uint64_t checkpoints = 0;
  LoggerStats logger;  // TEL/PES, summed over the launcher-hosted shards
};

/// Launches `job.n` worker processes, runs the job (faults and all) to
/// completion, and tears everything down.  Never throws on worker failure —
/// inspect `ok`/`error`.
MultiProcResult run_multiproc_job(const LaunchSpec& spec);

}  // namespace windar::ft
