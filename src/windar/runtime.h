// Fault-tolerant job runtime.
//
// run_job spawns one supervisor thread per rank.  The supervisor constructs
// the rank's Process (fresh, or recovering from the last checkpoint), runs
// the application function, and — when a chaos kill (JobConfig::chaos)
// poisons the rank — catches Killed, waits the restart delay (a spare node
// taking over), and relaunches an incarnation.  Ranks that finish park their Process to keep
// serving ROLLBACK/RESPONSE traffic until every rank is done, so a late
// recovery can still pull logged messages from completed peers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exec/scheduler.h"
#include "mp/comm.h"
#include "net/latency.h"
#include "windar/checkpoint.h"
#include "windar/event_logger.h"
#include "windar/metrics.h"
#include "windar/process.h"
#include "windar/trace.h"
#include "windar/wire.h"

namespace windar::ft {

/// One job's whole configuration, whichever runtime runs it.  The fields
/// marked "0 resolves" / "-1 resolves" are sentinels that
/// resolve_job_config() turns into concrete values (reading the WINDAR_*
/// environment defaults); run_job and run_multiproc_job resolve once at job
/// start and read only the result.
struct JobConfig {
  int n = 4;
  ProtocolKind protocol = ProtocolKind::kTdi;
  SendMode mode = SendMode::kNonBlocking;
  net::LatencyModel latency{};
  std::uint64_t seed = 1;
  // Fabric scheduler shards (dst % shards).  0 resolves the default:
  // WINDAR_FABRIC_SHARDS if set, else min(4, hardware_concurrency); clamped
  // to the endpoint count.  Use 1 for tests that need the single-scheduler
  // global delivery order.
  int fabric_shards = 0;
  // Supervisor execution model.  kThreads: one OS thread per rank (seed
  // behaviour).  kCoop: rank supervisors run as cooperative tasks on a fixed
  // exec::Scheduler pool of `exec_workers` threads (0 = default), and the
  // engine's helper loops run as fibers too — total thread count is bounded
  // by the pool, not by n, which is what lets a 4096-rank job run on 4
  // cores.  kAuto resolves the WINDAR_EXEC environment variable, and
  // exec_workers = 0 resolves exec::Scheduler::default_workers().
  exec::ExecModel exec_model = exec::ExecModel::kAuto;
  int exec_workers = 0;
  // The job's fault schedule, keyed to protocol events rather than wall
  // time (see fault.h helpers: kill_on_delivery, kill_on_send,
  // duplicate_on_send, delay_on_send).  Every kill must target a rank:
  // resolve_job_config rejects any other.  Several kills keyed on one
  // trigger, each with its own `target`, fail ranks simultaneously.  A kill
  // landing while the rank's incarnation is still being constructed is
  // deferred and applied the moment construction finishes; a kill landing
  // after the rank's function returned is skipped.
  std::vector<net::ChaosEvent> chaos;
  double restart_delay_ms = 10;  // failure detection + spare-node takeover
  // ROLLBACK re-broadcast pacing: first retry after `rollback_retry`, then
  // capped exponential backoff up to `rollback_retry_cap` (keeps a long
  // outage from turning the gather window into a broadcast storm).
  std::chrono::milliseconds rollback_retry{25};
  std::chrono::milliseconds rollback_retry_cap{200};
  std::size_t eager_threshold = 8 * 1024;
  std::chrono::microseconds logger_storage_delay{5};
  // TEL/PES event-logger shards (shard = sender rank % shards, endpoints
  // n..n+shards-1).  0 resolves the default: WINDAR_LOGGER_SHARDS if set,
  // else 1 (the seed's single-logger deployment).  Clamped to n; resolves to
  // 0 for protocols without an event logger.
  int logger_shards = 0;
  std::string checkpoint_spill_dir;  // empty: in-memory stable store
  // Checkpoint plane knobs.  ckpt_async: -1 resolves the WINDAR_CKPT env
  // var (default asynchronous background commit); 0/1 force sync/async.
  // ckpt_delta_anchor: full image every K commits, deltas between (0
  // resolves WINDAR_CKPT_ANCHOR_K, default 8; 1 disables deltas).
  int ckpt_async = -1;
  std::size_t ckpt_delta_anchor = 0;
  // Survivor non-stop recovery pacing (see ProcessParams::replay_burst);
  // the default matches ProcessParams.
  std::size_t replay_burst = 128;
  TraceSink* trace = nullptr;        // optional causal-event recorder

  bool operator==(const JobConfig&) const = default;
};

/// `config` with every sentinel resolved: exec_model, exec_workers,
/// fabric_shards, logger_shards, ckpt_async and ckpt_delta_anchor come back
/// concrete.  Aborts on a chaos kill whose target is not a rank.
/// Idempotent.
JobConfig resolve_job_config(JobConfig config);

/// The engine parameters of `rank`'s `incarnation` in a job configured by
/// `job`, which must already be resolved (resolve_job_config).
ProcessParams process_params(const JobConfig& job, int rank,
                             std::uint32_t incarnation);

/// Parameters of event-logger shard `shard` in a resolved `job`.
EventLogger::Params logger_params(const JobConfig& job, int shard);

struct JobResult {
  JobConfig config;                // the resolved configuration the job ran
  double wall_ms = 0;
  Metrics total;                   // merged over ranks and incarnations
  std::vector<Metrics> per_rank;   // merged over incarnations
  net::FabricStats fabric;
  CheckpointStoreStats checkpoints;
  std::uint64_t chaos_triggers_fired = 0;  // chaos events that fired
  LoggerStats logger;                      // TEL/PES, summed over shards
};

/// The application's handle: an mp::Comm (so collectives and the NPB
/// skeletons run unchanged) plus the checkpoint/restore surface.
class Ctx final : public mp::Comm {
 public:
  explicit Ctx(Process& p) : p_(p) {}

  int rank() const override { return p_.rank(); }
  int size() const override { return p_.size(); }
  void send(int dst, int tag, std::span<const std::uint8_t> payload) override {
    p_.send(dst, tag, payload);
  }
  mp::Message recv(int src = mp::kAnySource, int tag = mp::kAnyTag) override {
    return p_.recv(src, tag);
  }
  bool probe(int src = mp::kAnySource, int tag = mp::kAnyTag) override {
    return p_.probe(src, tag);
  }

  /// Takes an independent checkpoint of `app_state` plus the recovery
  /// layer's own state.
  ///
  /// CONSISTENCY CONTRACT: `app_state` must let the application resume from
  /// exactly this logical point (e.g. the loop indices).  The recovery
  /// layer's counters are snapshotted at the same instant; an application
  /// that checkpoints here but restarts its loop from zero will re-send
  /// with mismatched indices and stall.  An empty blob is only safe for
  /// applications that never restore (fault-free runs).
  void checkpoint(std::span<const std::uint8_t> app_state) {
    p_.checkpoint(app_state);
  }

  /// Application state restored from the last checkpoint if this execution
  /// is an incarnation; nullopt on a fresh start (including
  /// restart-from-scratch after a failure before the first checkpoint).
  const std::optional<util::Bytes>& restored() const {
    return p_.restored_app_state();
  }

  Process& process() { return p_; }

 private:
  Process& p_;
};

using FtRankFn = std::function<void(Ctx&)>;

/// Runs the job to completion (all ranks' functions returned, every fired
/// kill recovered).  Rethrows the first application exception, if any.
JobResult run_job(const JobConfig& config, const FtRankFn& fn);

}  // namespace windar::ft
