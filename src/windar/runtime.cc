#include "windar/runtime.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "exec/scheduler.h"
#include "net/fabric.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/wait.h"
#include "windar/event_logger.h"

namespace windar::ft {

namespace {

struct Slot {
  std::mutex mu;                      // guards proc + fn_done transitions
  std::shared_ptr<Process> proc;
  bool fn_done = false;
  // A kill that fired while this rank's Process was mid-construction (the
  // kill handler sees no proc to poison): recorded here and applied by the
  // supervisor the moment construction finishes, so event-keyed kills can
  // land inside a recovery window without being silently dropped.
  bool pending_kill = false;          // guarded by mu
  // Non-zero: hold the next restart until the fabric delivered this many
  // packets in total (ChaosEvent::revive_after_packets).
  std::atomic<std::uint64_t> revive_at_packets{0};
  Metrics acc;                        // merged across incarnations
  std::mutex acc_mu;
  std::atomic<const char*> phase{"init"};  // stall-watchdog breadcrumb
};

}  // namespace

JobConfig resolve_job_config(JobConfig c) {
  WINDAR_CHECK_GT(c.n, 0) << "need at least one rank";
  for (const auto& ev : c.chaos) {
    if (ev.action != net::ChaosEvent::Action::kKill) continue;
    const int target = ev.target >= 0 ? ev.target : ev.endpoint;
    WINDAR_CHECK(target >= 0 && target < c.n)
        << "chaos kill target must be a rank, got " << target;
  }
  c.exec_model = exec::resolve_exec_model(c.exec_model);
  if (c.exec_workers <= 0) c.exec_workers = exec::Scheduler::default_workers();
  const bool uses_logger =
      c.protocol == ProtocolKind::kTel || c.protocol == ProtocolKind::kPes;
  c.logger_shards =
      uses_logger ? std::min(c.n, resolve_logger_shards(c.logger_shards)) : 0;
  if (c.fabric_shards <= 0) c.fabric_shards = net::Fabric::default_shards();
  c.fabric_shards = std::min(c.fabric_shards, c.n + c.logger_shards);
  c.ckpt_async = resolve_ckpt_async(c.ckpt_async) ? 1 : 0;
  c.ckpt_delta_anchor = resolve_ckpt_anchor(c.ckpt_delta_anchor);
  return c;
}

ProcessParams process_params(const JobConfig& job, int rank,
                             std::uint32_t incarnation) {
  WINDAR_CHECK(job.ckpt_async >= 0 && job.ckpt_delta_anchor > 0)
      << "process_params needs a resolved JobConfig";
  ProcessParams p;
  p.rank = rank;
  p.n = job.n;
  p.protocol = job.protocol;
  p.mode = job.mode;
  p.eager_threshold = job.eager_threshold;
  p.rollback_retry = job.rollback_retry;
  p.rollback_retry_cap = job.rollback_retry_cap;
  p.logger_endpoint = job.logger_shards > 0
                          ? logger_shard_endpoint(job.n, rank, job.logger_shards)
                          : -1;
  p.ckpt_async = job.ckpt_async != 0;
  p.replay_burst = job.replay_burst;
  p.trace = job.trace;
  p.incarnation = incarnation;
  return p;
}

EventLogger::Params logger_params(const JobConfig& job, int shard) {
  EventLogger::Params lp;
  lp.endpoint = job.n + shard;
  lp.ranks = job.n;
  lp.storage_delay = job.logger_storage_delay;
  lp.shards = job.logger_shards;
  lp.shard_index = shard;
  return lp;
}

JobResult run_job(const JobConfig& requested, const FtRankFn& fn) {
  const JobConfig config = resolve_job_config(requested);
  net::Fabric fabric(config.n + config.logger_shards, config.latency,
                     config.seed, config.fabric_shards);
  CheckpointStore store(config.checkpoint_spill_dir,
                        config.ckpt_delta_anchor);
  std::vector<std::unique_ptr<EventLogger>> loggers;
  for (int s = 0; s < config.logger_shards; ++s) {
    loggers.push_back(
        std::make_unique<EventLogger>(fabric, logger_params(config, s)));
  }

  std::vector<Slot> slots(static_cast<std::size_t>(config.n));
  std::atomic<int> done_count{0};
  std::atomic<bool> all_done{false};
  std::atomic<bool> job_failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  // Kills fire from the fabric's send and delivery paths.  Poison-before-
  // endpoint-kill ordering is load-bearing: a thread that wakes on the
  // poisoned inbox must see killed_ == true, or it will misread the fault as
  // job teardown (JobAborted) and skip recovery.  A kill landing in the
  // construction window is deferred to the supervisor rather than dropped.
  net::FaultSchedule chaos(config.chaos);
  if (!config.chaos.empty()) {
    chaos.set_kill_handler([&](const net::ChaosEvent& ev) {
      Slot& slot = slots[static_cast<std::size_t>(ev.target)];
      std::scoped_lock lock(slot.mu);
      if (slot.fn_done) return;  // finished ranks are never killed
      if (ev.revive_after_packets > 0) {
        slot.revive_at_packets.store(
            fabric.stats().packets_delivered + ev.revive_after_packets,
            std::memory_order_release);
      }
      if (!slot.proc) {
        slot.pending_kill = true;
        return;
      }
      slot.proc->poison();
      fabric.kill(ev.target);
    });
    fabric.set_chaos(&chaos);
  }

  auto record_error = [&](std::exception_ptr e) {
    {
      std::scoped_lock lock(error_mu);
      if (!first_error) first_error = e;
    }
    job_failed.store(true, std::memory_order_release);
    all_done.store(true, std::memory_order_release);
    fabric.shutdown();  // unblocks every rank; they unwind via JobAborted
  };

  auto supervisor = [&](int rank) {
    Slot& slot = slots[static_cast<std::size_t>(rank)];
    bool recovering = false;
    std::uint32_t incarnation = 0;
    while (true) {
      std::shared_ptr<Process> proc;
      slot.phase = "ctor";
      try {
        proc = std::make_shared<Process>(
            fabric, store, process_params(config, rank, incarnation),
            recovering);
      } catch (...) {
        record_error(std::current_exception());
        return;
      }
      {
        std::scoped_lock lock(slot.mu);
        slot.proc = proc;
        if (slot.pending_kill) {
          // A chaos kill fired while we were constructing: apply it now.
          // The application function below will unwind with Killed on its
          // first engine call.
          slot.pending_kill = false;
          proc->poison();
          fabric.kill(rank);
        }
      }
      try {
        slot.phase = "fn";
        Ctx ctx(*proc);
        fn(ctx);
        // Flush the async checkpoint writer before counting this rank done:
        // its last CHECKPOINT_ADVANCE fan-out enters the fabric while every
        // peer Process is still alive (running or parked), and the commit
        // lands in this incarnation's metrics.  A chaos kill can still fire
        // here — the queued commits either complete (sends from a dead rank
        // drop harmlessly) and the check below throws the pending Killed.
        proc->drain_checkpoints();
        {
          // fn_done flips under slot.mu so the kill handler's check-and-kill
          // is atomic against completion: a finished rank is never killed.
          // A kill that landed after the function's last engine call (so
          // nothing inside it threw) is recovered like any other: counting
          // this incarnation done would let the peers finish and leave
          // while the next incarnation still needs their resends.
          std::scoped_lock lock(slot.mu);
          proc->throw_if_dead();
          slot.fn_done = true;
        }
        if (done_count.fetch_add(1) + 1 == config.n) {
          all_done.store(true, std::memory_order_release);
        }
        slot.phase = "parked";
        proc->park(all_done);
        {
          std::scoped_lock lock(slot.acc_mu);
          slot.acc.merge(proc->metrics());
        }
        {
          std::scoped_lock lock(slot.mu);
          slot.proc.reset();
        }
        return;
      } catch (const Killed&) {
        // Handled below, outside the handler.  Recovery parks (joining the
        // helper fibers, sleeping out the restart delay), and under kCoop a
        // parked fiber may resume on another worker thread; the C++ runtime
        // keeps its caught-exception stack per thread, so a handler that
        // spans a park leaks the exception object and corrupts that stack.
      } catch (const JobAborted&) {
        {
          std::scoped_lock lock(slot.mu);
          slot.proc.reset();
        }
        return;
      } catch (...) {
        record_error(std::current_exception());
        {
          std::scoped_lock lock(slot.mu);
          slot.proc.reset();
        }
        return;
      }
      // Killed: every other exit from the try block returned.
      slot.phase = "killed-metrics";
      {
        std::scoped_lock lock(slot.acc_mu);
        slot.acc.merge(proc->metrics());
      }
      {
        std::scoped_lock lock(slot.mu);
        slot.proc.reset();
      }
      slot.phase = "killed-dtor";
      proc.reset();  // joins this incarnation's helper threads
      slot.phase = "killed-sleep";
      if (job_failed.load(std::memory_order_acquire)) return;
      const std::uint64_t revive_target =
          slot.revive_at_packets.exchange(0, std::memory_order_acq_rel);
      if (revive_target > 0) {
        // Event-keyed restart: stay down until the fabric delivered the
        // scheduled amount of further traffic.  If traffic quiesces (every
        // survivor is blocked on us) waiting longer is pointless — resume
        // once the delivered count stalls.
        std::uint64_t last = fabric.stats().packets_delivered;
        int stalled_polls = 0;
        while (last < revive_target && stalled_polls < 100 &&
               !all_done.load(std::memory_order_acquire) &&
               !job_failed.load(std::memory_order_acquire)) {
          util::coop_sleep_for(std::chrono::microseconds(200));
          const std::uint64_t now = fabric.stats().packets_delivered;
          stalled_polls = now == last ? stalled_polls + 1 : 0;
          last = now;
        }
      } else {
        // Failure detection + spare-node takeover latency.
        util::coop_sleep_for(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::duration<double, std::milli>(
                    config.restart_delay_ms)));
      }
      if (job_failed.load(std::memory_order_acquire)) return;
      recovering = true;
      ++incarnation;
    }
  };

  const double t0 = util::now_ms();

  // Supervisors: OS threads in the seed model, cooperative tasks on a fixed
  // worker pool under kCoop.  The watchdog below stays a plain thread in
  // both modes — it only reads atomics under the slot locks.
  const bool coop = config.exec_model == exec::ExecModel::kCoop;
  std::optional<exec::Scheduler> sched;
  std::vector<std::thread> threads;
  if (coop) {
    sched.emplace(config.exec_workers);
    for (int r = 0; r < config.n; ++r) {
      sched->spawn([&supervisor, r] { supervisor(r); });
    }
  } else {
    threads.reserve(static_cast<std::size_t>(config.n));
    for (int r = 0; r < config.n; ++r) {
      threads.emplace_back(supervisor, r);
    }
  }

  // Stall watchdog (diagnostics): with WINDAR_STALL_DUMP_MS=<n> set, dump
  // every rank's recovery/queue state to stderr if the job runs longer than
  // n ms, then every n ms after.
  std::thread watchdog;
  std::atomic<bool> watchdog_stop{false};
  if (const int period = Process::stall_dump_period_ms(); period > 0) {
    watchdog = std::thread([&, period] {
      double next = period;
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (util::now_ms() - t0 < next) continue;
        next += period;
        const net::FabricStats fs = fabric.stats();
        std::fprintf(stderr,
                     "[windar stall dump @%.0fms] fabric sent=%llu "
                     "delivered=%llu dropped_dead=%llu dropped_chaos=%llu\n",
                     util::now_ms() - t0,
                     static_cast<unsigned long long>(fs.packets_sent),
                     static_cast<unsigned long long>(fs.packets_delivered),
                     static_cast<unsigned long long>(fs.packets_dropped_dead),
                     static_cast<unsigned long long>(fs.packets_dropped_chaos));
        for (auto& slot : slots) {
          std::scoped_lock lock(slot.mu);
          if (slot.proc) {
            std::fprintf(stderr, "  %s\n", slot.proc->debug_state().c_str());
          } else {
            std::fprintf(stderr, "  (rank slot empty, fn_done=%d, phase=%s)\n",
                         slot.fn_done ? 1 : 0, slot.phase.load());
          }
        }
      }
    });
  }

  if (coop) {
    sched->join_all();
  } else {
    for (auto& t : threads) t.join();
  }
  watchdog_stop.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();
  const double t1 = util::now_ms();

  JobResult result;
  result.config = config;
  result.wall_ms = t1 - t0;
  result.logger = stop_loggers(loggers);
  fabric.shutdown();

  if (first_error) std::rethrow_exception(first_error);

  result.per_rank.reserve(slots.size());
  for (auto& slot : slots) {
    std::scoped_lock lock(slot.acc_mu);
    result.per_rank.push_back(slot.acc);
    result.total.merge(slot.acc);
  }
  result.fabric = fabric.stats();
  result.checkpoints = store.stats();
  result.chaos_triggers_fired = chaos.fired();
  return result;
}

}  // namespace windar::ft
