// Shared harness for the chaos soak drivers (tests/soak_chaos.cc,
// bench/chaos_soak.cc, tests/test_chaos.cc): an iterative ring-exchange
// application whose running digest is a pure function of the delivered
// message values — independent of latency, protocol, and fault timing — so
// a faulty run converging to the failure-free digest certifies no lost, no
// duplicated, and no mis-ordered delivery.
#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "mp/collectives.h"
#include "rank_results.h"
#include "windar/fault.h"
#include "windar/runtime.h"

namespace windar::ft::chaos {

struct SoakOutcome {
  std::uint64_t digest = 0;  // per-rank digests summed mod a prime
  JobResult result;
};

/// Builds the JobConfig a plan describes; `with_faults` toggles the chaos
/// schedule so the same call produces the faulty run and its clean baseline.
/// `logger_shards` > 0 runs TEL/PES against a sharded event logger (0 keeps
/// the env/default resolution), `exec_model` picks the rank execution model
/// — both are soak dimensions for the sharded-logger schedules.
inline JobConfig plan_config(const ChaosPlan& plan, ProtocolKind proto,
                             bool with_faults, int logger_shards = 0,
                             exec::ExecModel exec_model =
                                 exec::ExecModel::kAuto) {
  JobConfig cfg;
  cfg.n = plan.n;
  cfg.protocol = proto;
  cfg.mode = SendMode::kNonBlocking;
  cfg.latency = net::LatencyModel::turbulent();
  cfg.seed = plan.seed;
  cfg.restart_delay_ms = 2;
  cfg.logger_shards = logger_shards;
  cfg.exec_model = exec_model;
  cfg.replay_burst = plan.replay_burst;
  if (with_faults) cfg.chaos = plan.events;
  return cfg;
}

/// The per-rank ring-exchange body, shared verbatim by the in-process
/// runtime (run_plan below) and the multi-process socket workers
/// (bench/chaos_soak.cc, tests/test_socket_job.cc).  Returns this rank's
/// final digest — a pure function of the delivered values, so the in-process
/// and multi-process combines are directly comparable.
inline std::uint64_t ring_digest_rank(Ctx& ctx, int iterations,
                                      int checkpoint_every) {
  const int n = ctx.size();
  const int me = ctx.rank();
  const int right = (me + 1) % n;
  const int left = (me - 1 + n) % n;
  int start = 0;
  std::uint64_t digest = 0x9E37 + static_cast<std::uint64_t>(me);
  if (ctx.restored()) {
    util::ByteReader r(*ctx.restored());
    start = r.i32();
    digest = r.u64();
  }
  for (int it = start; it < iterations; ++it) {
    if (it > 0 && it % checkpoint_every == 0) {
      util::ByteWriter w;
      w.i32(it);
      w.u64(digest);
      ctx.checkpoint(w.view());
    }
    mp::send_value(ctx, right, 1, digest ^ static_cast<std::uint64_t>(it));
    const auto from_left = mp::recv_value<std::uint64_t>(ctx, left, 1);
    digest = digest * 1099511628211ull + from_left +
             static_cast<std::uint64_t>(it);
  }
  return digest;
}

/// Runs the plan's ring exchange under `proto` and returns the summed digest
/// plus the job result.  Deterministic: two calls with the same plan and
/// protocol produce the same digest whatever faults fired.
inline SoakOutcome run_plan(const ChaosPlan& plan, ProtocolKind proto,
                            bool with_faults, int logger_shards = 0,
                            exec::ExecModel exec_model =
                                exec::ExecModel::kAuto) {
  const int iterations = plan.iterations;
  const int checkpoint_every = plan.checkpoint_every;
  auto digests = std::make_shared<RankResults<std::uint64_t>>(plan.n);
  SoakOutcome out;
  out.result = run_job(plan_config(plan, proto, with_faults, logger_shards,
                                   exec_model),
                       [iterations, checkpoint_every, digests](Ctx& ctx) {
                         digests->set(ctx.rank(),
                                      ring_digest_rank(ctx, iterations,
                                                       checkpoint_every) %
                                          1000000007ull);
                       });
  out.digest = digests->sum();
  return out;
}

}  // namespace windar::ft::chaos
