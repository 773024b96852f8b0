// Per-rank configuration of the recovery engine, shared by its components.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "windar/trace.h"
#include "windar/wire.h"

namespace windar::ft {

struct ProcessParams {
  int rank = 0;
  int n = 0;
  ProtocolKind protocol = ProtocolKind::kTdi;
  SendMode mode = SendMode::kNonBlocking;
  std::size_t eager_threshold = 8 * 1024;
  // ROLLBACK re-broadcast: first retry after `rollback_retry`, then doubled
  // per retry up to `rollback_retry_cap` (capped exponential backoff; a
  // peer that stays down for long must not turn the gather window into a
  // fixed-interval broadcast storm).
  std::chrono::milliseconds rollback_retry{25};
  std::chrono::milliseconds rollback_retry_cap{200};
  // This rank's event-logger shard endpoint (>= 0 when the protocol uses
  // the logger).  With sharding the runtime resolves it per rank via
  // logger_shard_endpoint(n, rank, shards); a rank talks to exactly one
  // shard for logs, queries, and checkpoint advances alike.
  int logger_endpoint = -1;
  std::size_t tel_batch = 32;
  std::chrono::microseconds tel_flush_interval{50};
  // Asynchronous checkpoint commit: checkpoint() seals a cheap in-memory
  // snapshot and a background writer serializes + durably writes it, with
  // CHECKPOINT_ADVANCE emitted strictly after durability.  Only effective in
  // non-blocking mode (blocking mode is single-threaded and stays
  // synchronous); disabled, the whole commit runs on the application thread.
  bool ckpt_async = true;
  // Survivor non-stop recovery: a ROLLBACK answer resends at most
  // `replay_burst` logged messages inline, then continues in bursts per
  // periodic tick, so a survivor's dispatch thread never stalls on a long
  // replay (or on transport backpressure to the recovering rank).  Fresh
  // application sends to that rank go out meanwhile; its per-pair FIFO gate
  // parks any that overtake the replay.
  std::size_t replay_burst = 128;
  // Optional causal-event recorder (owned by the caller, shared by ranks).
  TraceSink* trace = nullptr;
  std::uint32_t incarnation = 0;  // 0 = original process

  bool operator==(const ProcessParams&) const = default;
};

}  // namespace windar::ft
