// Rollback-recovery and checkpoint choreography (Algorithm 1 lines 32-51).
//
// On the recovering side: restore the last checkpoint image, broadcast
// ROLLBACK (with periodic re-broadcast so simultaneous failures converge),
// collect RESPONSEs — and, for PWD protocols, determinants — until the
// delivery gate may open.  On the survivor side: answer a peer's ROLLBACK
// with log-driven resends followed by a RESPONSE, and apply peers'
// CHECKPOINT_ADVANCE notifications to the sender log.  Also owns the
// independent-checkpoint path (image assembly and log-release fan-out).
//
// Checkpoint plane (paper §III.D, ROADMAP item 3).  checkpoint() only
// *seals* a snapshot on the application thread: the app bytes are copied
// once into a shared buffer, the protocol/channel/log state is captured
// under their own short locks, and the pending advances are collected.  No
// disk I/O and no full-image serialization happen under any hot-path lock.
// When the background writer is running (start_writer; non-blocking mode
// with params.ckpt_async), the sealed snapshot is queued and the writer
// serializes + durably commits it; CHECKPOINT_ADVANCE fan-out — the
// message that lets peers discard log entries forever — happens strictly
// AFTER the store reports durability.  Without a writer the same commit
// runs inline (blocking mode, unit tests, WINDAR_CKPT=sync).
//
// Survivor non-stop recovery.  A ROLLBACK answer resends at most
// params.replay_burst logged messages inline; a longer replay becomes a
// ReplaySession drained in bursts from periodic(), so the survivor's
// dispatch thread keeps serving its own sends and deliveries while a peer
// rebuilds (and never parks on transport backpressure to the recovering
// rank for an unbounded stream).  Fresh application sends to that rank
// keep flowing while a session drains; the recovering rank's per-source
// lane in queue B parks any that overtake the replay until the gap fills.
// The RESPONSE goes out only when the session drains and echoes the
// ROLLBACK epoch it answers, so a RESPONSE meant for a dead incarnation
// cannot close its successor's gather.
//
// The internal mutex guards the gather bookkeeping and replay sessions;
// `gather_done_` is additionally exported as an atomic so the
// DeliveryQueue's gate check never takes a recovery lock.  Lock order: the
// recovery mutex may be held while taking ChannelState / ProtocolHost /
// log / metrics locks, never the reverse, and is never held together with
// the DeliveryQueue's lock.  The writer queue has its own leaf mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/scheduler.h"
#include "net/transport.h"
#include "util/wait.h"
#include "windar/channel_state.h"
#include "windar/checkpoint.h"
#include "windar/metrics.h"
#include "windar/params.h"
#include "windar/protocol.h"
#include "windar/send_path.h"
#include "windar/sender_log.h"

namespace windar::ft {

class RecoveryManager {
 public:
  using Clock = std::chrono::steady_clock;

  RecoveryManager(net::Transport& transport, CheckpointStore& store,
                  const ProcessParams& params, ChannelState& channels,
                  SenderLog& log, ProtocolHost& tracker, SendPath& send_path,
                  SharedMetrics& metrics);
  ~RecoveryManager();

  // ---- recovering side ----

  /// Restores counters, protocol state and sender log from the last
  /// checkpoint (scratch if none), re-injects undelivered self-channel
  /// messages, and closes the delivery gate if the protocol must gather
  /// determinants.  Runs on the constructing thread, before helper threads.
  void restore_from_checkpoint();

  /// First ROLLBACK broadcast; called once the engine is fully wired (so
  /// responses racing back are dispatchable).
  void announce_rollback();

  const std::optional<util::Bytes>& restored_app() const {
    return restored_app_;
  }

  /// Delivery gate: false while a PWD protocol's determinant gather is
  /// incomplete.  Referenced by the DeliveryQueue.
  const std::atomic<bool>& gate() const { return gather_done_; }

  /// True while ROLLBACK re-broadcasts may still be needed (handler thread
  /// should poll on a short tick).
  bool retry_pending() const;

  /// retry_pending() plus "a replay session is draining" — the receiver
  /// thread's urgent() hook, so paced replays pump on the 1ms tick.
  bool work_pending() const;

  // ---- packet handlers (single dispatch thread) ----

  void handle_rollback(int from, std::uint32_t peer_epoch,
                       const std::vector<SeqNo>& ldi);
  void handle_response(int from, net::Packet&& p);
  void handle_tel_query_reply(net::Packet&& p);
  void handle_checkpoint_advance(net::Packet&& p);

  /// Timed work: ROLLBACK re-broadcast while responses are outstanding, and
  /// burst-pumping of in-flight replay sessions.
  void periodic();

  // ---- checkpoint plane ----

  /// Seals a snapshot (application thread, cheap) and either queues it for
  /// the background writer or commits it inline when no writer is running.
  void checkpoint(std::span<const std::uint8_t> app_state);

  /// Spawns the background checkpoint writer (thread, or sibling fiber when
  /// constructed on a cooperative task).  Idempotent.
  void start_writer();
  /// Stops the writer.  drain=true commits everything still queued first
  /// (clean teardown must not lose checkpoints the app was promised);
  /// drain=false discards the queue (fault injection: an uncommitted
  /// snapshot died with the process, which is protocol-safe — no advance
  /// went out, so peers kept their logs).
  void stop_writer(bool drain);
  /// Blocks until every queued snapshot is durably committed (tests,
  /// pre-teardown barriers).  Returns immediately when no writer runs.
  void flush_checkpoints();

  std::string debug_string() const;

 private:
  struct PendingCheckpoint {
    SealedCheckpoint image;
    // Sender log sealed as entry vectors (Buffer refbumps); serialized to
    // image.log by the committer, off the application thread.
    std::vector<std::vector<LogEntry>> log;
    std::vector<std::pair<int, SeqNo>> advances;
  };

  struct ReplaySession {
    // Incarnation this stream serves; a ROLLBACK from an older epoch is a
    // stale retransmit and must not restart (rewind) the stream.
    std::uint32_t epoch = 0;
    std::vector<LogEntry> entries;  // snapshot of the log tail to resend
    std::size_t next = 0;
  };

  void broadcast_rollback_locked();
  void update_gather_done_locked();
  /// Sends up to replay_burst entries of `s`; on drain sends the RESPONSE
  /// and returns true (session done).
  bool pump_replay_locked(int from, ReplaySession& s);
  /// Serializes, durably saves, and — only then — fans out the advances.
  /// Returns false iff the store's pre-commit hook dropped the commit.
  bool commit_checkpoint(PendingCheckpoint& pc);
  void writer_loop();

  net::Transport& transport_;
  CheckpointStore& store_;
  const ProcessParams& params_;
  ChannelState& channels_;
  SenderLog& log_;
  ProtocolHost& tracker_;
  SendPath& send_path_;
  SharedMetrics& metrics_;
  const bool needs_gather_;
  const bool uses_event_logger_;

  std::atomic<bool> gather_done_{true};

  mutable std::mutex mu_;
  bool recovering_ = false;
  std::vector<char> response_seen_;
  int responses_pending_ = 0;
  bool logger_reply_pending_ = false;
  Clock::time_point last_rollback_bcast_{};
  // Current re-broadcast wait: starts at params.rollback_retry, doubles per
  // retry round up to params.rollback_retry_cap (capped exponential backoff).
  Clock::duration retry_interval_;
  std::map<int, ReplaySession> replays_;       // guarded by mu_
  std::atomic<bool> replay_pending_{false};    // mirrors !replays_.empty()

  // Background checkpoint writer.  wq_mu_ is a leaf (never held while
  // taking mu_ or any component lock); commit_checkpoint runs with it
  // released.
  mutable std::mutex wq_mu_;
  mutable util::WaitSet wq_cv_;
  std::deque<PendingCheckpoint> wq_;
  bool writer_running_ = false;
  bool writer_stop_ = false;
  bool committing_ = false;
  std::thread writer_thread_;
  exec::TaskHandle writer_task_;

  std::optional<util::Bytes> restored_app_;  // set pre-threads, then const
  std::uint64_t ckpt_seq_ = 0;               // application thread only
};

}  // namespace windar::ft
