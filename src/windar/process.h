// The per-rank rollback-recovery layer (the paper's WINDAR component,
// Fig. 4/5): embedded between the application and the simulated transport.
//
// Process is a thin façade over the recovery engine's components:
//
//   ChannelState     per-pair counters, ack/suppression watermarks
//   SenderLog        sender-based message log (internally locked)
//   ProtocolHost     the LoggingProtocol behind its own lock
//   SendPath         transmit path, receiver helper, event pump
//   RecoveryManager  checkpoint/restore + ROLLBACK/RESPONSE choreography
//   DeliveryQueue    queue B, delivery gate, app-thread waits
//
// Process itself only wires them together, routes incoming packets
// (`dispatch`), and runs timed work (`periodic`).  The application thread is
// the only caller of send/recv/probe/checkpoint; exactly one thread per
// engine dispatches packets (the receiver thread in non-blocking mode, the
// application thread in blocking mode).  See DESIGN.md "Engine architecture"
// for the component graph and lock order.
#pragma once

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>

#include "mp/comm.h"
#include "net/transport.h"
#include "windar/channel_state.h"
#include "windar/checkpoint.h"
#include "windar/delivery_queue.h"
#include "windar/fault.h"
#include "windar/metrics.h"
#include "windar/params.h"
#include "windar/protocol.h"
#include "windar/recovery_manager.h"
#include "windar/send_path.h"
#include "windar/sender_log.h"
#include "windar/trace.h"
#include "windar/wire.h"

namespace windar::ft {

class Process {
 public:
  /// `recovering` marks an incarnation: state is restored from the last
  /// checkpoint (or from scratch if none) and a ROLLBACK is broadcast before
  /// the application re-enters.
  Process(net::Transport& transport, CheckpointStore& store, ProcessParams params,
          bool recovering);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // ---- application-facing (application thread only) ----

  int rank() const { return params_.rank; }
  int size() const { return params_.n; }

  void send(int dst, int tag, std::span<const std::uint8_t> payload);
  mp::Message recv(int src, int tag);

  /// Non-blocking probe: true if recv(src, tag) would find a deliverable
  /// message without waiting for new arrivals.
  bool probe(int src, int tag);

  /// Takes an independent checkpoint (Algorithm 1 lines 32-37): saves the
  /// image to stable storage and notifies peers to release log entries.
  void checkpoint(std::span<const std::uint8_t> app_state);

  /// Application state from the restored checkpoint, if this incarnation had
  /// one; nullopt on fresh start or restart-from-scratch.
  const std::optional<util::Bytes>& restored_app_state() const {
    return recovery_.restored_app();
  }

  // ---- runtime-facing ----

  /// Fault injection: marks the incarnation dead and wakes every wait so the
  /// application thread unwinds with Killed.  The caller also invokes
  /// fabric.kill(rank) to drop volatile network state.  Thread-safe.
  void poison();

  /// Throws Killed (or JobAborted) once this incarnation has been poisoned.
  void throw_if_dead() const { life_.throw_if_dead(); }

  /// After the rank function returns, keep serving control traffic
  /// (rollbacks from recovering peers, log releases) until the whole job is
  /// done.  Called on the application thread.
  void park(const std::atomic<bool>& all_done);

  /// Blocks until every queued checkpoint is durably committed (no-op when
  /// the background writer is off).  Callers that snapshot metrics or store
  /// stats at end-of-job call this first, so in-flight commits are counted.
  void drain_checkpoints() { recovery_.flush_checkpoints(); }

  Metrics metrics() const {
    Metrics m = metrics_.snapshot();
    m.queue_b_peak = delivery_.peak();
    return m;
  }
  SeqNo delivered_total() const { return channels_.delivered_total(); }
  const LoggingProtocol& protocol_for_test() const { return tracker_.raw(); }
  std::size_t log_entries() const { return log_.entries(); }
  std::size_t receive_queue_depth() const { return delivery_.depth(); }

  /// One-line diagnostic snapshot (recovery state, queue depths, counters)
  /// for the runtime's stall watchdog.
  std::string debug_state() const;

  /// The stall watchdog's dump period: WINDAR_STALL_DUMP_MS (a positive
  /// integer; a malformed value is fatal), or 0 (off) when unset.
  static int stall_dump_period_ms();

 private:
  using Clock = std::chrono::steady_clock;

  /// Routes one incoming packet to its component.  Returns true if the
  /// packet changed state the application thread may be waiting on (queue B,
  /// acks, responses) — i.e. whether to wake it.
  bool dispatch(net::Packet&& p);

  /// Timed work: ROLLBACK re-broadcast, TEL determinant flush.
  void periodic();
  void flush_tel(bool force);

  void breadcrumb(const char* api, int a, int b);
  static bool debug_breadcrumbs();

  net::Transport& transport_;
  CheckpointStore& store_;
  ProcessParams params_;

  LifeFlags life_;
  SharedMetrics metrics_;
  ChannelState channels_;
  SenderLog log_;
  ProtocolHost tracker_;
  SendPath send_path_;
  RecoveryManager recovery_;
  DeliveryQueue delivery_;

  std::mutex tel_mu_;  // guards the flush timer (handler + app threads)
  Clock::time_point last_tel_flush_{};

  mutable std::mutex dbg_mu_;
  std::string last_api_;  // watchdog breadcrumb: current app-thread call
};

}  // namespace windar::ft
