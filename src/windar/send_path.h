// Transmission plane of the recovery engine (paper §III.E, Fig. 4).
//
//   kBlocking     — the app thread transmits and then waits for the
//                   receiver's acceptance ack, pumping its own inbox while
//                   it waits (single-threaded MPICH-style sync sends).
//   kNonBlocking  — the app thread hands packets to the transport, whose
//                   send never blocks on a peer, dead or alive (the socket
//                   transport's per-peer writer threads play the paper's
//                   queue A); a receiver thread drains the endpoint inbox
//                   and dispatches packets.
//
// SendPath owns the receiver helper and carries the full application send:
// index allocation, piggyback, sender logging,
// rolling-forward suppression, and the blocking-mode ack wait.  Packet
// handling itself stays above (the Callbacks::dispatch hook) so exactly one
// thread per engine dispatches — the receiver thread in non-blocking mode,
// the application thread in blocking mode.
//
// No lock of its own: per-call state lives in the components it composes
// (ChannelState, ProtocolHost, SenderLog, metrics — each internally
// synchronized) and `closing_` is an atomic.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "exec/scheduler.h"
#include "net/transport.h"
#include "windar/channel_state.h"
#include "windar/fault.h"
#include "windar/metrics.h"
#include "windar/params.h"
#include "windar/protocol.h"
#include "windar/sender_log.h"

namespace windar::ft {

class SendPath {
 public:
  using Clock = std::chrono::steady_clock;

  struct Callbacks {
    /// Routes one packet; returns true if application-thread-visible state
    /// changed (queue B, acks, gather) and a wakeup should follow.
    std::function<bool(net::Packet&&)> dispatch;
    /// Timed engine work (rollback re-broadcast, TEL flush).
    std::function<void()> periodic;
    /// Wakes the application thread (DeliveryQueue::notify).
    std::function<void()> wake;
    /// True while timed work is urgent (a determinant gather in flight) and
    /// the receiver thread should poll on a short tick.
    std::function<bool()> urgent;
    /// The endpoint inbox was poisoned without a local kill: job teardown.
    std::function<void()> transport_closed;
  };

  SendPath(net::Transport& transport, const ProcessParams& params, LifeFlags& life,
           ChannelState& channels, ProtocolHost& tracker, SenderLog& log,
           SharedMetrics& metrics);
  ~SendPath();

  void set_callbacks(Callbacks cb) { cb_ = std::move(cb); }

  /// Spawns the receiver helper in non-blocking mode.
  /// Called once the whole engine is wired; no-op for blocking mode.  When
  /// the caller is itself a cooperative task (a rank supervisor under
  /// ExecModel::kCoop), the helpers are spawned as fibers on the same
  /// scheduler instead of OS threads, so per-rank thread cost stays zero.
  void start();

  /// Stops and joins the helper thread/fiber (destructor path).
  void stop();

  /// The full application-facing send (application thread only).
  void send_app(int dst, int tag, std::span<const std::uint8_t> payload);

  /// Control-plane message: counted and sent straight to the transport.
  void send_control(int dst, Kind kind, std::uint64_t seq,
                    util::Buffer payload);

  /// Blocking-mode event pump: pops at most one packet (bounded by
  /// `deadline`), dispatches it, runs periodic work.  Throws Killed /
  /// JobAborted as appropriate.
  void pump_once(Clock::time_point deadline);

 private:
  void recv_loop();

  net::Transport& transport_;
  const ProcessParams& params_;
  LifeFlags& life_;
  ChannelState& channels_;
  ProtocolHost& tracker_;
  SenderLog& log_;
  SharedMetrics& metrics_;
  Callbacks cb_;

  std::atomic<bool> closing_{false};
  std::thread recv_thread_;
  exec::TaskHandle recv_task_;  // fiber-mode counterpart of the thread

  static constexpr std::chrono::microseconds kTick{2000};
};

}  // namespace windar::ft
