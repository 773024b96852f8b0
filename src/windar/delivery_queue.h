// The receiving queue and delivery gate (the paper's queue B).
//
// Messages admitted from the wire park here until the application asks for
// them; `deliver` pops the first message that passes the source/tag filters,
// the per-pair FIFO constraint (Algorithm 1 line 19), and the protocol's
// ordering gate.  During a PWD protocol's determinant gather the external
// `gate_open` flag closes the whole queue (nothing may be delivered until
// replay knowledge is complete).
//
// Queue B is one lane per source, sorted by send_index.  Per-pair FIFO means
// only a lane's front can be the next delivery from its source, so the
// duplicate filter is a binary search (an in-order arrival is an append) and
// the delivery gate looks at lane fronts only — never at the backlog behind
// them.  Lanes are created on a source's first message: most rank pairs of a
// large job never talk.
//
// Lock architecture: the queue's mutex serializes `admit` (handler thread)
// against the find/deliver path (application thread) — both the
// duplicate-of-queued lookup and the pop/counter-advance must be atomic with
// respect to each other, or a racing duplicate could be parked forever.  The
// condition variable carries application-thread wakeups (new arrivals,
// gather completion, stability advances); waits are bounded by kTick so a
// missed notify costs one tick, never a hang.  Lock order: the queue mutex
// may be held while taking ChannelState, ProtocolHost, or metrics locks,
// never the reverse.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mp/comm.h"
#include "net/packet.h"
#include "windar/channel_state.h"
#include "windar/fault.h"
#include "windar/metrics.h"
#include "util/wait.h"
#include "windar/params.h"
#include "windar/protocol.h"

namespace windar::ft {

class DeliveryQueue {
 public:
  struct Hooks {
    /// Sends a kDeliverAck for (dst, send_index) — blocking-mode acceptance.
    std::function<void(int, SeqNo)> send_ack;
    /// Invoked after each delivery when the protocol uses the event logger,
    /// to ship the fresh determinant promptly.
    std::function<void()> flush_determinants;
  };

  /// `gate_open` is owned by the caller (RecoveryManager's gather-done flag,
  /// or a test-local atomic) and read without the queue lock.
  DeliveryQueue(const ProcessParams& params, ChannelState& channels,
                ProtocolHost& tracker, const std::atomic<bool>& gate_open,
                SharedMetrics& metrics);

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Admits an incoming kApp packet: duplicate filtering against both the
  /// delivered watermark and the parked messages, eager-ack decision, park.
  void admit(net::Packet&& p);

  /// Blocks until a matching message is deliverable, delivers it, and (for
  /// pessimistic protocols) holds it until its determinant is stable.
  mp::Message recv_wait(int src, int tag, const LifeFlags& life);

  struct Delivered {
    mp::Message msg;
    SeqNo deliver_seq = 0;
  };

  /// Single non-waiting find+deliver step (blocking mode, which pumps the
  /// inbox between attempts itself).
  std::optional<Delivered> try_deliver(int src, int tag);

  /// Non-destructive probe: would recv(src, tag) find a message now?
  bool has_deliverable(int src, int tag) const;

  /// Wakes the application thread (new arrival, gather done, teardown).
  void notify();

  std::size_t depth() const;
  /// Highest depth() reached since construction (Metrics::queue_b_peak).
  std::size_t peak() const;
  std::string debug_string() const;

 private:
  /// Source whose lane front is deliverable to recv(src, tag), or kNone.
  int find_locked(int src, int tag) const;
  mp::Message deliver_locked(int src, SeqNo& deliver_seq);

  const ProcessParams& params_;
  ChannelState& channels_;
  ProtocolHost& tracker_;
  const std::atomic<bool>& gate_open_;
  SharedMetrics& metrics_;
  Hooks hooks_;
  const bool pessimistic_;
  const bool uses_event_logger_;

  mutable std::mutex mu_;
  // Hybrid wakeup: the application side may be an OS thread or a cooperative
  // task; admit/notify come from handler threads or fibers — WaitSet wakes
  // either kind.  Waits stay bounded by kTick, so the missed-notify story is
  // unchanged from the condition_variable version.
  util::WaitSet cv_;

  struct Parked {
    std::uint64_t arrival = 0;  // admit order: kAnySource takes the earliest
    QueuedMsg msg;
  };
  using Lane = std::deque<Parked>;  // sorted by send_index, no duplicates
  std::vector<std::unique_ptr<Lane>> lanes_;  // by source; null until used
  std::size_t parked_ = 0;
  std::size_t parked_peak_ = 0;
  std::uint64_t arrivals_ = 0;

  static constexpr int kNone = -1;
  static constexpr std::chrono::microseconds kTick{2000};
};

}  // namespace windar::ft
