// Scripted, event-keyed fault injection for the simulated fabric.
//
// A wall-clock fault schedule ("kill rank 1 at t=8ms") would drift whenever
// the host is slow (TSan, CI load): the kill would land at a different
// protocol point every run.  A ChaosEvent instead keys a fault to
// fabric-observable protocol
// progress — "kill endpoint 1 when it receives its 8th application packet",
// "kill endpoint 2 when it sends its first RESPONSE" — so a schedule
// replays the same protocol-relative scenario regardless of host speed.
//
// The fabric stays protocol-agnostic: events match on the opaque packet
// `kind` word, and the layer above (windar) supplies its own kind values.
// Kill actions are not executed by the fabric itself — a fired kill is
// reported through the FaultSchedule's kill handler so the job runtime can
// poison the rank's Process before the endpoint dies (see runtime.cc).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "net/packet.h"

namespace windar::net {

struct ChaosEvent {
  enum class When {
    kDeliver,  // fires when a matching packet reaches a live endpoint
    kSend,     // fires when a matching packet enters the fabric
  };
  enum class Action {
    kKill,       // report the matched endpoint (or `target`) to the handler
    kDuplicate,  // enqueue the matched packet twice (independent jitter)
    kDelay,      // add `delay` to the matched packet's latency draw
  };

  When when = When::kDeliver;
  Action action = Action::kKill;
  int endpoint = -1;       // match dst (kDeliver) / src (kSend); -1 = any
  std::uint16_t kind = 0;  // packet kind filter; 0 = any kind
  std::uint64_t nth = 1;   // fire on the nth matching packet (1-based)
  int target = -1;         // kKill: endpoint to kill; -1 = matched endpoint

  // kDelay: extra latency added to the matched packet.
  std::chrono::microseconds delay{0};

  // kKill hint for the runtime: hold the incarnation's restart until this
  // many further packets were delivered fabric-wide (0 = default restart
  // delay).  Models recovery racing ongoing traffic deterministically.
  std::uint64_t revive_after_packets = 0;

  // kKill / kDuplicate / kDelay all keep counting after firing only if
  // `repeat` is set; by default an event is one-shot.
  bool repeat = false;

  bool operator==(const ChaosEvent&) const = default;
};

/// Thread-safe trigger table consulted by the fabric on every send and
/// delivery.  Matching is cheap (a short vector scan) and runs outside the
/// fabric's shard locks; the kill handler is invoked with no FaultSchedule
/// or fabric lock held.  Sends and deliveries arrive concurrently from rank
/// threads and every shard scheduler thread — `mu_` serializes the nth-match
/// counting so each event still fires exactly once per matching sequence.
class FaultSchedule {
 public:
  using KillHandler = std::function<void(const ChaosEvent&)>;

  FaultSchedule() = default;
  explicit FaultSchedule(std::vector<ChaosEvent> events) {
    for (auto& ev : events) add(std::move(ev));
  }

  void add(ChaosEvent ev);

  /// Invoked (outside all schedule/fabric locks) for every fired kKill
  /// event; receives the event with `target` resolved to a real endpoint.
  void set_kill_handler(KillHandler handler);

  /// Packet-shaping effects of kSend triggers, applied by Fabric::send.
  struct SendEffects {
    bool duplicate = false;
    // A kill fired by this very send, targeting the sender: the crash
    // interrupted the send, so the triggering packet is lost ("kill on the
    // first RESPONSE" means that RESPONSE never arrives and the peer must
    // fall back to the sender's next incarnation).
    bool drop = false;
    std::chrono::nanoseconds extra_delay{0};
  };

  /// Matches kSend triggers against an outgoing packet; fires kill
  /// handlers for matched kills.  Called by Fabric::send before enqueue.
  SendEffects on_send(const Packet& p);

  /// Matches kDeliver triggers after a packet reached a live endpoint;
  /// fires kill handlers for matched kills.  Called by the delivering
  /// shard's scheduler thread with its lock released; with an attached
  /// schedule the fabric delivers per-packet (never batched), so a fired
  /// kill poisons the inbox before the next packet for that endpoint lands.
  void on_deliver(int src, int dst, std::uint16_t kind);

  /// Events whose trigger fired at least once (diagnostics / soak asserts).
  std::size_t fired() const;

 private:
  struct Armed {
    ChaosEvent ev;
    std::uint64_t seen = 0;   // matching packets observed so far
    bool done = false;        // one-shot already fired
  };

  // Returns the fired events (with kill targets resolved) to run handlers
  // outside the lock.
  template <typename Match>
  void scan(ChaosEvent::When when, const Match& matches,
            SendEffects* effects, std::vector<ChaosEvent>& kills);

  mutable std::mutex mu_;
  std::vector<Armed> events_;
  KillHandler on_kill_;
  std::size_t fired_ = 0;
};

}  // namespace windar::net
