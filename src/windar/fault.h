// Fault plane of the recovery engine.
//
// Two halves live here:
//
// 1. Lifecycle signalling shared by the engine components.  A rank's engine
//    is torn down two ways: fault injection (the rank is "killed" and an
//    incarnation will take over) or job teardown (another rank raised an
//    application error and everyone unwinds).  Both are announced via
//    lock-free flags so any component — the app-thread API surface, the
//    receiver thread, a blocking-send ack wait — can observe them without
//    taking a lock.
//
// 2. The protocol-aware face of the chaos schedule (net/chaos.h): helpers
//    that phrase event-keyed faults in windar terms ("kill rank 1 on its
//    8th app delivery", "kill rank 2 mid-resend"), and the seeded random
//    plan generator behind the chaos soak drivers.
#pragma once

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "net/chaos.h"
#include "util/rng.h"
#include "windar/params.h"
#include "windar/wire.h"

namespace windar::ft {

/// Thrown into the application thread when this rank is fault-injected.
struct Killed {};

/// Thrown when the job is being torn down abnormally (another rank raised an
/// application error); unwinds the rank function without triggering recovery.
struct JobAborted {};

/// Shared teardown flags.  `killed` is set by a fired chaos kill via
/// Process::poison(); `aborted` is set when the transport is poisoned without
/// a kill (job teardown).  Killed wins when both are set.
struct LifeFlags {
  std::atomic<bool> killed{false};
  std::atomic<bool> aborted{false};

  bool dead() const {
    return killed.load(std::memory_order_acquire) ||
           aborted.load(std::memory_order_acquire);
  }

  void throw_if_dead() const {
    if (killed.load(std::memory_order_acquire)) throw Killed{};
    if (aborted.load(std::memory_order_acquire)) throw JobAborted{};
  }
};

// ---------------------------------------------------------------------------
// Event-keyed fault schedule helpers (the windar face of net::ChaosEvent)
// ---------------------------------------------------------------------------

/// Kill `rank` when its endpoint receives its `nth` application packet: the
/// kill lands at the same protocol-relative point however slow the host
/// runs.  `revive_after` (fabric-wide delivered packets) > 0 holds the
/// incarnation's restart until that much further traffic flowed.
inline net::ChaosEvent kill_on_delivery(int rank, std::uint64_t nth,
                                        std::uint64_t revive_after = 0) {
  net::ChaosEvent ev;
  ev.when = net::ChaosEvent::When::kDeliver;
  ev.action = net::ChaosEvent::Action::kKill;
  ev.endpoint = rank;
  ev.kind = wire(Kind::kApp);
  ev.nth = nth;
  ev.revive_after_packets = revive_after;
  return ev;
}

/// Kill `rank` `fraction` of the way through its run: on application
/// delivery max(1, fraction * clean_delivered), where `clean_delivered` is
/// the rank's delivery count in a failure-free run of the same job
/// (JobResult::per_rank[rank].app_delivered).  Every application message
/// reaches the rank's endpoint as one packet before the rank can return, so
/// for fraction <= 1 and clean_delivered >= 1 the kill always fires, mid-run.
inline net::ChaosEvent kill_at_fraction(int rank, double fraction,
                                        std::uint64_t clean_delivered) {
  const auto nth = static_cast<std::uint64_t>(
      fraction * static_cast<double>(clean_delivered));
  return kill_on_delivery(rank, std::max<std::uint64_t>(1, nth));
}

/// Kill `rank` as it puts its `nth` packet of `kind` on the wire.  The
/// interesting kinds:
///   kResponse          — crash mid-resend: the log-driven resends travel
///                        first, the RESPONSE certifying them fires the kill,
///                        so the recovering peer must fall back to this
///                        rank's next incarnation (DESIGN §4c).
///   kCheckpointAdvance — crash mid-checkpoint, after the image was saved
///                        but while log-release notifications fan out.
///   kRollback          — crash an incarnation inside its own gather window:
///                        the repeated-failure-of-the-same-rank case.
inline net::ChaosEvent kill_on_send(int rank, Kind kind,
                                    std::uint64_t nth = 1,
                                    std::uint64_t revive_after = 0) {
  net::ChaosEvent ev;
  ev.when = net::ChaosEvent::When::kSend;
  ev.action = net::ChaosEvent::Action::kKill;
  ev.endpoint = rank;
  ev.kind = wire(kind);
  ev.nth = nth;
  ev.revive_after_packets = revive_after;
  return ev;
}

/// Duplicate every (or the nth) packet of `kind` sent by `src` — the
/// duplicate gets an independent latency draw and frequently overtakes the
/// original, exercising the receiver-side duplicate filter in both orders.
inline net::ChaosEvent duplicate_on_send(int src, Kind kind,
                                         std::uint64_t nth = 1,
                                         bool repeat = false) {
  net::ChaosEvent ev;
  ev.when = net::ChaosEvent::When::kSend;
  ev.action = net::ChaosEvent::Action::kDuplicate;
  ev.endpoint = src;
  ev.kind = wire(kind);
  ev.nth = nth;
  ev.repeat = repeat;
  return ev;
}

/// Add `delay_us` of extra latency to packets of `kind` sent by `src`.
inline net::ChaosEvent delay_on_send(int src, Kind kind, std::uint64_t nth,
                                     std::uint64_t delay_us,
                                     bool repeat = false) {
  net::ChaosEvent ev;
  ev.when = net::ChaosEvent::When::kSend;
  ev.action = net::ChaosEvent::Action::kDelay;
  ev.endpoint = src;
  ev.kind = wire(kind);
  ev.nth = nth;
  ev.delay = std::chrono::microseconds(delay_us);
  ev.repeat = repeat;
  return ev;
}

// ---------------------------------------------------------------------------
// Seeded random chaos plans (the soak drivers' schedule grammar)
// ---------------------------------------------------------------------------

/// One randomized soak scenario: an app shape plus an event-keyed fault
/// schedule, both pure functions of the seed so any failure replays from
/// its printed seed alone.
struct ChaosPlan {
  std::uint64_t seed = 0;
  int n = 4;                 // ranks
  int iterations = 30;       // app iterations
  int checkpoint_every = 5;  // app checkpoint cadence
  // Survivors' replay pacing (ProcessParams::replay_burst); 1 sends every
  // ROLLBACK answer longer than one message through the paced path.
  std::size_t replay_burst = ProcessParams{}.replay_burst;
  std::vector<net::ChaosEvent> events;

  std::string describe() const {
    std::string out = "seed=" + std::to_string(seed) +
                      " n=" + std::to_string(n) +
                      " iters=" + std::to_string(iterations) +
                      " ckpt=" + std::to_string(checkpoint_every) +
                      " burst=" + std::to_string(replay_burst);
    for (const auto& ev : events) {
      out += " [";
      out += ev.action == net::ChaosEvent::Action::kKill        ? "kill"
             : ev.action == net::ChaosEvent::Action::kDuplicate ? "dup"
                                                                : "delay";
      out += ev.when == net::ChaosEvent::When::kDeliver ? " dlv" : " snd";
      out += " ep=" + std::to_string(ev.endpoint) +
             " kind=" + std::to_string(ev.kind) +
             " nth=" + std::to_string(ev.nth);
      if (ev.revive_after_packets) {
        out += " revive@+" + std::to_string(ev.revive_after_packets);
      }
      out += "]";
    }
    return out;
  }
};

/// Derives a randomized plan from `seed`: 3-5 ranks, 1-3 kills keyed to
/// delivery counts or control-plane sends (mid-resend / mid-checkpoint /
/// mid-recovery), optionally held-down incarnations, up to two
/// control-packet duplication/delay events, and — as the last draw, so the
/// events of a seed never depend on it — paced replay (replay_burst 1) in
/// about half the plans.  Every scenario must converge to the failure-free
/// digest; the soak drivers assert exactly that.
inline ChaosPlan make_chaos_plan(std::uint64_t seed) {
  util::Rng rng(seed);
  ChaosPlan plan;
  plan.seed = seed;
  plan.n = 3 + static_cast<int>(rng.next_below(3));
  plan.iterations = 20 + static_cast<int>(rng.next_below(21));
  plan.checkpoint_every = 3 + static_cast<int>(rng.next_below(5));
  // Roughly one app packet arrives per rank per iteration (ring exchange),
  // so delivery counts in [2, iterations] spread kills across the run.
  const auto any_nth = [&] {
    return 2 + rng.next_below(static_cast<std::uint64_t>(plan.iterations));
  };
  const int kills = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < kills; ++i) {
    const int rank = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(plan.n)));
    const std::uint64_t revive =
        rng.next_below(3) == 0 ? 20 + rng.next_below(60) : 0;
    switch (rng.next_below(5)) {
      case 0:  // crash a survivor mid-resend (fires only if a peer recovers)
        plan.events.push_back(kill_on_send(rank, Kind::kResponse, 1, revive));
        break;
      case 1:  // crash mid-checkpoint fan-out
        plan.events.push_back(kill_on_send(rank, Kind::kCheckpointAdvance,
                                           1 + rng.next_below(3), revive));
        break;
      case 2:  // crash an incarnation inside its own gather window
        plan.events.push_back(kill_on_send(rank, Kind::kRollback,
                                           1 + rng.next_below(2), revive));
        break;
      default:  // plain delivery-keyed kill
        plan.events.push_back(kill_on_delivery(rank, any_nth(), revive));
        break;
    }
  }
  const int shaping = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < shaping; ++i) {
    const int src = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(plan.n)));
    const Kind kind = rng.next_below(2) == 0 ? Kind::kRollback
                                             : Kind::kCheckpointAdvance;
    if (rng.next_below(2) == 0) {
      plan.events.push_back(duplicate_on_send(src, kind, 1, /*repeat=*/true));
    } else {
      plan.events.push_back(delay_on_send(src, kind, 1,
                                          100 + rng.next_below(2000),
                                          /*repeat=*/true));
    }
  }
  if (rng.next_below(2) == 0) plan.replay_burst = 1;
  return plan;
}

}  // namespace windar::ft
