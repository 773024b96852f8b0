#include "net/fabric.h"

#include <algorithm>

#include "util/check.h"
#include "util/parse.h"

namespace windar::net {

namespace {
// How long a cut-through sender parks on a full destination ring before
// re-routing the packet through the shard scheduler.  Long enough that the
// consumer's batch drain usually ends the episode (one scheduling quantum),
// short enough that a chain of mutually-bursting ranks makes progress.
constexpr std::chrono::milliseconds kCutThroughPatience{2};

// Cut-through is a small-message optimization: above this wire size the
// workload is memory-bandwidth-bound and the pipelined shard path measures
// faster (bench/msg_path --contend: 64 B-1 KiB payloads gain 2-4x from
// cut-through, 2 KiB+ lose ~35%), so bulk packets keep the shard hop.  The
// bound covers a 1 KiB payload plus headers and a piggyback block — the
// protocol's hot shapes.
constexpr std::size_t kCutThroughMaxWire = 1152;
}  // namespace

int Fabric::default_shards() {
  if (const auto v = util::env_int("WINDAR_FABRIC_SHARDS")) {
    return static_cast<int>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, hw == 0 ? 1u : hw));
}

Fabric::Fabric(int endpoints, LatencyModel model, std::uint64_t seed,
               int num_shards, std::optional<InboxConfig> inbox)
    : model_(model) {
  WINDAR_CHECK_GT(endpoints, 0) << "fabric needs at least one endpoint";
  if (num_shards <= 0) num_shards = default_shards();
  num_shards = std::min(num_shards, endpoints);
  const InboxConfig inbox_cfg =
      inbox.has_value() ? *inbox : resolve_inbox_config(endpoints);
  eps_.reserve(static_cast<std::size_t>(endpoints));
  for (int i = 0; i < endpoints; ++i) {
    eps_.push_back(std::make_unique<Endpoint>(inbox_cfg));
  }
  util::Rng seeder(seed);
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Split per shard so adding shards never re-correlates jitter streams;
    // one shard reproduces the seed's original stream behaviourally (same
    // generator family, deterministic in the seed).
    shard->rng = seeder.split(static_cast<std::uint64_t>(s));
    shards_.push_back(std::move(shard));
  }
  // Zero-latency cut-through: when the model has no delay to enforce, the
  // sender thread can deliver straight into the destination inbox — no shard
  // hop, no scheduler wakeup.
  cut_through_ = model_.is_zero();
  if (cut_through_) {
    shard_pending_ = std::make_unique<std::atomic<std::uint32_t>[]>(
        static_cast<std::size_t>(endpoints));
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, sh = shard.get()] {
      scheduler_loop(*sh);
    });
  }
}

Fabric::~Fabric() { shutdown(); }

Endpoint& Fabric::endpoint(EndpointId id) {
  WINDAR_CHECK(id >= 0 && id < endpoint_count()) << "bad endpoint " << id;
  return *eps_[static_cast<std::size_t>(id)];
}

void Fabric::send(Packet p) {
  WINDAR_CHECK(p.dst >= 0 && p.dst < endpoint_count())
      << "send to bad endpoint " << p.dst;
  const int dst_id = p.dst;
  FaultSchedule* chaos = chaos_.load(std::memory_order_acquire);
  // Zero-latency cut-through: with no delay to model and no chaos installed,
  // deliver from the sender thread — no shard enqueue, no scheduler wakeup,
  // no heap op.  Gated on shard_pending_ so a packet that previously fell
  // back to the shard (full ring) is never overtaken on its own channel:
  // same-channel sends are serialized at the sender, so seeing pending == 0
  // (acquire, against the scheduler's release decrement) means every earlier
  // shard-routed packet for this destination already landed.  offer() parks
  // at most kCutThroughPatience on a full ring — never indefinitely (two
  // mutually-bursting ranks would deadlock) — then re-routes through the
  // shard, whose queue is the buffering a bounded ring refuses.
  const std::size_t wire_bytes = p.wire_size();
  if (cut_through_ && chaos == nullptr && wire_bytes <= kCutThroughMaxWire &&
      shard_pending_[static_cast<std::size_t>(dst_id)].load(
          std::memory_order_acquire) == 0) {
    const std::size_t bytes = wire_bytes;
    Endpoint& dst = *eps_[static_cast<std::size_t>(dst_id)];
    if (!dst.alive()) {
      direct_.sent.fetch_add(1, std::memory_order_relaxed);
      direct_.bytes.fetch_add(bytes, std::memory_order_relaxed);
      direct_.dropped_dead.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    switch (dst.inbox_.offer(p, kCutThroughPatience)) {
      case Inbox::PushOutcome::kAccepted:
        direct_.sent.fetch_add(1, std::memory_order_relaxed);
        direct_.bytes.fetch_add(bytes, std::memory_order_relaxed);
        direct_.delivered.fetch_add(1, std::memory_order_relaxed);
        return;
      case Inbox::PushOutcome::kDead:
        direct_.sent.fetch_add(1, std::memory_order_relaxed);
        direct_.bytes.fetch_add(bytes, std::memory_order_relaxed);
        direct_.dropped_dead.fetch_add(1, std::memory_order_relaxed);
        return;
      case Inbox::PushOutcome::kFull:
        break;  // fall through to the buffered shard path, p still intact
    }
  }
  // Chaos triggers run before enqueue and outside any shard lock: a kill
  // fired here may re-enter the fabric (kill()).  A kill targeting the
  // sender itself drops the triggering packet (the crash interrupted the
  // send); kills of other endpoints leave it in flight (packets survive
  // their sender's death).
  FaultSchedule::SendEffects fx;
  if (chaos != nullptr) {
    fx = chaos->on_send(p);
    if (fx.drop) {
      // The send was attempted, so it counts toward packets_sent — the
      // dedicated chaos counter keeps the dead-destination signal
      // (packets_dropped_dead) clean for the chaos soaks.  No wire bytes:
      // the packet never left the crashing sender.
      Shard& sh = shard_for(dst_id);
      std::scoped_lock lock(sh.mu);
      ++sh.stats.packets_sent;
      ++sh.stats.packets_dropped_chaos;
      return;
    }
  }
  const std::size_t bytes = wire_bytes;
  Shard& sh = shard_for(dst_id);
  bool wake;
  {
    std::scoped_lock lock(sh.mu);
    if (sh.stopping) return;
    const bool was_empty = sh.in_flight.empty();
    const auto old_top = was_empty ? std::chrono::steady_clock::time_point{}
                                   : sh.in_flight.top().deliver_at;
    if (cut_through_) {
      // Bump before the packet becomes visible to the scheduler, under the
      // shard lock, so the count never reads below the true in-shard total.
      shard_pending_[static_cast<std::size_t>(dst_id)].fetch_add(
          fx.duplicate ? 2 : 1, std::memory_order_release);
    }
    const auto now = std::chrono::steady_clock::now();
    if (fx.duplicate) {
      // Independent latency draw: the duplicate frequently overtakes the
      // original, exercising the receiver's duplicate filter both ways.
      const auto dup_delay = model_.delay(bytes, sh.rng) + fx.extra_delay;
      ++sh.stats.packets_sent;
      sh.stats.bytes_sent += bytes;
      sh.in_flight.push(InFlight{now + dup_delay,
                                 next_order_.fetch_add(1), p});
    }
    const auto delay = model_.delay(bytes, sh.rng) + fx.extra_delay;
    ++sh.stats.packets_sent;
    sh.stats.bytes_sent += bytes;
    sh.in_flight.push(InFlight{now + delay, next_order_.fetch_add(1),
                               std::move(p)});
    // Wake the scheduler only when this send changed what it is waiting
    // for: an empty→non-empty transition, or a new earliest deadline.  A
    // packet behind the current top needs no notify — the scheduler's
    // wait_until(top) fires in time for it regardless — and skipping the
    // syscall keeps a hot sender from paying a futex wake per message.
    wake = was_empty || sh.in_flight.top().deliver_at < old_top;
  }
  if (wake) sh.cv.notify_one();
}

void Fabric::kill(EndpointId id) {
  Endpoint& ep = endpoint(id);
  ep.alive_.store(false, std::memory_order_release);
  // Queued-but-unconsumed packets are volatile state of the crashed node.
  ep.inbox_.poison();
}

void Fabric::revive(EndpointId id) {
  Endpoint& ep = endpoint(id);
  ep.inbox_.revive();
  ep.alive_.store(true, std::memory_order_release);
  // An incarnation constructed after a job shutdown (another rank's
  // application error) must not un-poison its inbox: its receiver would
  // never see the abort and the rank would wait forever.  Checking after the
  // revive also covers a shutdown that races it.
  if (shutdown_.load()) ep.inbox_.poison();
}

void Fabric::shutdown() {
  if (shutdown_.exchange(true)) return;
  // Poison inboxes BEFORE joining the shard threads: a scheduler blocked
  // pushing into a full bounded ring (whose consumer already exited) can
  // only observe `stopping` after the push returns, and poison is what makes
  // it return.  The dropped packets book as dropped_dead, which shutdown's
  // "undelivered packets are discarded" contract already allows.
  for (auto& ep : eps_) ep->inbox_.poison();
  for (auto& shard : shards_) {
    {
      std::scoped_lock lock(shard->mu);
      shard->stopping = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

FabricStats Fabric::stats() const {
  FabricStats merged;
  // Cut-through deliveries book in the lock-free direct slab.
  merged.packets_sent = direct_.sent.load(std::memory_order_relaxed);
  merged.packets_delivered = direct_.delivered.load(std::memory_order_relaxed);
  merged.packets_dropped_dead =
      direct_.dropped_dead.load(std::memory_order_relaxed);
  merged.bytes_sent = direct_.bytes.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mu);
    merged.merge(shard->stats);
  }
  return merged;
}

void Fabric::scheduler_loop(Shard& sh) {
  std::vector<Packet> batch;
  std::unique_lock lock(sh.mu);
  while (true) {
    if (sh.stopping) return;
    if (sh.in_flight.empty()) {
      sh.cv.wait(lock, [&] { return sh.stopping || !sh.in_flight.empty(); });
      continue;
    }
    const auto deadline = sh.in_flight.top().deliver_at;
    const auto now = std::chrono::steady_clock::now();
    if (now < deadline) {
      sh.cv.wait_until(lock, deadline,
                       [&] { return sh.stopping ||
                                    (!sh.in_flight.empty() &&
                                     sh.in_flight.top().deliver_at <
                                         deadline); });
      continue;
    }
    // Batch drain: pop every deadline-expired packet in one critical
    // section, then deliver the whole batch outside the lock so a slow or
    // full inbox never stalls senders targeting this shard.
    batch.clear();
    while (!sh.in_flight.empty() && sh.in_flight.top().deliver_at <= now) {
      batch.push_back(std::move(const_cast<InFlight&>(sh.in_flight.top())
                                    .packet));
      sh.in_flight.pop();
    }
    lock.unlock();
    // The drop-accounting invariant rides on the inbox push result: only
    // packets the inbox actually accepted count as delivered — a kill()
    // racing this delivery poisons the inbox and the packet books under
    // packets_dropped_dead instead of vanishing behind a stale alive()
    // read.
    FabricStats delta;
    FaultSchedule* chaos = chaos_.load(std::memory_order_acquire);
    if (chaos) {
      // Chaos pins delivery to per-packet granularity: a "kill on the Kth
      // delivery" trigger must poison the inbox before packet K+1 lands,
      // so the victim can never consume past the kill point.  The handler
      // runs with no shard lock held — it may re-enter kill(), revive(),
      // or stats().
      for (Packet& p : batch) {
        const int src = p.src;
        const int dst_id = p.dst;
        const std::uint16_t kind = p.kind;
        Endpoint& dst = *eps_[static_cast<std::size_t>(dst_id)];
        if (dst.alive() && dst.inbox_.push(std::move(p))) {
          ++delta.packets_delivered;
          chaos->on_deliver(src, dst_id, kind);
        } else {
          ++delta.packets_dropped_dead;
        }
        if (cut_through_) {
          // Release so a sender that reads pending == 0 (acquire) is
          // ordered after this packet's inbox push — cut-through can never
          // overtake a shard-routed packet on the same channel.
          shard_pending_[static_cast<std::size_t>(dst_id)].fetch_sub(
              1, std::memory_order_release);
        }
      }
    } else {
      // Fast path: consecutive packets for the same destination land with
      // one inbox lock/notify (push_batch).  A batch is accepted whole or
      // dropped whole — push_batch is atomic against poisoning.
      std::size_t i = 0;
      while (i < batch.size()) {
        const int dst_id = batch[i].dst;
        std::size_t j = i + 1;
        while (j < batch.size() && batch[j].dst == dst_id) ++j;
        Endpoint& dst = *eps_[static_cast<std::size_t>(dst_id)];
        std::size_t accepted = 0;
        if (dst.alive()) {
          if (j - i == 1) {
            accepted = dst.inbox_.push(std::move(batch[i])) ? 1 : 0;
          } else {
            std::vector<Packet> run;
            run.reserve(j - i);
            for (std::size_t k = i; k < j; ++k) {
              run.push_back(std::move(batch[k]));
            }
            accepted = dst.inbox_.push_batch(std::move(run));
          }
        }
        delta.packets_delivered += accepted;
        delta.packets_dropped_dead += (j - i) - accepted;
        if (cut_through_) {
          shard_pending_[static_cast<std::size_t>(dst_id)].fetch_sub(
              static_cast<std::uint32_t>(j - i), std::memory_order_release);
        }
        i = j;
      }
    }
    lock.lock();
    sh.stats.packets_delivered += delta.packets_delivered;
    sh.stats.packets_dropped_dead += delta.packets_dropped_dead;
  }
}

}  // namespace windar::net
