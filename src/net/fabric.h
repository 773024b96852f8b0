// Simulated interconnect — the in-process Transport backend (and the
// default one; see net/transport.h for the interface contract and
// net/socket_transport.h for the real-process backend).
//
// A Fabric owns N endpoints (one per rank, plus auxiliary endpoints such as
// TEL's stable-storage event logger).  `send` stamps the packet with a
// delivery deadline drawn from the latency model and hands it to one of
// `num_shards` scheduler threads — packets are sharded by destination
// (`dst % num_shards`), so every packet for one endpoint flows through one
// shard and per-channel FIFO is structural.  Each shard owns its own mutex,
// condition variable, in-flight priority queue, RNG stream, and stats slab;
// `stats()` merges the slabs on read.  Because channels share a shard's
// scheduler but draw independent jitter, packets on different channels are
// frequently reordered relative to their send order — the source of
// non-deterministic arrival the protocols under study must cope with.
// `num_shards == 1` reproduces the single-scheduler global delivery order
// exactly (the deterministic-test mode).
//
// Fault plane: `kill(ep)` marks an endpoint dead and discards its queued
// inbox (a crashed node loses volatile state); in-flight packets that reach a
// dead endpoint are dropped and counted.  `revive(ep)` re-arms the endpoint
// for the rank's incarnation.  Recovery-time retransmission is the job of the
// layers above — the fabric itself is a lossy-when-dead, reordering,
// otherwise reliable network.
//
// Drop accounting invariant (asserted by tests/test_fabric.cc): on a
// quiescent, non-shut-down fabric,
//   packets_sent == packets_delivered + packets_dropped_dead
//                                     + packets_dropped_chaos.
// A packet counts as delivered only when the inbox push actually succeeded —
// a concurrent kill() that poisons the inbox between the liveness check and
// the push books the packet under packets_dropped_dead, never both.
//
// An optional FaultSchedule (chaos.h) extends the fault plane with scripted,
// event-keyed triggers: every send and every completed delivery is matched
// against the schedule, which may duplicate or delay packets and fires kill
// triggers through its handler (the runtime turns those into rank kills).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "net/chaos.h"
#include "net/inbox.h"
#include "net/latency.h"
#include "net/packet.h"
#include "net/transport.h"
#include "util/rng.h"

namespace windar::net {

class Fabric final : public Transport {
 public:
  /// `endpoints` includes any auxiliary endpoints (e.g. the TEL logger).
  /// `num_shards` scheduler threads split the endpoints by `dst %
  /// num_shards`; 0 resolves the default — the WINDAR_FABRIC_SHARDS
  /// environment variable if set, else min(4, hardware_concurrency).
  /// `inbox` overrides the per-endpoint inbox backend/capacity; nullopt
  /// takes resolve_inbox_config (a bounded MPSC ring).
  Fabric(int endpoints, LatencyModel model, std::uint64_t seed,
         int num_shards = 0, std::optional<InboxConfig> inbox = std::nullopt);
  ~Fabric() override;

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int endpoint_count() const override { return static_cast<int>(eps_.size()); }
  Endpoint& endpoint(EndpointId id) override;

  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Default shard count when the constructor gets `num_shards == 0`:
  /// WINDAR_FABRIC_SHARDS if set (a malformed value is fatal), else
  /// min(4, hardware_concurrency).
  static int default_shards();

  /// Enqueues a packet for delayed delivery.  Thread-safe.  Packets sent to
  /// dead endpoints still travel and are dropped on arrival, modelling
  /// in-flight loss at the moment of a crash.
  void send(Packet p) override;

  /// Marks the endpoint dead and discards all packets queued in its inbox.
  void kill(EndpointId id) override;

  /// Re-arms a killed endpoint for an incarnation.
  void revive(EndpointId id) override;

  /// Attaches an event-keyed fault schedule (non-owning; must outlive the
  /// fabric's traffic).  Every send and completed delivery is matched
  /// against it.  Call before traffic starts.
  void set_chaos(FaultSchedule* chaos) override {
    chaos_.store(chaos, std::memory_order_release);
  }

  /// Stops the schedulers; undelivered packets are discarded.  Idempotent.
  void shutdown() override;

  /// Merged view of the per-shard stats slabs.
  FabricStats stats() const override;

 private:
  struct InFlight {
    std::chrono::steady_clock::time_point deliver_at;
    std::uint64_t order;  // tie-break so equal deadlines keep send order
    Packet packet;
  };
  struct Later {
    bool operator()(const InFlight& a, const InFlight& b) const {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      return a.order > b.order;
    }
  };

  // One scheduler's world: everything a shard touches per packet lives on
  // its own cache lines so shards never contend except in stats().
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::priority_queue<InFlight, std::vector<InFlight>, Later> in_flight;
    util::Rng rng;          // independent jitter stream, guarded by mu
    FabricStats stats;      // slab merged by Fabric::stats()
    bool stopping = false;  // guarded by mu
    std::thread thread;
  };

  Shard& shard_for(EndpointId dst) {
    return *shards_[static_cast<std::size_t>(dst) % shards_.size()];
  }

  void scheduler_loop(Shard& shard);

  /// Accounting slab for the zero-latency cut-through path (sender threads
  /// deliver directly, so these can't live under any shard's mutex).
  struct alignas(64) DirectStats {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> dropped_dead{0};
    std::atomic<std::uint64_t> bytes{0};
  };

  LatencyModel model_;
  std::vector<std::unique_ptr<Endpoint>> eps_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<FaultSchedule*> chaos_{nullptr};
  std::atomic<std::uint64_t> next_order_{0};
  std::atomic<bool> shutdown_{false};

  // Cut-through plumbing (active exactly when the latency model is
  // identically zero).  shard_pending_[d]
  // counts packets for endpoint d still inside the shard scheduler: while it
  // is non-zero, new sends to d keep taking the shard path so a packet that
  // fell back (full ring, chaos duplicate) is never overtaken on its own
  // channel — that preserves the documented per-channel FIFO for zero-jitter
  // same-size streams.
  bool cut_through_ = false;
  DirectStats direct_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> shard_pending_;
};

}  // namespace windar::net
