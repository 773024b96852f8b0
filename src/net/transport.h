// Abstract message transport — the seam between the windar protocol stack
// and whatever actually moves bytes.
//
// Everything above this interface (mp::RawComm, the recovery engine, the
// TEL event logger) is written against Transport, so the same protocol code
// runs unchanged over two very different substrates:
//
//   net::Fabric           the in-process simulated interconnect: every rank
//                         is a thread in one address space, latency and
//                         reordering are modelled, faults are cooperative
//                         (kill() poisons the victim's inbox).
//   net::SocketTransport  real OS processes over Unix-domain sockets with
//                         length-prefixed framing; faults are actual SIGKILL
//                         plus a spare-process incarnation (see
//                         windar/launcher.h).
//
// The contract every backend must keep (DESIGN.md §3f):
//   * endpoint(id).inbox() is where packets for `id` appear; per-channel
//     (src, dst) FIFO is preserved for same-size zero-jitter streams;
//   * packets sent to a dead/unreachable endpoint are dropped and counted,
//     never errored back to the sender;
//   * stats() books every accepted send exactly once:
//       packets_sent == packets_delivered + packets_dropped_dead
//                                         + packets_dropped_chaos
//     on a quiescent transport (for SocketTransport the invariant is over
//     the *merged* stats of every process's transport, and only fault-free
//     traffic is guaranteed to quiesce — bytes SIGKILLed inside a kernel
//     socket buffer are sent-but-never-delivered, exactly like a real NIC).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "net/chaos.h"
#include "net/inbox.h"
#include "net/packet.h"

namespace windar::net {

/// Per-endpoint view handed to rank threads: the inbox packets arrive on and
/// the liveness flag the fault plane flips.  The inbox backend (bounded MPSC
/// ring or legacy BlockingQueue) is fixed at construction — see net/inbox.h.
class Endpoint {
 public:
  Endpoint() : inbox_(resolve_inbox_config(1)) {}
  explicit Endpoint(const InboxConfig& cfg) : inbox_(cfg) {}

  Inbox& inbox() { return inbox_; }
  bool alive() const { return alive_.load(std::memory_order_acquire); }

 private:
  friend class Fabric;
  friend class SocketTransport;
  Inbox inbox_;
  std::atomic<bool> alive_{true};
};

/// Uniform traffic accounting across backends.  (The name predates the
/// Transport split; it is the stats block of every backend, not just the
/// simulated fabric.)
struct FabricStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped_dead = 0;   // destination dead at delivery
  std::uint64_t packets_dropped_chaos = 0;  // sender killed mid-send (chaos)
  std::uint64_t bytes_sent = 0;  // wire bytes; chaos-dropped sends excluded
  // Socket backend only: frames rejected by the decoder (bad magic/version,
  // corrupt length prefix, truncated-by-EOF).  Each costs the offending
  // connection, never the process; the simulated backend is always 0.
  std::uint64_t frame_errors = 0;
  // Socket backend only: high-water mark, in wire bytes, of any single
  // per-peer writer queue — the figure that used to grow without bound when
  // a peer stalled.  Bounded by the writer-queue caps; merges as a max (the
  // job-wide peak), not a sum.
  std::uint64_t writer_queue_hwm = 0;

  void merge(const FabricStats& other) {
    packets_sent += other.packets_sent;
    packets_delivered += other.packets_delivered;
    packets_dropped_dead += other.packets_dropped_dead;
    packets_dropped_chaos += other.packets_dropped_chaos;
    bytes_sent += other.bytes_sent;
    frame_errors += other.frame_errors;
    if (other.writer_queue_hwm > writer_queue_hwm) {
      writer_queue_hwm = other.writer_queue_hwm;
    }
  }

  bool accounted() const {
    return packets_sent == packets_delivered + packets_dropped_dead +
                               packets_dropped_chaos;
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Endpoints this transport can address (ranks plus auxiliary endpoints
  /// such as TEL's event logger).  A SocketTransport addresses the whole
  /// job but *hosts* only its own endpoint's inbox.
  virtual int endpoint_count() const = 0;
  virtual Endpoint& endpoint(EndpointId id) = 0;

  /// Enqueues a packet for asynchronous delivery.  Thread-safe.  Never
  /// blocks on a dead destination; packets to dead endpoints are dropped
  /// and counted.  The socket backend applies flow control: when a *live*
  /// peer's bounded writer queue is full the producer blocks until the
  /// writer drains (backpressure), so a stalled reader bounds the sender's
  /// memory instead of growing it.
  virtual void send(Packet p) = 0;

  /// Fault plane: mark an endpoint dead (its queued inbox is volatile state
  /// and is discarded) / re-arm it for an incarnation.  For the socket
  /// backend these act on the local process's view — the real fault is a
  /// SIGKILL delivered by the launcher.
  virtual void kill(EndpointId id) = 0;
  virtual void revive(EndpointId id) = 0;

  /// Attaches an event-keyed fault schedule (non-owning; must outlive the
  /// transport's traffic).  Call before traffic starts.
  virtual void set_chaos(FaultSchedule* chaos) = 0;

  /// Stops delivery; undelivered packets are discarded.  Idempotent.
  virtual void shutdown() = 0;

  /// This transport's accounting slab (for SocketTransport: this process's
  /// share — merge across processes for the job-wide view).
  virtual FabricStats stats() const = 0;
};

/// Backend selector shared by drivers and benches.
enum class TransportKind { kSim, kSocket };

inline const char* to_string(TransportKind k) {
  return k == TransportKind::kSim ? "sim" : "socket";
}

/// Parses "sim" / "socket"; anything else returns false.
bool parse_transport(const std::string& s, TransportKind* out);

/// Default backend: the WINDAR_TRANSPORT environment variable ("sim" or
/// "socket"; any other value is fatal) if set, else the simulated fabric.
TransportKind default_transport();

}  // namespace windar::net
