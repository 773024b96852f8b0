// Overhead accounting for the recovery layer.
//
// These counters feed the paper's evaluation directly:
//   Fig. 6  <- piggyback_idents / app_sent      (identifiers per message)
//   Fig. 7  <- (track_send_ns + track_deliver_ns) per message
//   Fig. 8  <- job wall time (runtime-level), send_block_ns explains the gap
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

namespace windar::ft {

struct Metrics {
  // message counts
  std::uint64_t app_sent = 0;          // application messages sent (incl. suppressed)
  std::uint64_t app_transmitted = 0;   // actually put on the wire
  std::uint64_t app_delivered = 0;
  std::uint64_t control_msgs = 0;      // acks/advances/rollbacks/responses/TEL
  std::uint64_t resent_msgs = 0;       // log-driven retransmissions
  std::uint64_t dup_dropped = 0;
  std::uint64_t suppressed_sends = 0;  // skipped during rolling forward
  std::uint64_t bad_packets = 0;       // malformed control payloads dropped
  // Deepest queue B (messages parked awaiting delivery) this rank reached.
  // Out-of-order arrivals park there, such as fresh sends that overtake a
  // peer's paced replay; merges keep the maximum.
  std::uint64_t queue_b_peak = 0;

  // piggyback overhead (per outgoing app message)
  std::uint64_t piggyback_idents = 0;
  std::uint64_t piggyback_bytes = 0;
  // Compression pair: what the paper's dense vector would have cost for the
  // same sends vs what actually went on the wire (== piggyback_bytes; kept
  // as its own counter so the ratio survives merges with protocols that
  // don't report a dense equivalent).  piggyback_resyncs counts delta-mode
  // sends that had no channel base (first send, or first after restore).
  std::uint64_t piggyback_bytes_dense = 0;
  std::uint64_t piggyback_bytes_sent = 0;
  std::uint64_t piggyback_resyncs = 0;
  std::uint64_t payload_bytes = 0;

  // zero-copy plane: what the send path actually materialises.  Copy-once
  // means bytes_copied == payload_bytes (each app payload duplicated into
  // exactly one shared buffer).  buffer_allocs counts *fresh* heap blocks
  // created per send (0 for inline-sized messages); a block reused off the
  // slab pool's free list books under packets_recycled instead — the two
  // never overlap, so allocs + recycled is the non-inline section count.
  std::uint64_t bytes_copied = 0;
  std::uint64_t buffer_allocs = 0;
  std::uint64_t packets_recycled = 0;

  // tracking time: CPU spent inside protocol code on the application thread
  std::int64_t track_send_ns = 0;
  std::int64_t track_deliver_ns = 0;

  // blocking behaviour
  std::int64_t send_block_ns = 0;  // app thread stalled in send (ack waits)

  // logging / checkpoint plane
  std::uint64_t log_peak_bytes = 0;
  std::uint64_t log_peak_entries = 0;
  std::uint64_t log_released_entries = 0;
  std::uint64_t checkpoints = 0;       // snapshots sealed (app thread)
  std::uint64_t ckpt_committed = 0;    // images durably written + published
  // Checkpoint stall: time the application thread spent inside checkpoint()
  // (seal only under async commit; seal + serialize + fsync when
  // synchronous).  ckpt_commit_ns is the writer-side cost of serialization
  // and durable I/O, wherever it ran.
  std::int64_t ckpt_stall_ns = 0;
  std::int64_t ckpt_commit_ns = 0;
  std::uint64_t recoveries = 0;
  // ROLLBACK broadcast rounds (first announce + backoff retries).  A
  // recovery that converges first try contributes 1; a retry storm shows up
  // as this growing linearly with outage length instead of logarithmically.
  std::uint64_t rollback_broadcasts = 0;

  void merge(const Metrics& o);

  double avg_piggyback_idents() const {
    return app_sent ? static_cast<double>(piggyback_idents) /
                          static_cast<double>(app_sent)
                    : 0.0;
  }
  /// Wire bytes as a fraction of the dense-encoding bytes for the same
  /// sends; 1.0 when nothing was saved (or nothing was sent).
  double piggyback_compression() const {
    return piggyback_bytes_dense
               ? static_cast<double>(piggyback_bytes_sent) /
                     static_cast<double>(piggyback_bytes_dense)
               : 1.0;
  }
  /// Average protocol tracking time per application message, microseconds.
  double avg_track_us() const {
    const std::uint64_t events = app_sent + app_delivered;
    return events ? static_cast<double>(track_send_ns + track_deliver_ns) /
                        1e3 / static_cast<double>(events)
                  : 0.0;
  }

  std::string summary() const;
};

/// Mutex-guarded Metrics shared by the recovery-engine components.  A leaf in
/// the engine's lock order: `update` lambdas must not take other locks.
class SharedMetrics {
 public:
  template <typename F>
  void update(F&& f) {
    std::scoped_lock lock(mu_);
    f(m_);
  }

  Metrics snapshot() const {
    std::scoped_lock lock(mu_);
    return m_;
  }

 private:
  mutable std::mutex mu_;
  Metrics m_;
};

}  // namespace windar::ft
