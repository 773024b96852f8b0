// Real-process Transport backend over Unix-domain sockets.
//
// One SocketTransport lives in each OS process and *hosts* exactly one
// endpoint (its own inbox + listener socket) while *addressing* the whole
// job: `send` to any endpoint id connects to that peer's socket file under
// the shared job directory.  The windar protocol stack above is unchanged —
// it sees the same Transport interface the simulated fabric implements.
//
// Data plane:
//   * one listener socket per endpoint (`<dir>/ep<id>.sock`), a nonblocking
//     poll()-driven reader thread that accepts connections and reassembles
//     length-prefixed frames (net/frame.h) into Packets pushed onto the
//     hosted endpoint's inbox.  The reader recv()s straight into the frame
//     decoder's single body allocation, so a received packet costs one
//     allocation and zero re-copies (meta/payload are Buffer views into it).
//   * one writer thread per peer, each draining its own queue and handing
//     frames to sendmsg() as a scatter-gather iovec over {header, meta,
//     payload} — the sections are the packet's refcounted Buffer bytes,
//     never re-copied (the PR 4 copy-once invariant crosses the syscall
//     boundary intact).  Partial writes advance the iovec and continue;
//     EPIPE/ECONNRESET mean the peer vanished and the packet books as
//     packets_dropped_dead, mirroring the fabric's in-flight-loss model.
//
// Connection handshake: the first frame on every connection is a hello
// (kHelloKind) carrying the sender's incarnation; the receiver records it
// (peer_incarnation()) so a respawned rank's new connection is
// distinguishable from its predecessor's.
//
// Stats parity with the fabric (tests/test_fabric.cc runs the invariant
// against both backends): packets_sent is booked at send(), delivered at the
// receiver's successful inbox push, drops split between dropped_dead
// (dead/vanished peer) and dropped_chaos (scripted sender-side kill).  The
// invariant holds over the *merged* stats of every process's transport once
// traffic quiesces; bytes_sent counts wire bytes including the frame header.
//
// Fault plane: kill()/revive() act on this process's local view (poisoning
// the hosted inbox / marking a peer unreachable) — the real fault in a
// multi-process job is a SIGKILL delivered by windar::ProcessLauncher.
// Chaos: kSend kill/duplicate triggers shape traffic exactly like the
// fabric; kDelay is ignored (latency is real here, not modelled).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/chaos.h"
#include "net/frame.h"
#include "net/inbox.h"
#include "net/packet.h"
#include "net/transport.h"
#include "util/queue.h"

namespace windar::net {

struct SocketTransportOptions {
  int endpoints = 0;     // job-wide endpoint count (ranks + auxiliaries)
  EndpointId self = -1;  // the one endpoint this process hosts
  std::string dir;       // job directory holding every endpoint's socket
  std::uint32_t incarnation = 0;  // stamped on every outgoing frame
  std::size_t max_section_bytes = kDefaultMaxSectionBytes;
  // Connect retry window (covers a peer that is mid-respawn).  After a full
  // window fails the peer is fast-failed for a short period so a dead peer
  // costs one attempt per packet, not a window.
  int connect_attempts = 25;
  std::chrono::milliseconds connect_retry{2};
  int sndbuf_bytes = 0;  // 0 = kernel default; tests shrink it to force
                         // partial writes
  // Per-peer writer-queue bounds (backpressure).  A producer whose packet
  // would push a LIVE peer's queue past either cap blocks in send() until
  // the writer drains; queues to down peers drain by dropping, so no one
  // blocks on a dead rank.  Tests shrink these to force the blocking path.
  std::size_t writer_queue_max_packets = 4096;
  std::size_t writer_queue_max_bytes = 8u << 20;
  // Hosted-endpoint inbox backend.  nullopt takes resolve_inbox_config (a
  // bounded MPSC ring).  The launcher pins its
  // control-plane transports to kQueue — barrier traffic must never exert
  // ring backpressure on the data plane.
  std::optional<InboxConfig> inbox;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportOptions opts);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// The socket file endpoint `id` listens on under `dir` — the one naming
  /// rule launcher, workers, and tests share.
  static std::string socket_path(const std::string& dir, EndpointId id);

  int endpoint_count() const override { return opts_.endpoints; }

  /// Only the hosted endpoint has an inbox in this process.
  Endpoint& endpoint(EndpointId id) override;

  void send(Packet p) override;
  void kill(EndpointId id) override;
  void revive(EndpointId id) override;
  void set_chaos(FaultSchedule* chaos) override {
    chaos_.store(chaos, std::memory_order_release);
  }
  void shutdown() override;
  FabricStats stats() const override;

  /// Blocks until every packet accepted by send() has been handed to the
  /// kernel or dropped (writer queues empty), or the timeout passes.
  /// Returns true on full drain.  shutdown() discards queued packets, so
  /// callers that must not lose a final message flush first.
  bool flush(std::chrono::milliseconds timeout);

  std::uint32_t incarnation() const { return opts_.incarnation; }

  /// Incarnation announced by the most recent hello from `id` (0 before any
  /// connection from that peer).
  std::uint32_t peer_incarnation(EndpointId id) const;

 private:
  // One outgoing lane per peer: a queue the send path enqueues to and a
  // thread that owns the connection fd.  All connection state is private to
  // the writer thread.
  struct PeerWriter {
    util::BlockingQueue<Packet> queue;
    std::thread thread;
    int fd = -1;
    std::chrono::steady_clock::time_point fast_fail_until{};
    // Flow control: producers reserve depth under bp_mu before pushing and
    // block while both caps are hit; the writer releases depth as it pops.
    std::mutex bp_mu;
    std::condition_variable bp_cv;
    std::size_t queued_packets = 0;
    std::size_t queued_bytes = 0;
  };

  enum class WriteResult { kOk, kPeerGone, kAborted };

  void reserve_writer_depth(EndpointId peer, PeerWriter& w, std::size_t packets,
                            std::size_t bytes);
  void release_writer_depth(PeerWriter& w, std::size_t packets,
                            std::size_t bytes);
  void writer_loop(EndpointId peer, PeerWriter& w);
  bool connect_peer(EndpointId peer, PeerWriter& w);
  WriteResult write_frame(int fd, const Packet& p);
  void reader_loop();
  // Drains one readable connection; returns false when it should close.
  bool service_connection(int fd, FrameDecoder& dec);
  void deliver_local(Packet p);

  SocketTransportOptions opts_;
  std::unique_ptr<Endpoint> self_ep_;
  std::vector<std::unique_ptr<PeerWriter>> writers_;  // [endpoint id]; self null
  std::unique_ptr<std::atomic<bool>[]> peer_down_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> peer_incarnation_;
  std::atomic<FaultSchedule*> chaos_{nullptr};
  std::atomic<std::uint64_t> inflight_{0};  // enqueued, not yet written/dropped
  std::atomic<bool> shutdown_{false};
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::thread reader_;
  mutable std::mutex stats_mu_;
  FabricStats stats_;
};

}  // namespace windar::net
