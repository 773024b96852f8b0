#include "windar/send_path.h"

#include <algorithm>

#include "util/check.h"
#include "util/clock.h"

namespace windar::ft {

SendPath::SendPath(net::Transport& transport, const ProcessParams& params,
                   LifeFlags& life, ChannelState& channels,
                   ProtocolHost& tracker, SenderLog& log,
                   SharedMetrics& metrics)
    : transport_(transport),
      params_(params),
      life_(life),
      channels_(channels),
      tracker_(tracker),
      log_(log),
      metrics_(metrics) {}

SendPath::~SendPath() { stop(); }

void SendPath::start() {
  if (params_.mode != SendMode::kNonBlocking) return;
  if (exec::Scheduler* sched =
          exec::Scheduler::on_task() ? exec::Scheduler::current() : nullptr) {
    // Cooperative mode: the engine was constructed on a rank task, so its
    // helper becomes a sibling fiber on the same worker pool.
    recv_task_ = sched->spawn([this] { recv_loop(); });
    return;
  }
  recv_thread_ = std::thread([this] { recv_loop(); });
}

void SendPath::stop() {
  closing_.store(true, std::memory_order_release);
  // Wake a receiver thread blocked on the inbox.  By teardown time the rank
  // is either dead (inbox already poisoned) or the job is over.
  transport_.endpoint(params_.rank).inbox().poison();
  if (cb_.wake) cb_.wake();
  if (recv_thread_.joinable()) recv_thread_.join();
  if (recv_task_.valid()) recv_task_.join();
  recv_task_ = exec::TaskHandle{};
}

void SendPath::send_control(int dst, Kind kind, std::uint64_t seq,
                            util::Buffer payload) {
  metrics_.update([](Metrics& m) { ++m.control_msgs; });
  transport_.send(control_packet(params_.rank, dst, kind, seq,
                              std::move(payload)));
}

void SendPath::send_app(int dst, int tag,
                        std::span<const std::uint8_t> payload) {
  const SeqNo idx = channels_.next_send_index(dst);

  const std::int64_t t0 = util::now_ns();
  Piggyback pb = tracker_.with(
      [&](LoggingProtocol& proto) { return proto.on_send(dst, idx); });
  const std::int64_t track_ns = util::now_ns() - t0;

  // Copy-once: the application's bytes are duplicated into exactly one
  // shared buffer, which the wire packet, the sender-log entry, and any
  // later log-driven resend all alias.
  util::Buffer body = util::Buffer::copy_of(payload);
  // buffer_allocs counts *fresh* heap sections only — a pooled block reused
  // off the free list books under packets_recycled instead, never both
  // (recycling used to double-count as an alloc).
  const std::uint64_t recycled_blocks =
      (body.recycled() ? 1u : 0u) + (pb.blob.recycled() ? 1u : 0u);
  const std::uint64_t send_allocs =
      (body.inline_storage() || body.recycled() ? 0u : 1u) +
      (pb.blob.inline_storage() || pb.blob.recycled() ? 0u : 1u);
  net::Packet p = app_packet(params_.rank, dst, tag, idx, pb.blob, body);

  LogEntry e;
  e.send_index = idx;
  e.tag = tag;
  e.meta = std::move(pb.blob);
  e.payload = std::move(body);
  // append() hands back the log's running totals, saving two more
  // lock-takes on the hot path.
  const SenderLog::Totals log_totals = log_.append(dst, std::move(e));

  metrics_.update([&](Metrics& m) {
    m.track_send_ns += track_ns;
    ++m.app_sent;
    m.piggyback_idents += pb.idents;
    m.piggyback_bytes += p.meta.size();
    m.piggyback_bytes_dense += pb.dense_bytes;
    m.piggyback_bytes_sent += p.meta.size();
    if (pb.resync) ++m.piggyback_resyncs;
    m.payload_bytes += payload.size();
    m.bytes_copied += payload.size();
    m.buffer_allocs += send_allocs;
    m.packets_recycled += recycled_blocks;
    m.log_peak_bytes =
        std::max<std::uint64_t>(m.log_peak_bytes, log_totals.bytes);
    m.log_peak_entries =
        std::max<std::uint64_t>(m.log_peak_entries, log_totals.entries);
  });

  if (params_.trace) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kSend;
    ev.rank = params_.rank;
    ev.incarnation = params_.incarnation;
    ev.peer = dst;
    ev.pair_index = idx;
    params_.trace->record(std::move(ev));
  }

  // Algorithm 1 line 10: suppress re-sends the receiver confirmed.  A
  // fresh send to a peer whose replay is still streaming goes out at once:
  // the receiver's per-source lane parks it until the replay fills the gap.
  const bool suppressed = channels_.should_suppress(dst, idx);
  if (suppressed) {
    metrics_.update([](Metrics& m) { ++m.suppressed_sends; });
  } else {
    metrics_.update([](Metrics& m) { ++m.app_transmitted; });
    transport_.send(std::move(p));
  }

  if (params_.mode == SendMode::kBlocking && !suppressed) {
    // Synchronous-send semantics: wait for the receiver to accept, serving
    // our own inbox meanwhile so recovery traffic keeps flowing.
    const std::int64_t b0 = util::now_ns();
    while (!channels_.is_acked(dst, idx)) {
      pump_once(Clock::now() + kTick);
    }
    const std::int64_t block_ns = util::now_ns() - b0;
    metrics_.update([&](Metrics& m) { m.send_block_ns += block_ns; });
  }
}

void SendPath::pump_once(Clock::time_point deadline) {
  life_.throw_if_dead();
  auto& inbox = transport_.endpoint(params_.rank).inbox();
  auto p = inbox.pop_until(deadline);
  if (!p && inbox.poisoned()) {
    // Either we were fault-injected (throw Killed) or the job is being torn
    // down around us (throw JobAborted).
    if (life_.killed.load(std::memory_order_acquire)) throw Killed{};
    throw JobAborted{};
  }
  if (p) cb_.dispatch(std::move(*p));  // same thread: no wakeup needed
  cb_.periodic();
}

void SendPath::recv_loop() {
  auto& inbox = transport_.endpoint(params_.rank).inbox();
  std::vector<net::Packet> batch;
  while (true) {
    // Idle-block unless timed work is pending (rollback retries during
    // recovery) — helper-thread wakeups are pure overhead otherwise.
    const Clock::duration tick = cb_.urgent() ? std::chrono::milliseconds(1)
                                              : std::chrono::milliseconds(100);
    auto p = inbox.pop_until(Clock::now() + tick);
    if (closing_.load(std::memory_order_acquire)) return;
    bool wake = false;
    if (p) {
      wake = cb_.dispatch(std::move(*p));
      // Under load the inbox rarely holds just one packet — drain whatever
      // else already arrived with one lock acquisition and dispatch the lot
      // before the periodic work, so a burst costs one wakeup, not N.
      batch.clear();
      if (inbox.try_pop_batch(&batch, 64) > 0) {
        for (net::Packet& q : batch) {
          wake = cb_.dispatch(std::move(q)) || wake;
        }
        batch.clear();
      }
    } else if (inbox.poisoned()) {
      cb_.transport_closed();
      return;
    }
    cb_.periodic();
    if (wake) cb_.wake();
  }
}

}  // namespace windar::ft
