#include "windar/delivery_queue.h"

#include <algorithm>
#include <limits>

#include "util/clock.h"

namespace windar::ft {

DeliveryQueue::DeliveryQueue(const ProcessParams& params,
                             ChannelState& channels, ProtocolHost& tracker,
                             const std::atomic<bool>& gate_open,
                             SharedMetrics& metrics)
    : params_(params),
      channels_(channels),
      tracker_(tracker),
      gate_open_(gate_open),
      metrics_(metrics),
      pessimistic_(tracker.pessimistic()),
      uses_event_logger_(tracker.uses_event_logger()),
      lanes_(static_cast<std::size_t>(params.n)) {}

void DeliveryQueue::admit(net::Packet&& p) {
  std::scoped_lock lock(mu_);
  const int src = p.src;
  const auto idx = static_cast<SeqNo>(p.seq);
  const bool ack_enabled = params_.mode == SendMode::kBlocking;

  if (channels_.already_delivered(src, idx)) {
    // Repetitive message (paper §III.C.3): already delivered — discard, but
    // re-ack so a blocked sender is released.
    metrics_.update([](Metrics& m) { ++m.dup_dropped; });
    if (ack_enabled) hooks_.send_ack(src, idx);
    return;
  }
  std::unique_ptr<Lane>& lane = lanes_[static_cast<std::size_t>(src)];
  if (!lane) lane = std::make_unique<Lane>();
  auto at = lane->end();
  if (!lane->empty() && lane->back().msg.send_index >= idx) {
    at = std::lower_bound(
        lane->begin(), lane->end(), idx,
        [](const Parked& q, SeqNo i) { return q.msg.send_index < i; });
    if (at->msg.send_index == idx) {
      metrics_.update([](Metrics& m) { ++m.dup_dropped; });
      if (ack_enabled && at->msg.eager_acked) {
        // The original's eager ack may have gone to a sender incarnation
        // that has since died; the retransmitting incarnation is blocked on
        // this ack, so repeat it (acks are idempotent).
        hooks_.send_ack(src, idx);
      }
      return;
    }
  }
  Parked q;
  q.arrival = arrivals_++;
  QueuedMsg& m = q.msg;
  m.src = src;
  m.tag = p.tag;
  m.send_index = idx;
  m.meta = std::move(p.meta);
  m.payload = std::move(p.payload);
  if (ack_enabled &&
      (m.payload.size() <= params_.eager_threshold || src == params_.rank)) {
    // Eager acceptance; self-channel messages are always eager (the sender
    // is the thread that will eventually consume them).
    hooks_.send_ack(src, idx);
    m.eager_acked = true;
  }
  lane->insert(at, std::move(q));
  parked_peak_ = std::max(parked_peak_, ++parked_);
}

int DeliveryQueue::find_locked(int src, int tag) const {
  if (parked_ == 0 || !gate_open_.load(std::memory_order_acquire)) {
    return kNone;  // nothing parked, or PWD protocols: determinants first
  }
  // Per-pair FIFO (Algorithm 1 line 19): only a lane front carrying the
  // pair's next send index can be delivered.  Deliveries advance the channel
  // counters only under mu_ (deliver_locked), so reading them one at a time
  // is as consistent as a snapshot.
  const auto fifo_next = [&](int s) -> const Parked* {
    const Lane* lane = lanes_[static_cast<std::size_t>(s)].get();
    if (!lane || lane->empty()) return nullptr;
    const Parked& q = lane->front();
    if (tag != mp::kAnyTag && q.msg.tag != tag) return nullptr;
    if (q.msg.send_index != channels_.last_deliver_of(s) + 1) return nullptr;
    return &q;
  };
  const SeqNo delivered_total = channels_.delivered_total();
  const auto deliverable = [&](const Parked& q) {
    return tracker_.with([&](const LoggingProtocol& proto) {
      return proto.deliverable(q.msg, delivered_total);
    });
  };
  if (src != mp::kAnySource) {
    const Parked* q = fifo_next(src);
    return q && deliverable(*q) ? src : kNone;
  }
  // Any source: the earliest arrival among the deliverable fronts — the
  // message an arrival-ordered scan of the whole queue would reach first.
  int best = kNone;
  std::uint64_t best_arrival = std::numeric_limits<std::uint64_t>::max();
  for (int s = 0; s < params_.n; ++s) {
    const Parked* q = fifo_next(s);
    if (q && q->arrival < best_arrival && deliverable(*q)) {
      best = s;
      best_arrival = q->arrival;
    }
  }
  return best;
}

mp::Message DeliveryQueue::deliver_locked(int src, SeqNo& deliver_seq) {
  Lane& lane = *lanes_[static_cast<std::size_t>(src)];
  QueuedMsg m = std::move(lane.front().msg);
  lane.pop_front();
  --parked_;

  deliver_seq = channels_.advance_deliver(m.src);

  if (params_.trace) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kDeliver;
    ev.rank = params_.rank;
    ev.incarnation = params_.incarnation;
    ev.peer = m.src;
    ev.pair_index = m.send_index;
    ev.deliver_seq = deliver_seq;
    ev.depend_self = tracker_.with(
        [&](const LoggingProtocol& proto) { return proto.depend_on_receiver(m); });
    params_.trace->record(std::move(ev));
  }

  const std::int64_t t0 = util::now_ns();
  tracker_.with([&](LoggingProtocol& proto) {
    proto.on_deliver(m.src, m.send_index, deliver_seq, m.meta);
  });
  const std::int64_t dt = util::now_ns() - t0;
  metrics_.update([&](Metrics& mm) {
    mm.track_deliver_ns += dt;
    ++mm.app_delivered;
  });

  if (uses_event_logger_) {
    // Ship the fresh determinant to stable storage immediately ([5] logs
    // each event as it happens); batching folds bursts together.
    hooks_.flush_determinants();
  }

  if (params_.mode == SendMode::kBlocking && !m.eager_acked) {
    // Rendezvous completion: the sender is released only now that the
    // application has actually consumed the large payload.
    hooks_.send_ack(m.src, m.send_index);
  }

  mp::Message out;
  out.src = m.src;
  out.tag = m.tag;
  out.payload = std::move(m.payload);
  return out;
}

mp::Message DeliveryQueue::recv_wait(int src, int tag, const LifeFlags& life) {
  std::unique_lock lock(mu_);
  while (true) {
    const int from = find_locked(src, tag);
    if (from != kNone) {
      SeqNo seq = 0;
      mp::Message msg = deliver_locked(from, seq);
      // Pessimistic logging: hold the delivery until its determinant is
      // confirmed stable (the synchronous-logging latency cost).
      while (pessimistic_ && !tracker_.with([&](const LoggingProtocol& p) {
               return p.stable_upto(seq);
             })) {
        cv_.wait_for(lock, kTick);
        life.throw_if_dead();
      }
      return msg;
    }
    cv_.wait_for(lock, kTick);
    life.throw_if_dead();
  }
}

std::optional<DeliveryQueue::Delivered> DeliveryQueue::try_deliver(int src,
                                                                   int tag) {
  std::scoped_lock lock(mu_);
  const int from = find_locked(src, tag);
  if (from == kNone) return std::nullopt;
  Delivered d;
  d.msg = deliver_locked(from, d.deliver_seq);
  return d;
}

bool DeliveryQueue::has_deliverable(int src, int tag) const {
  std::scoped_lock lock(mu_);
  return find_locked(src, tag) != kNone;
}

void DeliveryQueue::notify() { cv_.notify_all(); }

std::size_t DeliveryQueue::depth() const {
  std::scoped_lock lock(mu_);
  return parked_;
}

std::size_t DeliveryQueue::peak() const {
  std::scoped_lock lock(mu_);
  return parked_peak_;
}

std::string DeliveryQueue::debug_string() const {
  std::scoped_lock lock(mu_);
  std::string out = "queueB=" + std::to_string(parked_) + " [";
  for (const auto& lane : lanes_) {
    if (!lane) continue;
    for (const Parked& q : *lane) {
      out += " (" + std::to_string(q.msg.src) + "#" +
             std::to_string(q.msg.send_index) + " t" +
             std::to_string(q.msg.tag) + ")";
      if (out.size() > 300) return out + " ... ]";
    }
  }
  return out + " ]";
}

}  // namespace windar::ft
