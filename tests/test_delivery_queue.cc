// DeliveryQueue unit tests: the receiving queue and its delivery gate driven
// directly — duplicate suppression against both the delivered watermark and
// the parked lanes, per-pair FIFO ordering, any-source arrival order, the
// external protocol gate, and the blocking-mode ack hooks.  No Process, no
// fabric, no helper threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "windar/delivery_queue.h"

namespace windar::ft {
namespace {

ProcessParams make_params(SendMode mode, std::size_t eager_threshold,
                          int n) {
  ProcessParams p;
  p.rank = 1;
  p.n = n;
  p.protocol = ProtocolKind::kTdi;
  p.mode = mode;
  p.eager_threshold = eager_threshold;
  return p;
}

// A rank-1 engine slice receiving from the other `n - 1` ranks, with one
// sender-side protocol instance per source producing genuine piggyback blobs.
struct Harness {
  explicit Harness(SendMode mode = SendMode::kNonBlocking,
                   std::size_t eager_threshold = 8 * 1024, int n = 2)
      : params(make_params(mode, eager_threshold, n)),
        channels(n, 1),
        tracker(make_protocol(ProtocolKind::kTdi, 1, n)),
        queue(params, channels, tracker, gate, metrics) {
    for (int r = 0; r < n; ++r) {
      senders.push_back(make_protocol(ProtocolKind::kTdi, r, n));
    }
  }

  /// Builds the kApp packet rank `src`'s send path would emit for
  /// send_index `idx`, with a real TDI piggyback.
  net::Packet packet(SeqNo idx, std::int32_t tag = 0,
                     std::size_t payload_size = 4, int src = 0) {
    const Piggyback pb =
        senders[static_cast<std::size_t>(src)]->on_send(1, idx);
    return app_packet(src, 1, tag, idx, pb.blob,
                      util::Bytes(payload_size, std::uint8_t{0xab}));
  }

  ProcessParams params;
  ChannelState channels;
  ProtocolHost tracker;
  std::vector<std::unique_ptr<LoggingProtocol>> senders;
  std::atomic<bool> gate{true};
  SharedMetrics metrics;
  DeliveryQueue queue;
};

TEST(DeliveryQueue, FifoGateHoldsOutOfOrderArrival) {
  Harness h;
  h.queue.admit(h.packet(2));  // reordered: index 2 lands first
  EXPECT_EQ(h.queue.depth(), 1u);
  EXPECT_FALSE(h.queue.has_deliverable(0, 0));

  h.queue.admit(h.packet(1));
  auto d1 = h.queue.try_deliver(0, 0);
  ASSERT_TRUE(d1.has_value());
  EXPECT_EQ(d1->deliver_seq, 1u);
  auto d2 = h.queue.try_deliver(0, 0);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->deliver_seq, 2u);
  EXPECT_EQ(h.queue.depth(), 0u);
  EXPECT_EQ(h.channels.last_deliver_of(0), 2u);
  EXPECT_EQ(h.metrics.snapshot().app_delivered, 2u);
}

TEST(DeliveryQueue, DuplicatesDroppedQueuedAndDelivered) {
  Harness h;
  h.queue.admit(h.packet(1));
  h.queue.admit(h.packet(1));  // duplicate of a parked message
  EXPECT_EQ(h.queue.depth(), 1u);
  EXPECT_EQ(h.metrics.snapshot().dup_dropped, 1u);

  ASSERT_TRUE(h.queue.try_deliver(0, 0).has_value());
  h.queue.admit(h.packet(1));  // repetitive message: already delivered
  EXPECT_EQ(h.queue.depth(), 0u);
  EXPECT_EQ(h.metrics.snapshot().dup_dropped, 2u);
}

TEST(DeliveryQueue, OutOfOrderArrivalsDeliverInSendIndexOrder) {
  Harness h;
  for (SeqNo idx : {5, 3, 1, 4, 2}) {
    h.queue.admit(h.packet(idx, /*tag=*/static_cast<std::int32_t>(idx)));
  }
  EXPECT_EQ(h.queue.depth(), 5u);
  for (std::int32_t want = 1; want <= 5; ++want) {
    auto d = h.queue.try_deliver(0, mp::kAnyTag);
    ASSERT_TRUE(d.has_value()) << "send index " << want;
    EXPECT_EQ(d->msg.tag, want);
    EXPECT_EQ(d->deliver_seq, static_cast<SeqNo>(want));
  }
  EXPECT_FALSE(h.queue.try_deliver(0, mp::kAnyTag).has_value());
}

// kAnySource must pick what an arrival-ordered scan of the whole queue would:
// the earliest-admitted message among those passing the FIFO and protocol
// gates — not the lowest source rank, and not a held-back lane's front.
TEST(DeliveryQueue, AnySourceTakesEarliestArrivalAmongReadyFronts) {
  Harness h(SendMode::kNonBlocking, 8 * 1024, /*n=*/4);
  const auto admit = [&](int src, SeqNo idx) {
    h.queue.admit(h.packet(idx, static_cast<std::int32_t>(idx), 4, src));
  };
  admit(3, 1);  // arrival 0
  admit(2, 2);  // arrival 1: parked behind the missing 2#1
  admit(0, 1);  // arrival 2
  admit(2, 1);  // arrival 3
  const std::vector<std::pair<int, std::int32_t>> want = {
      {3, 1}, {0, 1}, {2, 1}, {2, 2}};
  for (const auto& [src, tag] : want) {
    auto d = h.queue.try_deliver(mp::kAnySource, mp::kAnyTag);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->msg.src, src);
    EXPECT_EQ(d->msg.tag, tag);
  }
  EXPECT_EQ(h.queue.depth(), 0u);
}

// A receiver that falls behind must not pay for its backlog on every
// arrival: admitting 200k in-order messages and filtering a duplicate near
// the back takes tens of milliseconds optimised and under a second under
// TSan, so the 10 s budget keeps a 10x margin; a queue scanned per admit
// takes over a minute.
TEST(DeliveryQueue, DeepBacklogAdmitAndDuplicateStayCheap) {
  constexpr SeqNo kDepth = 200'000;
  Harness h;
  std::vector<net::Packet> packets;
  packets.reserve(kDepth);
  for (SeqNo idx = 1; idx <= kDepth; ++idx) packets.push_back(h.packet(idx));
  net::Packet dup = h.packet(kDepth - 3);

  const auto t0 = std::chrono::steady_clock::now();
  for (net::Packet& p : packets) h.queue.admit(std::move(p));
  h.queue.admit(std::move(dup));
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(h.queue.depth(), kDepth);
  EXPECT_EQ(h.metrics.snapshot().dup_dropped, 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  for (SeqNo want = 1; want <= kDepth; ++want) {
    auto d = h.queue.try_deliver(0, 0);
    ASSERT_TRUE(d.has_value()) << "send index " << want;
    ASSERT_EQ(d->deliver_seq, want);
  }
  EXPECT_EQ(h.queue.depth(), 0u);
}

TEST(DeliveryQueue, ClosedGateHoldsEverything) {
  Harness h;
  h.gate.store(false);  // determinant gather in flight
  h.queue.admit(h.packet(1));
  EXPECT_FALSE(h.queue.has_deliverable(mp::kAnySource, mp::kAnyTag));
  EXPECT_FALSE(h.queue.try_deliver(0, 0).has_value());
  h.gate.store(true);
  EXPECT_TRUE(h.queue.has_deliverable(mp::kAnySource, mp::kAnyTag));
  EXPECT_TRUE(h.queue.try_deliver(0, 0).has_value());
}

TEST(DeliveryQueue, SourceAndTagFiltersHoldUnrelatedMessages) {
  Harness h;
  h.queue.admit(h.packet(1, /*tag=*/7));
  EXPECT_FALSE(h.queue.try_deliver(0, 8).has_value());
  EXPECT_FALSE(h.queue.has_deliverable(0, 8));
  auto d = h.queue.try_deliver(mp::kAnySource, 7);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->msg.tag, 7);
  EXPECT_EQ(d->msg.src, 0);
}

TEST(DeliveryQueue, BlockingModeEagerAckOnAdmit) {
  Harness h(SendMode::kBlocking, /*eager_threshold=*/64);
  std::vector<std::pair<int, SeqNo>> acks;
  DeliveryQueue::Hooks hooks;
  hooks.send_ack = [&](int dst, SeqNo idx) { acks.emplace_back(dst, idx); };
  h.queue.set_hooks(std::move(hooks));

  h.queue.admit(h.packet(1, 0, /*payload_size=*/16));  // below threshold
  ASSERT_EQ(acks.size(), 1u);  // eager acceptance, before any recv
  EXPECT_EQ(acks[0], (std::pair<int, SeqNo>{0, 1}));
  ASSERT_TRUE(h.queue.try_deliver(0, 0).has_value());
  EXPECT_EQ(acks.size(), 1u);  // no second ack on consumption

  // A duplicate of an already-delivered message re-acks (the blocked sender
  // incarnation may never have seen the first ack).
  h.queue.admit(h.packet(1, 0, 16));
  EXPECT_EQ(acks.size(), 2u);
}

TEST(DeliveryQueue, BlockingModeDuplicateOfParkedEagerMessageReAcks) {
  Harness h(SendMode::kBlocking, /*eager_threshold=*/64);
  std::vector<std::pair<int, SeqNo>> acks;
  DeliveryQueue::Hooks hooks;
  hooks.send_ack = [&](int dst, SeqNo idx) { acks.emplace_back(dst, idx); };
  h.queue.set_hooks(std::move(hooks));

  h.queue.admit(h.packet(2, 0, /*payload_size=*/16));   // eager, parked
  h.queue.admit(h.packet(3, 0, /*payload_size=*/256));  // rendezvous, parked
  ASSERT_EQ(acks.size(), 1u);

  // The retransmitting sender incarnation may never have seen the eager
  // ack: a duplicate of the parked eager message repeats it.
  h.queue.admit(h.packet(2, 0, 16));
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[1], (std::pair<int, SeqNo>{0, 2}));
  // A rendezvous message is acked on consumption only, duplicate or not.
  h.queue.admit(h.packet(3, 0, 256));
  EXPECT_EQ(acks.size(), 2u);
  EXPECT_EQ(h.queue.depth(), 2u);
  EXPECT_EQ(h.metrics.snapshot().dup_dropped, 2u);
}

TEST(DeliveryQueue, BlockingModeRendezvousAckOnConsumption) {
  Harness h(SendMode::kBlocking, /*eager_threshold=*/64);
  std::vector<std::pair<int, SeqNo>> acks;
  DeliveryQueue::Hooks hooks;
  hooks.send_ack = [&](int dst, SeqNo idx) { acks.emplace_back(dst, idx); };
  h.queue.set_hooks(std::move(hooks));

  h.queue.admit(h.packet(1, 0, /*payload_size=*/256));  // above threshold
  EXPECT_TRUE(acks.empty());  // rendezvous: no ack until the app consumes
  ASSERT_TRUE(h.queue.try_deliver(0, 0).has_value());
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0], (std::pair<int, SeqNo>{0, 1}));
}

TEST(DeliveryQueue, RecvWaitThrowsOnceKilled) {
  Harness h;
  LifeFlags life;
  life.killed.store(true);
  // Nothing deliverable; the bounded wait must notice the fault flag within
  // one tick instead of hanging.
  EXPECT_THROW(h.queue.recv_wait(0, 0, life), Killed);
}

}  // namespace
}  // namespace windar::ft
