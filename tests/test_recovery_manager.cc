// RecoveryManager unit tests: the rollback/checkpoint choreography driven
// directly against a tiny fabric — image assembly and CHECKPOINT_ADVANCE
// fan-out, restore round-trips, the survivor's resend-then-RESPOND duty, and
// the PWD determinant-gather gate.  Rank 1 is played by the test itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "net/fabric.h"
#include "windar/codec.h"
#include "windar/recovery_manager.h"

namespace windar::ft {
namespace {

ProcessParams make_params(
    ProcessParams base, ProtocolKind proto, std::uint32_t incarnation) {
  ProcessParams p = base;
  p.rank = 0;
  p.n = 2;
  p.protocol = proto;
  p.incarnation = incarnation;
  return p;
}

// Zero jitter and zero per-byte cost: every packet has the same delay, so
// arrival order equals send order and the resend/response sequence the
// protocol mandates is observable.
net::LatencyModel flat_latency() {
  return net::LatencyModel{std::chrono::nanoseconds(1'000),
                           std::chrono::nanoseconds(0),
                           std::chrono::nanoseconds(0)};
}

// A rank-0 recovery engine without the delivery plane (not needed here).
struct Engine {
  Engine(net::Fabric& f, CheckpointStore& s, ProtocolKind proto,
         std::uint32_t incarnation, ProcessParams base = {})
      : params(make_params(base, proto, incarnation)),
        channels(2, 0),
        tracker(make_protocol(proto, 0, 2)),
        log(2),
        path(f, params, life, channels, tracker, log, metrics),
        rec(f, s, params, channels, log, tracker, path, metrics) {}

  void append_log(int dst, SeqNo idx) {
    LogEntry e;
    e.send_index = idx;
    e.tag = 0;
    e.payload = util::Bytes{static_cast<std::uint8_t>(idx)};
    log.append(dst, std::move(e));
  }

  ProcessParams params;
  LifeFlags life;
  ChannelState channels;
  ProtocolHost tracker;
  SenderLog log;
  SharedMetrics metrics;
  SendPath path;
  RecoveryManager rec;
};

TEST(RecoveryManager, CheckpointSavesImageAndAdvertisesLogRelease) {
  net::Fabric fabric(2, flat_latency(), 11);
  CheckpointStore store;
  Engine eng(fabric, store, ProtocolKind::kTdi, 0);

  eng.channels.next_send_index(1);
  eng.channels.next_send_index(1);
  eng.append_log(1, 1);
  eng.append_log(1, 2);
  eng.channels.advance_deliver(1);
  eng.channels.advance_deliver(1);
  eng.channels.advance_deliver(1);

  const util::Bytes app{42, 43};
  eng.rec.checkpoint(app);

  ASSERT_TRUE(store.has(0));
  const auto image = store.load(0);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->ckpt_seq, 1u);
  EXPECT_EQ(image->app, app);
  EXPECT_EQ(image->last_send, (std::vector<SeqNo>{0, 2}));
  EXPECT_EQ(image->last_deliver, (std::vector<SeqNo>{0, 3}));
  EXPECT_EQ(image->delivered_total, 3u);
  EXPECT_EQ(eng.metrics.snapshot().checkpoints, 1u);

  // We delivered past the previous (nonexistent) checkpoint: peer 1 must be
  // told it can release its log of messages to us (Algorithm 1 lines 34-37).
  auto p = fabric.endpoint(1).inbox().pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, wire(Kind::kCheckpointAdvance));
  EXPECT_EQ(p->seq, 3u);  // release everything up to deliver index 3
  util::ByteReader r(p->payload);
  EXPECT_EQ(r.u32(), 3u);  // our delivered_total, for metadata GC
}

TEST(RecoveryManager, RestoreRoundTripAndRollbackAnnouncement) {
  net::Fabric fabric(2, flat_latency(), 12);
  CheckpointStore store;
  {
    Engine original(fabric, store, ProtocolKind::kTdi, 0);
    original.channels.next_send_index(1);
    original.channels.next_send_index(1);
    original.channels.advance_deliver(1);
    original.rec.checkpoint(util::Bytes{7});
    (void)fabric.endpoint(1).inbox().pop();  // drain the advance
  }

  Engine inc(fabric, store, ProtocolKind::kTdi, 1);
  fabric.revive(0);  // the old engine's teardown poisoned our endpoint
  inc.rec.restore_from_checkpoint();
  ASSERT_TRUE(inc.rec.restored_app().has_value());
  EXPECT_EQ(*inc.rec.restored_app(), util::Bytes{7});
  EXPECT_EQ(inc.channels.delivered_total(), 1u);
  EXPECT_EQ(inc.channels.next_send_index(1), 3u);  // counters continue
  EXPECT_EQ(inc.metrics.snapshot().recoveries, 1u);
  EXPECT_TRUE(inc.rec.gate());  // TDI gathers nothing: deliveries may flow
  EXPECT_TRUE(inc.rec.retry_pending());  // but peer 1 has not responded yet

  inc.rec.announce_rollback();
  auto p = fabric.endpoint(1).inbox().pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, wire(Kind::kRollback));
  EXPECT_EQ(p->seq, 1u);  // stamped with the incarnation number
  EXPECT_EQ(decode_rollback_body(p->payload), (std::vector<SeqNo>{0, 1}));

  // Peer 1's RESPONSE certifies it delivered 2 of our messages: rolling
  // forward must suppress re-sends 1 and 2, and the retry loop goes quiet.
  ResponseBody body;
  body.their_deliver_of_mine = 2;
  body.rollback_epoch = 1;  // answers this incarnation's ROLLBACK
  inc.rec.handle_response(
      1, control_packet(1, 0, Kind::kResponse, 0, body.encode()));
  EXPECT_FALSE(inc.rec.retry_pending());
  EXPECT_TRUE(inc.channels.should_suppress(1, 2));
  EXPECT_FALSE(inc.channels.should_suppress(1, 3));
}

TEST(RecoveryManager, SurvivorResendsFromLogThenResponds) {
  net::Fabric fabric(2, flat_latency(), 13);
  CheckpointStore store;
  Engine eng(fabric, store, ProtocolKind::kTdi, 0);
  eng.append_log(1, 1);
  eng.append_log(1, 2);
  eng.append_log(1, 3);
  eng.channels.advance_deliver(1);
  eng.channels.advance_deliver(1);

  // Peer 1's incarnation 1 restored having delivered only message 1 from us.
  eng.rec.handle_rollback(1, /*peer_epoch=*/1, {1, 0});

  // Resends for indices 2 and 3 must precede the RESPONSE: the response
  // certifies every needed logged message is already in flight.
  for (const SeqNo expect_idx : {SeqNo{2}, SeqNo{3}}) {
    auto p = fabric.endpoint(1).inbox().pop();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->kind, wire(Kind::kApp));
    EXPECT_EQ(p->seq, expect_idx);
  }
  auto p = fabric.endpoint(1).inbox().pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, wire(Kind::kResponse));
  const ResponseBody body = ResponseBody::decode(p->payload);
  EXPECT_EQ(body.their_deliver_of_mine, 2u);  // what we delivered from peer 1
  EXPECT_EQ(body.rollback_epoch, 1u);  // echoes the ROLLBACK it answers
  EXPECT_EQ(eng.metrics.snapshot().resent_msgs, 2u);

  // The rollback reset our suppression watermark to what the incarnation
  // actually restored.
  EXPECT_TRUE(eng.channels.should_suppress(1, 1));
  EXPECT_FALSE(eng.channels.should_suppress(1, 2));
}

TEST(RecoveryManager, GatherGateStaysClosedUntilAllResponses) {
  net::Fabric fabric(2, flat_latency(), 14);
  CheckpointStore store;  // empty: restart from scratch
  Engine eng(fabric, store, ProtocolKind::kTag, 1);

  eng.rec.restore_from_checkpoint();
  EXPECT_FALSE(eng.rec.restored_app().has_value());
  // TAG must reassemble replay knowledge before delivering anything.
  EXPECT_FALSE(eng.rec.gate());
  EXPECT_TRUE(eng.rec.retry_pending());

  ResponseBody body;  // peer never delivered from us; no determinants held
  body.rollback_epoch = 1;
  eng.rec.handle_response(
      1, control_packet(1, 0, Kind::kResponse, 0, body.encode()));
  EXPECT_TRUE(eng.rec.gate());  // last outstanding survivor answered
  EXPECT_FALSE(eng.rec.retry_pending());
}

TEST(RecoveryManager, RollbackRetryBacksOffToCap) {
  net::Fabric fabric(2, flat_latency(), 16);
  CheckpointStore store;
  ProcessParams base;
  base.rollback_retry = std::chrono::milliseconds(5);
  base.rollback_retry_cap = std::chrono::milliseconds(40);
  Engine eng(fabric, store, ProtocolKind::kTdi, 1, base);

  eng.rec.restore_from_checkpoint();
  eng.rec.announce_rollback();
  // Peer 1 never answers (it is "down"); poll periodic() at a high rate for
  // 200 ms of wall time.
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(200)) {
    eng.rec.periodic();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto bcasts = eng.metrics.snapshot().rollback_broadcasts;
  // Backed-off retry times land at 5, 15, 35, 75, 115, 155, 195 ms: at most
  // 8 rounds including the announce.  A fixed 5 ms interval would produce
  // ~40.  The lower bound only needs the first couple of retries to land,
  // which even a sanitizer-slowed host manages in 200 ms of polling.
  EXPECT_GE(bcasts, 3u);
  EXPECT_LE(bcasts, 12u);
}

TEST(RecoveryManager, PeerRollbackGetsImmediateTargetedRebroadcast) {
  net::Fabric fabric(2, flat_latency(), 17);
  CheckpointStore store;
  Engine eng(fabric, store, ProtocolKind::kTdi, 1);

  eng.rec.restore_from_checkpoint();
  eng.rec.announce_rollback();
  auto p = fabric.endpoint(1).inbox().pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, wire(Kind::kRollback));

  // Overlapping failures: peer 1's own incarnation announces a ROLLBACK
  // before ever answering ours — our first broadcast died with its old
  // incarnation.  The handler must answer resends + RESPONSE and then
  // re-send our pending ROLLBACK right away instead of waiting out the
  // backoff interval.
  eng.rec.handle_rollback(1, /*peer_epoch=*/1, {0, 0});
  p = fabric.endpoint(1).inbox().pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, wire(Kind::kResponse));
  p = fabric.endpoint(1).inbox().pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, wire(Kind::kRollback));
  EXPECT_TRUE(eng.rec.retry_pending());  // still no RESPONSE from peer 1
}

TEST(RecoveryManager, RepeatedRestoreIncrementsRecoveries) {
  net::Fabric fabric(2, flat_latency(), 18);
  CheckpointStore store;
  Engine eng(fabric, store, ProtocolKind::kTdi, 1);
  // The metrics sink contract is that counters accumulate: a sink observing
  // two restore cycles must count both.  The old code assigned
  // `recoveries = 1`, silently collapsing repeated failures into one.
  eng.rec.restore_from_checkpoint();
  EXPECT_EQ(eng.metrics.snapshot().recoveries, 1u);
  eng.rec.restore_from_checkpoint();
  EXPECT_EQ(eng.metrics.snapshot().recoveries, 2u);
}

// Drains everything the fabric has delivered to `ep` after letting in-flight
// packets land (flat latency is 1 us; 20 ms is orders of magnitude past it).
std::vector<net::Packet> settle_and_drain(net::Fabric& fabric, int ep) {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<net::Packet> out;
  while (auto p = fabric.endpoint(ep).inbox().try_pop()) {
    out.push_back(std::move(*p));
  }
  return out;
}

// Regression: a RESPONSE carries the ROLLBACK epoch it answers.  A survivor
// that answered our dead predecessor may have its RESPONSE delivered to us;
// counting it closed the gather, and the survivor's successor — which owes
// us the replay its predecessor died serving — then got no targeted
// ROLLBACK.  Only a RESPONSE to our own epoch counts.
TEST(RecoveryManager, ResponseToDeadIncarnationDoesNotCloseGather) {
  net::Fabric fabric(2, flat_latency(), 25);
  CheckpointStore store;  // empty: restart from scratch
  Engine eng(fabric, store, ProtocolKind::kTag, 2);
  eng.rec.restore_from_checkpoint();
  eng.rec.announce_rollback();
  ASSERT_EQ(settle_and_drain(fabric, 1).size(), 1u);  // our ROLLBACK

  ResponseBody stale;
  stale.rollback_epoch = 1;  // answers incarnation 1, which died
  eng.rec.handle_response(
      1, control_packet(1, 0, Kind::kResponse, 0, stale.encode()));
  EXPECT_FALSE(eng.rec.gate());
  EXPECT_TRUE(eng.rec.retry_pending());

  // Peer 1's next incarnation announces itself: we answer and re-send our
  // ROLLBACK to it at once.
  eng.rec.handle_rollback(1, /*peer_epoch=*/1, {0, 0});
  const auto got = settle_and_drain(fabric, 1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].kind, wire(Kind::kResponse));
  EXPECT_EQ(got[1].kind, wire(Kind::kRollback));
  EXPECT_EQ(got[1].seq, 2u);

  ResponseBody fresh;
  fresh.rollback_epoch = 2;
  eng.rec.handle_response(
      1, control_packet(1, 0, Kind::kResponse, 1, fresh.encode()));
  EXPECT_TRUE(eng.rec.gate());
  EXPECT_FALSE(eng.rec.retry_pending());
}

// The durability gate, synchronous flavour: a kill between seal and fsync
// (simulated by the store's pre-commit drop hook) means the image never
// became stable — so no CHECKPOINT_ADVANCE may reach the peer, whose log
// entries are exactly what the next incarnation will replay from.
TEST(RecoveryManager, DroppedCommitSendsNoAdvance) {
  net::Fabric fabric(2, flat_latency(), 20);
  CheckpointStore store;
  store.set_pre_commit_hook_for_test(
      [](int) { return CheckpointStore::CommitAction::kDrop; });
  Engine eng(fabric, store, ProtocolKind::kTdi, 0);
  eng.channels.advance_deliver(1);
  eng.channels.advance_deliver(1);

  eng.rec.checkpoint(util::Bytes{1});

  EXPECT_FALSE(store.has(0));
  EXPECT_EQ(store.stats().dropped_saves, 1u);
  // Sealed but never committed: counted as a checkpoint, not as a commit.
  EXPECT_EQ(eng.metrics.snapshot().checkpoints, 1u);
  EXPECT_EQ(eng.metrics.snapshot().ckpt_committed, 0u);
  for (const auto& p : settle_and_drain(fabric, 1)) {
    EXPECT_NE(p.kind, wire(Kind::kCheckpointAdvance));
  }
}

// The durability gate, asynchronous flavour: while the background writer is
// wedged inside the durable write, the advance must not have left — it is
// emitted strictly after the store reports the image stable.
TEST(RecoveryManager, AsyncCommitEmitsAdvanceOnlyAfterDurability) {
  net::Fabric fabric(2, flat_latency(), 21);
  CheckpointStore store;
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  store.set_pre_commit_hook_for_test([&](int) {
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return CheckpointStore::CommitAction::kProceed;
  });
  Engine eng(fabric, store, ProtocolKind::kTdi, 0);
  eng.rec.start_writer();
  eng.channels.advance_deliver(1);
  eng.channels.advance_deliver(1);

  eng.rec.checkpoint(util::Bytes{5});  // returns after the seal
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Commit is mid-"fsync": nothing published, nothing advertised.
  EXPECT_FALSE(store.has(0));
  EXPECT_TRUE(settle_and_drain(fabric, 1).empty());
  EXPECT_EQ(eng.metrics.snapshot().ckpt_committed, 0u);

  release.store(true);
  eng.rec.flush_checkpoints();
  EXPECT_TRUE(store.has(0));
  EXPECT_EQ(eng.metrics.snapshot().ckpt_committed, 1u);
  const auto after = settle_and_drain(fabric, 1);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].kind, wire(Kind::kCheckpointAdvance));
  EXPECT_EQ(after[0].seq, 2u);
  eng.rec.stop_writer(/*drain=*/true);
}

// Killed teardown drops queued-but-uncommitted snapshots entirely: no file,
// no advance — the protocol treats them as if the checkpoint never happened.
TEST(RecoveryManager, KilledTeardownDropsQueuedCheckpoints) {
  net::Fabric fabric(2, flat_latency(), 22);
  CheckpointStore store;
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  store.set_pre_commit_hook_for_test([&](int) {
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return CheckpointStore::CommitAction::kProceed;
  });
  Engine eng(fabric, store, ProtocolKind::kTdi, 0);
  eng.rec.start_writer();
  eng.channels.advance_deliver(1);
  eng.rec.checkpoint(util::Bytes{1});
  while (!entered.load()) {  // the writer is now wedged on commit #1
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  eng.channels.advance_deliver(1);
  eng.rec.checkpoint(util::Bytes{2});  // still queued

  // stop_writer joins the writer, which is wedged inside commit #1 — let it
  // finish from the side once the queue purge has happened.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  eng.rec.stop_writer(/*drain=*/false);  // fault-injected teardown
  releaser.join();

  // The first commit was already past the point of no return and completes;
  // the queued second snapshot is gone for good.
  eng.rec.flush_checkpoints();
  auto img = store.load(0);
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->ckpt_seq, 1u);
  EXPECT_EQ(eng.metrics.snapshot().ckpt_committed, 1u);
}

// Survivor non-stop recovery: a replay longer than replay_burst drains in
// bursts across periodic() ticks.  A fresh application send to the
// recovering rank goes out at once (its queue B parks it until the replay
// fills the gap), and the RESPONSE still waits for the last resend.
TEST(RecoveryManager, PacedReplaySendsFreshTrafficAtOnceAndRespondsLast) {
  net::Fabric fabric(2, flat_latency(), 23);
  CheckpointStore store;
  ProcessParams base;
  base.replay_burst = 2;
  Engine eng(fabric, store, ProtocolKind::kTdi, 0, base);
  for (SeqNo i = 1; i <= 5; ++i) {
    eng.channels.next_send_index(1);
    eng.append_log(1, i);
  }

  eng.rec.handle_rollback(1, /*peer_epoch=*/1, {0, 0});
  EXPECT_TRUE(eng.rec.work_pending());  // session still draining

  // Burst 1: resends 1-2 only; the RESPONSE must not have left yet.
  auto got = settle_and_drain(fabric, 1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].seq, 1u);
  EXPECT_EQ(got[1].seq, 2u);

  // A fresh application send is not held back by the replay.
  const util::Bytes payload{9};
  eng.path.send_app(1, 0, payload);
  got = settle_and_drain(fabric, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, wire(Kind::kApp));
  EXPECT_EQ(got[0].seq, 6u);

  eng.rec.periodic();  // burst 2: resends 3-4
  got = settle_and_drain(fabric, 1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].seq, 4u);
  EXPECT_TRUE(eng.rec.work_pending());

  eng.rec.periodic();  // burst 3: resend 5, then the RESPONSE
  got = settle_and_drain(fabric, 1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].kind, wire(Kind::kApp));
  EXPECT_EQ(got[0].seq, 5u);
  EXPECT_EQ(got[1].kind, wire(Kind::kResponse));
  EXPECT_FALSE(eng.rec.work_pending());
  EXPECT_EQ(eng.metrics.snapshot().resent_msgs, 5u);
  EXPECT_EQ(eng.metrics.snapshot().app_transmitted, 1u);
}

// Regression: a delayed ROLLBACK retransmit from an older incarnation must
// not rewind the replay stream already serving the newer one — restarting
// it would re-send from a stale watermark and certify with a RESPONSE the
// dead incarnation can never consume.
TEST(RecoveryManager, StaleEpochRollbackDoesNotRewindReplay) {
  net::Fabric fabric(2, flat_latency(), 31);
  CheckpointStore store;
  ProcessParams base;
  base.replay_burst = 2;
  Engine eng(fabric, store, ProtocolKind::kTdi, 0, base);
  for (SeqNo i = 1; i <= 5; ++i) {
    eng.channels.next_send_index(1);
    eng.append_log(1, i);
  }

  eng.rec.handle_rollback(1, /*peer_epoch=*/2, {0, 0});
  auto got = settle_and_drain(fabric, 1);
  ASSERT_EQ(got.size(), 2u);  // burst 1: seqs 1-2

  // The stale epoch-1 retransmit is dropped outright — no restart, no
  // extra packets — and the stream continues where it left off.
  eng.rec.handle_rollback(1, /*peer_epoch=*/1, {0, 0});
  EXPECT_TRUE(settle_and_drain(fabric, 1).empty());
  eng.rec.periodic();
  got = settle_and_drain(fabric, 1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].seq, 3u);
  EXPECT_EQ(got[1].seq, 4u);

  // A same-epoch retransmit (the peer saw nothing) still restarts.
  eng.rec.handle_rollback(1, /*peer_epoch=*/2, {0, 0});
  got = settle_and_drain(fabric, 1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].seq, 1u);
}

TEST(RecoveryManager, MalformedAdvanceReleasesNothing) {
  net::Fabric fabric(2, flat_latency(), 24);
  CheckpointStore store;
  Engine eng(fabric, store, ProtocolKind::kTdi, 0);
  eng.append_log(1, 1);
  eng.append_log(1, 2);

  // Truncated payload (no u32 delivered_total): must be dropped whole —
  // releasing log entries on a bad packet would be unrecoverable.
  eng.rec.handle_checkpoint_advance(
      control_packet(1, 0, Kind::kCheckpointAdvance, /*upto=*/2, {}));
  EXPECT_EQ(eng.log.entries_for(1), 2u);
  EXPECT_EQ(eng.metrics.snapshot().log_released_entries, 0u);
  EXPECT_EQ(eng.metrics.snapshot().bad_packets, 1u);
}

TEST(RecoveryManager, CheckpointAdvanceReleasesSenderLog) {
  net::Fabric fabric(2, flat_latency(), 15);
  CheckpointStore store;
  Engine eng(fabric, store, ProtocolKind::kTdi, 0);
  eng.append_log(1, 1);
  eng.append_log(1, 2);
  eng.append_log(1, 3);

  util::ByteWriter w;
  w.u32(5);  // the peer's delivered_total, for protocol metadata GC
  eng.rec.handle_checkpoint_advance(
      control_packet(1, 0, Kind::kCheckpointAdvance, /*upto=*/2, w.take()));
  EXPECT_EQ(eng.log.entries_for(1), 1u);  // only index 3 survives
  EXPECT_EQ(eng.metrics.snapshot().log_released_entries, 2u);
}

}  // namespace
}  // namespace windar::ft
