// ChannelState unit tests: the counter plane in isolation — send-index
// allocation, duplicate detection, ack watermarks, the epoch-guarded
// suppression watermark, and the checkpoint snapshot/advance cycle.  No
// runtime, no fabric, no threads.
#include <gtest/gtest.h>

#include "windar/channel_state.h"

namespace windar::ft {
namespace {

TEST(ChannelState, SendIndicesArePerPair) {
  ChannelState cs(3, 0);
  EXPECT_EQ(cs.next_send_index(1), 1u);
  EXPECT_EQ(cs.next_send_index(1), 2u);
  EXPECT_EQ(cs.next_send_index(2), 1u);  // independent counter per pair
  EXPECT_EQ(cs.next_send_index(1), 3u);
}

TEST(ChannelState, DeliverySideDetectsRepetitiveMessages) {
  ChannelState cs(2, 1);
  EXPECT_FALSE(cs.already_delivered(0, 1));
  EXPECT_EQ(cs.advance_deliver(0), 1u);  // receiver-global deliver_seq
  EXPECT_EQ(cs.advance_deliver(0), 2u);
  EXPECT_TRUE(cs.already_delivered(0, 1));
  EXPECT_TRUE(cs.already_delivered(0, 2));
  EXPECT_FALSE(cs.already_delivered(0, 3));
  EXPECT_EQ(cs.delivered_total(), 2u);
  EXPECT_EQ(cs.last_deliver_of(0), 2u);
  EXPECT_EQ(cs.last_deliver_of(1), 0u);
}

TEST(ChannelState, AckTrackingAndWatermarkBothRelease) {
  ChannelState cs(2, 0);
  EXPECT_FALSE(cs.is_acked(1, 1));
  cs.record_ack(1, 1);
  EXPECT_TRUE(cs.is_acked(1, 1));
  EXPECT_FALSE(cs.is_acked(1, 2));
  // A suppression watermark (peer confirmed delivery via RESPONSE) releases
  // a blocked sender even without an explicit ack.
  cs.observe_response(1, 1, 5);
  EXPECT_TRUE(cs.is_acked(1, 2));
  EXPECT_TRUE(cs.is_acked(1, 5));
  EXPECT_FALSE(cs.is_acked(1, 6));
}

TEST(ChannelState, OutOfOrderAcksArePerPeer) {
  ChannelState cs(4096, 0);
  cs.record_ack(5, 2);
  EXPECT_FALSE(cs.is_acked(5, 1));
  EXPECT_TRUE(cs.is_acked(5, 2));
  cs.record_ack(5, 1);
  EXPECT_TRUE(cs.is_acked(5, 1));
  EXPECT_FALSE(cs.is_acked(5, 3));
  EXPECT_FALSE(cs.is_acked(6, 1));  // another peer's set is untouched
}

TEST(ChannelState, RollbackOverwritesWatermarkOnSameOrNewerEpoch) {
  ChannelState cs(2, 0);
  cs.observe_response(1, 1, 10);  // incarnation 1 confirmed 10 deliveries
  EXPECT_TRUE(cs.should_suppress(1, 10));

  // The peer fails again: incarnation 2 restored to only 4 deliveries.  The
  // old watermark overstates what it has — ROLLBACK must overwrite, not max.
  cs.observe_rollback(1, 2, 4);
  EXPECT_TRUE(cs.should_suppress(1, 4));
  EXPECT_FALSE(cs.should_suppress(1, 5));

  // A stale ROLLBACK from the dead incarnation 1 must be ignored... but a
  // re-broadcast from the live incarnation 2 restates the same value.
  cs.observe_rollback(1, 1, 9);
  EXPECT_FALSE(cs.should_suppress(1, 5));
  cs.observe_rollback(1, 2, 4);
  EXPECT_TRUE(cs.should_suppress(1, 4));
}

TEST(ChannelState, ResponseEpochSemantics) {
  ChannelState cs(2, 0);
  cs.observe_response(1, 1, 7);
  EXPECT_TRUE(cs.should_suppress(1, 7));
  // Same incarnation only advances (max): a reordered older RESPONSE cannot
  // retract confirmed deliveries.
  cs.observe_response(1, 1, 3);
  EXPECT_TRUE(cs.should_suppress(1, 7));
  cs.observe_response(1, 1, 9);
  EXPECT_TRUE(cs.should_suppress(1, 9));
  // First contact with a newer incarnation replaces the watermark outright.
  cs.observe_response(1, 2, 2);
  EXPECT_FALSE(cs.should_suppress(1, 3));
  EXPECT_TRUE(cs.should_suppress(1, 2));
  // An older incarnation's late value is stale.
  cs.observe_response(1, 1, 50);
  EXPECT_FALSE(cs.should_suppress(1, 3));
}

TEST(ChannelState, SnapshotRestoreRoundTrip) {
  ChannelState a(3, 0);
  a.next_send_index(1);
  a.next_send_index(1);
  a.next_send_index(2);
  a.advance_deliver(1);
  a.advance_deliver(2);
  a.advance_deliver(2);
  const ChannelState::Snapshot snap = a.snapshot();
  EXPECT_EQ(snap.last_send, (std::vector<SeqNo>{0, 2, 1}));
  EXPECT_EQ(snap.last_deliver, (std::vector<SeqNo>{0, 1, 2}));
  EXPECT_EQ(snap.delivered_total, 3u);

  ChannelState b(3, 0);
  b.restore(snap.last_send, snap.last_deliver, snap.delivered_total);
  EXPECT_EQ(b.delivered_total(), 3u);
  EXPECT_EQ(b.last_deliver_of(2), 2u);
  EXPECT_EQ(b.next_send_index(1), 3u);  // continues where the image left off
  EXPECT_TRUE(b.already_delivered(1, 1));
  // The restored deliver vector IS the checkpoint watermark: nothing has
  // advanced past it yet, so no CHECKPOINT_ADVANCE is due.
  EXPECT_TRUE(b.take_checkpoint_advances().empty());
}

TEST(ChannelState, CheckpointAdvancesOnlyForProgressedPeers) {
  ChannelState cs(3, 0);
  cs.advance_deliver(1);
  cs.advance_deliver(1);
  auto adv = cs.take_checkpoint_advances();
  ASSERT_EQ(adv.size(), 1u);
  EXPECT_EQ(adv[0], (std::pair<int, SeqNo>{1, 2}));
  // Idempotent until new deliveries happen.
  EXPECT_TRUE(cs.take_checkpoint_advances().empty());
  cs.advance_deliver(2);
  adv = cs.take_checkpoint_advances();
  ASSERT_EQ(adv.size(), 1u);
  EXPECT_EQ(adv[0], (std::pair<int, SeqNo>{2, 1}));
}

TEST(ChannelState, SelfRollbackWatermarkCoversRestoredSelfChannel) {
  ChannelState cs(2, 0);
  cs.advance_deliver(0);
  cs.advance_deliver(0);
  EXPECT_FALSE(cs.should_suppress(0, 1));
  cs.set_self_rollback_watermark();
  EXPECT_TRUE(cs.should_suppress(0, 2));
  EXPECT_FALSE(cs.should_suppress(0, 3));
}

}  // namespace
}  // namespace windar::ft
