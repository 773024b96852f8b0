// Tests for TEL's stable-storage event logger service.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <thread>

#include "net/fabric.h"
#include "windar/event_logger.h"

namespace windar::ft {
namespace {

constexpr int kRanks = 3;
constexpr int kLoggerEp = kRanks;

// Delivery is asynchronous: block until the serve thread has queued `count`
// batches for a paused commit thread before releasing it.
void wait_pending(const EventLogger& logger, std::size_t count) {
  while (logger.pending_for_test() < count) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

struct LoggerFixture : ::testing::Test {
  LoggerFixture()
      : fabric(kRanks + 1, net::LatencyModel::deterministic(), 1),
        logger(fabric, {kLoggerEp, kRanks, std::chrono::microseconds(0)}) {}

  void log_batch(int owner, std::vector<Determinant> dets) {
    net::Packet p;
    p.src = owner;
    p.dst = kLoggerEp;
    p.kind = wire(Kind::kTelLog);
    util::ByteWriter w;
    write_determinants(w, dets);
    p.payload = w.take();
    fabric.send(std::move(p));
  }

  net::Packet expect_packet(int at, Kind kind) {
    auto p = fabric.endpoint(at).inbox().pop();
    EXPECT_TRUE(p.has_value());
    EXPECT_EQ(p->kind, wire(kind));
    return std::move(*p);
  }

  net::Fabric fabric;
  EventLogger logger;
};

TEST_F(LoggerFixture, AcksContiguousWatermark) {
  log_batch(1, {{0, 1, 1, 1}, {0, 1, 2, 2}});
  auto ack = expect_packet(1, Kind::kTelAck);
  EXPECT_EQ(ack.seq, 2u);
  EXPECT_EQ(logger.stored_determinants(), 2u);
  EXPECT_EQ(logger.batches(), 1u);
}

TEST_F(LoggerFixture, OutOfOrderBatchesHoldWatermark) {
  log_batch(1, {{0, 1, 3, 3}});  // gap: deliveries 1-2 missing
  auto ack1 = expect_packet(1, Kind::kTelAck);
  EXPECT_EQ(ack1.seq, 0u);
  log_batch(1, {{0, 1, 1, 1}, {0, 1, 2, 2}});
  auto ack2 = expect_packet(1, Kind::kTelAck);
  EXPECT_EQ(ack2.seq, 3u);  // gap filled, watermark jumps
}

TEST_F(LoggerFixture, PerRankIsolation) {
  log_batch(1, {{0, 1, 1, 1}});
  (void)expect_packet(1, Kind::kTelAck);
  log_batch(2, {{0, 2, 1, 1}});
  auto ack = expect_packet(2, Kind::kTelAck);
  EXPECT_EQ(ack.seq, 1u);  // rank 2's stream starts fresh
}

TEST_F(LoggerFixture, QueryReturnsOwnDeterminants) {
  log_batch(1, {{0, 1, 1, 1}, {2, 1, 1, 2}});
  (void)expect_packet(1, Kind::kTelAck);

  net::Packet q;
  q.src = 1;
  q.dst = kLoggerEp;
  q.kind = wire(Kind::kTelQuery);
  fabric.send(std::move(q));
  auto reply = expect_packet(1, Kind::kTelQueryReply);
  util::ByteReader r(reply.payload);
  const auto dets = read_determinants(r);
  ASSERT_EQ(dets.size(), 2u);
  EXPECT_EQ(dets[0].deliver_seq, 1u);
  EXPECT_EQ(dets[1].deliver_seq, 2u);
}

TEST_F(LoggerFixture, QueryForEmptyRankReturnsNothing) {
  net::Packet q;
  q.src = 2;
  q.dst = kLoggerEp;
  q.kind = wire(Kind::kTelQuery);
  fabric.send(std::move(q));
  auto reply = expect_packet(2, Kind::kTelQueryReply);
  util::ByteReader r(reply.payload);
  EXPECT_TRUE(read_determinants(r).empty());
}

TEST_F(LoggerFixture, CheckpointAdvanceReleasesPrefix) {
  log_batch(1, {{0, 1, 1, 1}, {0, 1, 2, 2}, {0, 1, 3, 3}});
  (void)expect_packet(1, Kind::kTelAck);
  EXPECT_EQ(logger.stored_determinants(), 3u);

  net::Packet adv;
  adv.src = 1;
  adv.dst = kLoggerEp;
  adv.kind = wire(Kind::kCheckpointAdvance);
  adv.seq = 2;  // rank 1 checkpointed after 2 deliveries
  fabric.send(std::move(adv));
  // Poke with a query to serialize behind the advance.
  net::Packet q;
  q.src = 1;
  q.dst = kLoggerEp;
  q.kind = wire(Kind::kTelQuery);
  fabric.send(std::move(q));
  auto reply = expect_packet(1, Kind::kTelQueryReply);
  util::ByteReader r(reply.payload);
  const auto dets = read_determinants(r);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].deliver_seq, 3u);
}

TEST_F(LoggerFixture, DuplicateLogIsIdempotent) {
  log_batch(1, {{0, 1, 1, 1}});
  (void)expect_packet(1, Kind::kTelAck);
  log_batch(1, {{0, 1, 1, 1}});  // re-flush after an incarnation restart
  auto ack = expect_packet(1, Kind::kTelAck);
  EXPECT_EQ(ack.seq, 1u);
  EXPECT_EQ(logger.stored_determinants(), 1u);
}

TEST_F(LoggerFixture, StopIsIdempotent) {
  logger.stop();
  logger.stop();
}

TEST_F(LoggerFixture, PausedCommitsCoalesceIntoOneRoundAndOneAckPerRank) {
  logger.pause_commits();
  log_batch(1, {{0, 1, 1, 1}});
  log_batch(1, {{0, 1, 2, 2}});
  log_batch(1, {{0, 1, 3, 3}});
  log_batch(2, {{0, 2, 1, 1}});
  wait_pending(logger, 4);
  logger.resume_commits();
  // One commit round drained all four batches; each affected rank got
  // exactly one ack carrying its final contiguous watermark.
  auto ack1 = expect_packet(1, Kind::kTelAck);
  EXPECT_EQ(ack1.seq, 3u);
  auto ack2 = expect_packet(2, Kind::kTelAck);
  EXPECT_EQ(ack2.seq, 1u);
  EXPECT_EQ(logger.batches(), 4u);
  EXPECT_EQ(logger.commit_rounds(), 1u);
  EXPECT_EQ(logger.acks_sent(), 2u);
  EXPECT_TRUE(fabric.endpoint(1).inbox().empty());
  EXPECT_TRUE(fabric.endpoint(2).inbox().empty());
}

TEST_F(LoggerFixture, WatermarkStaysMonotoneUnderOutOfOrderCommits) {
  // Batches arrive out of delivery order across several commit rounds; the
  // per-rank ack watermark must never move backwards.
  logger.pause_commits();
  log_batch(1, {{0, 1, 3, 3}});  // gap: 1-2 missing
  log_batch(1, {{0, 1, 5, 5}});  // further gap
  wait_pending(logger, 2);
  logger.resume_commits();
  auto ack1 = expect_packet(1, Kind::kTelAck);
  EXPECT_EQ(ack1.seq, 0u);  // nothing contiguous yet

  logger.pause_commits();
  log_batch(1, {{0, 1, 2, 2}});
  wait_pending(logger, 1);
  logger.resume_commits();
  auto ack2 = expect_packet(1, Kind::kTelAck);
  EXPECT_EQ(ack2.seq, 0u);  // still gapped at 1

  logger.pause_commits();
  log_batch(1, {{0, 1, 1, 1}});
  log_batch(1, {{0, 1, 4, 4}});
  wait_pending(logger, 2);
  logger.resume_commits();
  auto ack3 = expect_packet(1, Kind::kTelAck);
  EXPECT_EQ(ack3.seq, 5u);  // every gap filled in one round: jump to 5
  EXPECT_GE(ack3.seq, ack2.seq);
  EXPECT_GE(ack2.seq, ack1.seq);
}

// --------------------------------------------------------------------------
// Sharded deployment
// --------------------------------------------------------------------------

struct ShardedLoggerFixture : ::testing::Test {
  static constexpr int kN = 4;
  static constexpr int kShards = 2;

  ShardedLoggerFixture()
      : fabric(kN + kShards, net::LatencyModel::deterministic(), 1) {
    for (int s = 0; s < kShards; ++s) {
      shards.push_back(std::make_unique<EventLogger>(
          fabric, EventLogger::Params{kN + s, kN,
                                      std::chrono::microseconds(0), kShards,
                                      s}));
    }
  }

  void log_batch(int owner, std::vector<Determinant> dets) {
    net::Packet p;
    p.src = owner;
    p.dst = logger_shard_endpoint(kN, owner, kShards);
    p.kind = wire(Kind::kTelLog);
    util::ByteWriter w;
    write_determinants(w, dets);
    p.payload = w.take();
    fabric.send(std::move(p));
  }

  net::Packet expect_packet(int at, Kind kind) {
    auto p = fabric.endpoint(at).inbox().pop();
    EXPECT_TRUE(p.has_value());
    EXPECT_EQ(p->kind, wire(kind));
    return std::move(*p);
  }

  net::Fabric fabric;
  std::vector<std::unique_ptr<EventLogger>> shards;
};

TEST(LoggerSharding, EndpointMathRoutesRankModShards) {
  // shard = rank % shards; endpoints follow the ranks at n..n+shards-1.
  EXPECT_EQ(logger_shard_index(0, 2), 0);
  EXPECT_EQ(logger_shard_index(1, 2), 1);
  EXPECT_EQ(logger_shard_index(5, 2), 1);
  EXPECT_EQ(logger_shard_endpoint(4, 0, 2), 4);
  EXPECT_EQ(logger_shard_endpoint(4, 3, 2), 5);
  // shards == 1 is the seed's single-logger layout for every rank.
  EXPECT_EQ(logger_shard_endpoint(4, 3, 1), 4);
  EXPECT_EQ(logger_shard_endpoint(4, 0, 1), 4);
}

TEST(LoggerSharding, ResolveShardsPrefersConfiguredThenEnvThenOne) {
  ::unsetenv("WINDAR_LOGGER_SHARDS");
  EXPECT_EQ(resolve_logger_shards(3), 3);
  EXPECT_EQ(resolve_logger_shards(0), 1);
  ::setenv("WINDAR_LOGGER_SHARDS", "4", 1);
  EXPECT_EQ(resolve_logger_shards(0), 4);
  EXPECT_EQ(resolve_logger_shards(2), 2);  // explicit config beats env
  ::unsetenv("WINDAR_LOGGER_SHARDS");
}

TEST_F(ShardedLoggerFixture, RanksCommitOnTheirOwnShardOnly) {
  log_batch(0, {{1, 0, 1, 1}});
  log_batch(2, {{1, 2, 1, 1}});  // also shard 0 (2 % 2)
  log_batch(1, {{0, 1, 1, 1}});  // shard 1
  (void)expect_packet(0, Kind::kTelAck);
  (void)expect_packet(2, Kind::kTelAck);
  (void)expect_packet(1, Kind::kTelAck);
  EXPECT_EQ(shards[0]->stored_determinants(), 2u);
  EXPECT_EQ(shards[1]->stored_determinants(), 1u);
  EXPECT_EQ(shards[0]->batches(), 2u);
  EXPECT_EQ(shards[1]->batches(), 1u);
}

TEST_F(ShardedLoggerFixture, ShardsBatchAndAckIndependently) {
  shards[0]->pause_commits();
  log_batch(0, {{1, 0, 1, 1}});
  log_batch(2, {{1, 2, 1, 1}});
  wait_pending(*shards[0], 2);
  // Shard 1 is not paused: rank 1's commit proceeds immediately.
  log_batch(1, {{0, 1, 1, 1}});
  auto ack1 = expect_packet(1, Kind::kTelAck);
  EXPECT_EQ(ack1.seq, 1u);
  shards[0]->resume_commits();
  (void)expect_packet(0, Kind::kTelAck);
  (void)expect_packet(2, Kind::kTelAck);
  EXPECT_EQ(shards[0]->commit_rounds(), 1u);  // both batches in one round
  EXPECT_EQ(shards[0]->acks_sent(), 2u);      // one per affected rank
}

TEST_F(ShardedLoggerFixture, QueryServedByOwnShardAfterCrossRankTraffic) {
  log_batch(1, {{0, 1, 1, 1}, {2, 1, 2, 2}});
  (void)expect_packet(1, Kind::kTelAck);
  net::Packet q;
  q.src = 1;
  q.dst = logger_shard_endpoint(kN, 1, kShards);
  q.kind = wire(Kind::kTelQuery);
  fabric.send(std::move(q));
  auto reply = expect_packet(1, Kind::kTelQueryReply);
  util::ByteReader r(reply.payload);
  EXPECT_EQ(read_determinants(r).size(), 2u);
}

}  // namespace
}  // namespace windar::ft
