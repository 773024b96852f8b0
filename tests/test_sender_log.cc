// Tests for the sender-based message log.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "windar/sender_log.h"

namespace windar::ft {
namespace {

LogEntry entry(SeqNo idx, std::size_t payload = 4) {
  LogEntry e;
  e.send_index = idx;
  e.tag = 1;
  e.meta = {1, 2};
  e.payload = util::Buffer(util::Bytes(payload, 0xEE));
  return e;
}

std::vector<SeqNo> indices(const SenderLog& log, int dst, SeqNo from = 0) {
  std::vector<SeqNo> out;
  log.for_each_from(dst, from,
                    [&](const LogEntry& e) { out.push_back(e.send_index); });
  return out;
}

TEST(SenderLog, AppendAndIterate) {
  SenderLog log(3);
  log.append(1, entry(1));
  log.append(1, entry(2));
  log.append(2, entry(1));
  EXPECT_EQ(log.entries(), 3u);
  EXPECT_EQ(log.entries_for(1), 2u);
  std::vector<SeqNo> seen;
  log.for_each_from(1, 0, [&](const LogEntry& e) { seen.push_back(e.send_index); });
  EXPECT_EQ(seen, (std::vector<SeqNo>{1, 2}));
}

TEST(SenderLog, ForEachFromSkipsPrefix) {
  SenderLog log(2);
  for (SeqNo i = 1; i <= 5; ++i) log.append(0, entry(i));
  std::vector<SeqNo> seen;
  log.for_each_from(0, 3, [&](const LogEntry& e) { seen.push_back(e.send_index); });
  EXPECT_EQ(seen, (std::vector<SeqNo>{4, 5}));
}

TEST(SenderLog, ReleaseUpto) {
  SenderLog log(2);
  for (SeqNo i = 1; i <= 5; ++i) log.append(1, entry(i));
  const std::size_t before = log.bytes();
  EXPECT_EQ(log.release_upto(1, 3), 3u);
  EXPECT_EQ(log.entries(), 2u);
  EXPECT_LT(log.bytes(), before);
  // Releasing again is a no-op.
  EXPECT_EQ(log.release_upto(1, 3), 0u);
  // Release everything.
  EXPECT_EQ(log.release_upto(1, 100), 2u);
  EXPECT_EQ(log.entries(), 0u);
  EXPECT_EQ(log.bytes(), 0u);
}

TEST(SenderLog, NonContiguousIndicesAfterRelease) {
  SenderLog log(1);
  log.append(0, entry(1));
  log.append(0, entry(2));
  log.release_upto(0, 2);
  log.append(0, entry(3));  // indices keep increasing after release
  EXPECT_EQ(log.entries(), 1u);
}

TEST(SenderLog, RejectsNonIncreasingIndices) {
  SenderLog log(1);
  log.append(0, entry(2));
  EXPECT_DEATH(log.append(0, entry(2)), "increase");
}

TEST(SenderLog, SaveRestoreRoundTrip) {
  SenderLog log(3);
  log.append(0, entry(1, 10));
  log.append(2, entry(1, 20));
  log.append(2, entry(2, 30));
  util::ByteWriter w;
  log.save(w);
  const util::Bytes blob = w.take();

  SenderLog copy(3);
  util::ByteReader r(blob);
  copy.restore(r);
  EXPECT_EQ(copy.entries(), 3u);
  EXPECT_EQ(copy.bytes(), log.bytes());
  std::vector<std::size_t> sizes;
  copy.for_each_from(2, 0, [&](const LogEntry& e) { sizes.push_back(e.payload.size()); });
  EXPECT_EQ(sizes, (std::vector<std::size_t>{20, 30}));
}

TEST(SenderLog, RestoreRejectsWidthMismatch) {
  // A checkpoint blob taken at a different job width (truncated or foreign)
  // must panic instead of silently resizing per_dst_: later append() /
  // release_upto() calls would index out of range.
  SenderLog log(4);
  util::ByteWriter w;
  log.save(w);
  const util::Bytes blob = w.take();

  SenderLog narrower(3);
  util::ByteReader r(blob);
  EXPECT_DEATH(narrower.restore(r), "width mismatch");
}

TEST(SenderLog, ClearResets) {
  SenderLog log(2);
  log.append(0, entry(1));
  log.clear();
  EXPECT_EQ(log.entries(), 0u);
  EXPECT_EQ(log.bytes(), 0u);
  log.append(0, entry(1));  // indices restart after clear
  EXPECT_EQ(log.entries(), 1u);
}

TEST(SenderLog, BytesAccountsMetaAndPayload) {
  SenderLog log(1);
  const std::size_t empty = log.bytes();
  log.append(0, entry(1, 100));
  EXPECT_GE(log.bytes() - empty, 100u);
}

TEST(SenderLog, AppendReturnsRunningTotals) {
  // The Totals return is what lets the send path book peak-log metrics
  // without a second lock round-trip; it must match the accessors exactly.
  SenderLog log(2);
  for (SeqNo i = 1; i <= 10; ++i) {
    const SenderLog::Totals t = log.append(1, entry(i, 8));
    EXPECT_EQ(t.entries, log.entries());
    EXPECT_EQ(t.bytes, log.bytes());
    EXPECT_EQ(t.entries, static_cast<std::size_t>(i));
  }
}

TEST(SenderLog, ChunkedStorageRecyclesReleasedChunks) {
  // Steady state: append a few chunks' worth, release them, append again —
  // the second wave must reuse the first wave's chunks, not allocate.
  SenderLog log(2);
  constexpr std::size_t kWave = 100;  // > 3 chunks at 32 entries/chunk
  for (SeqNo i = 1; i <= kWave; ++i) log.append(1, entry(i));
  const std::size_t created_wave1 = log.chunks_created();
  EXPECT_GE(created_wave1, kWave / 32);
  log.release_upto(1, kWave);
  EXPECT_EQ(log.entries(), 0u);
  EXPECT_GT(log.chunks_free(), 0u);
  for (SeqNo i = kWave + 1; i <= 2 * kWave; ++i) log.append(1, entry(i));
  EXPECT_EQ(log.chunks_created(), created_wave1);
  EXPECT_GT(log.chunks_recycled(), 0u);
}

TEST(SenderLog, PartialReleaseKeepsChunkWindowCorrect) {
  // Releasing into the middle of a chunk advances its live window without
  // recycling it; iteration and counts must see exactly the survivors.
  SenderLog log(1);
  for (SeqNo i = 1; i <= 40; ++i) log.append(0, entry(i));
  EXPECT_EQ(log.release_upto(0, 35), 35u);  // chunk 0 gone, chunk 1 partial
  EXPECT_EQ(log.entries(), 5u);
  std::vector<SeqNo> seen;
  log.for_each_from(0, 0, [&](const LogEntry& e) { seen.push_back(e.send_index); });
  EXPECT_EQ(seen, (std::vector<SeqNo>{36, 37, 38, 39, 40}));
}

TEST(SenderLog, SaveRestoreRoundTripAcrossChunkBoundaries) {
  // 100 entries per destination spans several 32-entry chunks and a partial
  // tail; the checkpoint blob must round-trip every entry byte-identically.
  SenderLog log(2);
  for (SeqNo i = 1; i <= 100; ++i) {
    log.append(0, entry(i, static_cast<std::size_t>(i % 7) + 1));
    log.append(1, entry(i, static_cast<std::size_t>(i % 5) + 1));
  }
  log.release_upto(0, 50);  // a released prefix must not resurrect
  util::ByteWriter w;
  log.save(w);
  const util::Bytes blob = w.take();

  SenderLog copy(2);
  util::ByteReader r(blob);
  copy.restore(r);
  EXPECT_EQ(copy.entries(), log.entries());
  EXPECT_EQ(copy.bytes(), log.bytes());
  std::vector<SeqNo> seen;
  copy.for_each_from(0, 0, [&](const LogEntry& e) { seen.push_back(e.send_index); });
  ASSERT_EQ(seen.size(), 50u);
  EXPECT_EQ(seen.front(), 51u);
  EXPECT_EQ(seen.back(), 100u);
  std::size_t n1 = 0;
  copy.for_each_from(1, 0, [&](const LogEntry& e) {
    ++n1;
    EXPECT_EQ(e.payload.size(), static_cast<std::size_t>(e.send_index % 5) + 1);
  });
  EXPECT_EQ(n1, 100u);
}

TEST(SenderLog, ChunkListRecyclesAcrossReleaseUpto) {
  SenderLog log(3);
  for (SeqNo i = 1; i <= 100; ++i) log.append(1, entry(i));  // 4 chunks
  EXPECT_EQ(log.chunks_for(1), 4u);
  const std::uint64_t created = log.chunks_created();

  // Drop the two oldest chunks and half of the third.
  EXPECT_EQ(log.release_upto(1, 80), 80u);
  EXPECT_EQ(log.chunks_for(1), 2u);
  EXPECT_EQ(log.chunks_free(), 2u);
  EXPECT_EQ(indices(log, 1, 90).front(), 91u);
  EXPECT_EQ(indices(log, 1).size(), 20u);

  // The next burst (on another destination) reuses the freed chunks.
  for (SeqNo i = 1; i <= 64; ++i) log.append(2, entry(i));
  EXPECT_EQ(log.chunks_created(), created);
  EXPECT_EQ(log.chunks_free(), 0u);

  // A full drain returns every chunk but the partly filled tail; appends
  // then land in that tail, and the per-destination index guard survives.
  EXPECT_EQ(log.release_upto(1, 100), 20u);
  EXPECT_EQ(log.chunks_for(1), 1u);
  log.append(1, entry(101));
  EXPECT_EQ(indices(log, 1), (std::vector<SeqNo>{101}));
  EXPECT_DEATH(log.append(1, entry(101)), "increase");
}

TEST(SenderLog, SealMatchesSaveAndRestoreKeepsIdleDestinationsEmpty) {
  SenderLog log(4);
  for (SeqNo i = 1; i <= 70; ++i) log.append(0, entry(i, i % 3 + 1));
  for (SeqNo i = 1; i <= 33; ++i) log.append(3, entry(i));
  log.release_upto(0, 40);

  util::ByteWriter w;
  log.save(w);
  const util::Bytes blob = w.take();
  util::ByteWriter ws;
  SenderLog::serialize_sealed(log.seal(), ws);
  EXPECT_EQ(ws.take(), blob);  // the async seal emits save()'s exact form

  SenderLog copy(4);
  util::ByteReader r(blob);
  copy.restore(r);
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(indices(copy, d), indices(log, d)) << "dst " << d;
  }
  EXPECT_EQ(copy.chunks_for(1), 0u);  // idle destinations stay empty
  EXPECT_EQ(copy.chunks_for(3), 2u);
  EXPECT_EQ(copy.bytes(), log.bytes());
}

TEST(SenderLog, LongChunkListTearsDownIteratively) {
  // Thousands of chunks on one destination: clear() and the destructor
  // unlink them one at a time instead of recursing through the list.
  auto log = std::make_unique<SenderLog>(2);
  for (SeqNo i = 1; i <= 200'000; ++i) log->append(1, entry(i, 0));
  EXPECT_EQ(log->chunks_for(1), 200'000u / SenderLog::kChunkEntries);
  log.reset();
}

}  // namespace
}  // namespace windar::ft
