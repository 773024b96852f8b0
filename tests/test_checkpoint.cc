// Tests for checkpoint images and the stable store (in-memory and on-disk).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "windar/checkpoint.h"

namespace windar::ft {
namespace {

CheckpointImage sample_image() {
  CheckpointImage img;
  img.ckpt_seq = 3;
  img.app = {1, 2, 3};
  img.proto = {9, 8};
  img.last_send = {0, 5, 2};
  img.last_deliver = {0, 4, 4};
  img.delivered_total = 8;
  img.log = {7};
  return img;
}

TEST(CheckpointImage, SerializeRoundTrip) {
  const CheckpointImage img = sample_image();
  const util::Bytes blob = img.serialize();
  const CheckpointImage back = CheckpointImage::deserialize(blob);
  EXPECT_EQ(back.ckpt_seq, img.ckpt_seq);
  EXPECT_EQ(back.app, img.app);
  EXPECT_EQ(back.proto, img.proto);
  EXPECT_EQ(back.last_send, img.last_send);
  EXPECT_EQ(back.last_deliver, img.last_deliver);
  EXPECT_EQ(back.delivered_total, img.delivered_total);
  EXPECT_EQ(back.log, img.log);
}

TEST(CheckpointImage, BytesEstimatePositive) {
  EXPECT_GT(sample_image().bytes(), 0u);
}

TEST(CheckpointStore, SaveLoadInMemory) {
  CheckpointStore store;
  EXPECT_FALSE(store.has(1));
  EXPECT_FALSE(store.load(1).has_value());
  store.save(1, sample_image());
  EXPECT_TRUE(store.has(1));
  auto img = store.load(1);
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->delivered_total, 8u);
}

TEST(CheckpointStore, OverwriteKeepsLatest) {
  CheckpointStore store;
  store.save(0, sample_image());
  CheckpointImage img2 = sample_image();
  img2.ckpt_seq = 9;
  img2.delivered_total = 100;
  store.save(0, img2);
  auto loaded = store.load(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->ckpt_seq, 9u);
  EXPECT_EQ(loaded->delivered_total, 100u);
}

TEST(CheckpointStore, PerRankIsolation) {
  CheckpointStore store;
  store.save(0, sample_image());
  EXPECT_FALSE(store.has(1));
}

TEST(CheckpointStore, StatsAccumulate) {
  CheckpointStore store;
  store.save(0, sample_image());
  store.save(0, sample_image());
  (void)store.load(0);
  auto stats = store.stats();
  EXPECT_EQ(stats.saves, 2u);
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_GT(stats.bytes_written, 0u);
}

TEST(CheckpointStore, SpillToDiskRoundTrip) {
  const std::string dir = "/tmp/windar_test_ckpt";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(dir);
    store.save(2, sample_image());
    EXPECT_TRUE(std::filesystem::exists(dir + "/ckpt_rank2.bin"));
    auto img = store.load(2);
    ASSERT_TRUE(img.has_value());
    EXPECT_EQ(img->app, sample_image().app);
  }
  std::filesystem::remove_all(dir);
}

// A respawned OS process constructs a brand-new store over the same spill
// directory; disk must be the source of truth even though the in-memory map
// is empty (this is exactly the socket-transport recovery path).
TEST(CheckpointStore, FreshStoreReloadsPredecessorsImages) {
  const std::string dir = "/tmp/windar_test_ckpt_reload";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore first(dir);
    CheckpointImage img = sample_image();
    img.ckpt_seq = 7;
    first.save(1, img);
  }  // "process" dies; only the files survive
  {
    CheckpointStore respawned(dir);
    EXPECT_TRUE(respawned.has(1));
    EXPECT_FALSE(respawned.has(0));
    auto img = respawned.load(1);
    ASSERT_TRUE(img.has_value());
    EXPECT_EQ(img->ckpt_seq, 7u);
    EXPECT_EQ(img->app, sample_image().app);
  }
  std::filesystem::remove_all(dir);
}

// Saves go through write-then-rename: after a completed save no .tmp file
// remains, and a stale .tmp from a crashed predecessor never shadows the
// real image.
TEST(CheckpointStore, SaveIsAtomicAndIgnoresStaleTmp) {
  const std::string dir = "/tmp/windar_test_ckpt_atomic";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {  // a predecessor died mid-checkpoint, leaving a truncated tmp file
    std::ofstream junk(dir + "/ckpt_rank3.bin.tmp", std::ios::binary);
    junk << "garbage";
  }
  CheckpointStore store(dir);
  EXPECT_FALSE(store.has(3));
  EXPECT_FALSE(store.load(3).has_value());
  store.save(3, sample_image());
  EXPECT_FALSE(std::filesystem::exists(dir + "/ckpt_rank3.bin.tmp"));
  auto img = store.load(3);
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->delivered_total, 8u);
  std::filesystem::remove_all(dir);
}

// Disk reflects the latest save immediately: a second store opened while the
// first is still alive sees the overwrite, not the original.
TEST(CheckpointStore, DiskReflectsLatestOverwrite) {
  const std::string dir = "/tmp/windar_test_ckpt_latest";
  std::filesystem::remove_all(dir);
  CheckpointStore writer(dir);
  writer.save(0, sample_image());
  CheckpointImage img2 = sample_image();
  img2.ckpt_seq = 42;
  writer.save(0, img2);
  CheckpointStore reader(dir);
  auto loaded = reader.load(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->ckpt_seq, 42u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, ClearRemovesAll) {
  CheckpointStore store;
  store.save(0, sample_image());
  store.clear();
  EXPECT_FALSE(store.has(0));
}

// ---------------------------------------------------------------------------
// delta codec
// ---------------------------------------------------------------------------

SealedCheckpoint big_sealed(std::uint64_t seq) {
  CheckpointImage img = sample_image();
  img.ckpt_seq = seq;
  img.app.assign(64 * 1024, 0xA5);  // hundreds of diff pages, mostly cold
  img.log.assign(4 * 1024, 0x3C);
  return ckptwire::to_sealed(img);
}

// The reference equivalence assert: a delta applied to its base must decode
// to exactly the image a full blob would have carried.
TEST(CkptDelta, AppliedDeltaEqualsFullImage) {
  const SealedCheckpoint base = big_sealed(1);
  SealedCheckpoint next = big_sealed(2);
  // Dirty a few scattered bytes: the iterative-solver shape deltas exist for.
  util::Bytes app = next.app.to_vector();
  app[100] ^= 0xFF;
  app[40'000] ^= 0x01;
  next.app = util::Buffer(std::move(app));
  next.delivered_total = 99;

  const util::Bytes delta =
      ckptwire::encode_delta(next, base, ckptwire::image_hash(base));
  const util::Bytes full = ckptwire::encode_full(next);
  ASSERT_TRUE(ckptwire::is_delta(delta));
  ASSERT_FALSE(ckptwire::is_delta(full));
  EXPECT_EQ(ckptwire::blob_seq(delta), 2u);
  // Two dirty pages out of 256: the delta must be far smaller than a full
  // image (this inequality IS the incremental-checkpoint win).
  EXPECT_LT(delta.size(), full.size() / 8);

  const auto applied = ckptwire::apply_delta(delta, base);
  ASSERT_TRUE(applied.has_value());
  EXPECT_EQ(ckptwire::encode_full(*applied), full);
  EXPECT_EQ(ckptwire::image_hash(*applied), ckptwire::image_hash(next));
}

// A delta must refuse to graft onto anything but its recorded base: wrong
// seq or wrong content (the stale-lineage hazard) both return nullopt.
TEST(CkptDelta, RejectsForeignBase) {
  const SealedCheckpoint base = big_sealed(1);
  SealedCheckpoint next = big_sealed(2);
  next.delivered_total = 50;
  const util::Bytes delta =
      ckptwire::encode_delta(next, base, ckptwire::image_hash(base));

  SealedCheckpoint impostor = big_sealed(1);  // same seq, different content
  util::Bytes app = impostor.app.to_vector();
  app[7] ^= 0x42;
  impostor.app = util::Buffer(std::move(app));
  EXPECT_FALSE(ckptwire::apply_delta(delta, impostor).has_value());
  EXPECT_FALSE(ckptwire::apply_delta(delta, big_sealed(3)).has_value());
  EXPECT_TRUE(ckptwire::apply_delta(delta, base).has_value());
}

// Fail-soft decoding: a blob whose 13-byte header is plausible but whose
// body is truncated (host crash mid-write on a non-atomic filesystem) must
// report failure through the return value, never CHECK-abort — load()
// consumes whatever the spill directory holds.
TEST(CkptDelta, TruncatedBlobsFailSoftAtEveryCut) {
  const SealedCheckpoint base = big_sealed(1);
  SealedCheckpoint next = big_sealed(2);
  util::Bytes app = next.app.to_vector();
  app[123] ^= 0xFF;
  next.app = util::Buffer(std::move(app));

  const util::Bytes full = ckptwire::encode_full(next);
  ASSERT_TRUE(ckptwire::try_decode_full(full).has_value());
  const util::Bytes delta =
      ckptwire::encode_delta(next, base, ckptwire::image_hash(base));
  ASSERT_TRUE(ckptwire::apply_delta(delta, base).has_value());

  for (std::size_t cut = 0; cut < full.size(); cut += 7) {
    const util::Bytes torn(full.begin(),
                           full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(ckptwire::try_decode_full(torn).has_value()) << cut;
  }
  for (std::size_t cut = 0; cut < delta.size(); cut += 7) {
    const util::Bytes torn(delta.begin(),
                           delta.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(ckptwire::apply_delta(torn, base).has_value()) << cut;
  }

  // Trailing garbage is rejected too, not silently ignored.
  util::Bytes padded = full;
  padded.push_back(0);
  EXPECT_FALSE(ckptwire::try_decode_full(padded).has_value());
}

// ---------------------------------------------------------------------------
// delta chains on disk
// ---------------------------------------------------------------------------

TEST(CheckpointStore, DeltaChainSurvivesRespawn) {
  const std::string dir = "/tmp/windar_test_ckpt_delta";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore writer(dir, /*anchor_every=*/4);
    for (std::uint64_t seq = 1; seq <= 6; ++seq) {
      CheckpointImage img = sample_image();
      img.ckpt_seq = seq;
      img.delivered_total = static_cast<SeqNo>(10 * seq);
      img.app.push_back(static_cast<std::uint8_t>(seq));
      writer.save(0, img);
    }
    const auto stats = writer.stats();
    EXPECT_EQ(stats.saves, 6u);
    // K=4: full at seq 1 and 5, deltas at 2,3,4 and 6.
    EXPECT_EQ(stats.full_saves, 2u);
    EXPECT_EQ(stats.delta_saves, 4u);
    // The seq-5 anchor compacted the earlier chain's files.
    EXPECT_FALSE(std::filesystem::exists(dir + "/ckpt_rank0.d2.bin"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/ckpt_rank0.d6.bin"));
  }  // process dies; only files survive
  CheckpointStore respawned(dir);
  auto img = respawned.load(0);
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->ckpt_seq, 6u);  // anchor + delta chain reconstructed
  EXPECT_EQ(img->delivered_total, 60u);
  EXPECT_EQ(img->app.back(), 6u);
  std::filesystem::remove_all(dir);
}

// Crash window: a torn/garbage delta file (the write died before fsync
// completed on a non-atomic filesystem, or a stale lineage left one behind)
// must not poison the load — the reader keeps the longest valid chain.
TEST(CheckpointStore, CorruptDeltaFileFallsBackToAnchor) {
  const std::string dir = "/tmp/windar_test_ckpt_torn_delta";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore writer(dir, /*anchor_every=*/4);
    CheckpointImage img = sample_image();
    img.ckpt_seq = 1;
    writer.save(0, img);
  }
  {
    std::ofstream junk(dir + "/ckpt_rank0.d2.bin", std::ios::binary);
    junk << "not a checkpoint blob";
  }
  CheckpointStore reader(dir);
  auto img = reader.load(0);
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->ckpt_seq, 1u);
  std::filesystem::remove_all(dir);
}

// Crash window, anchor edition: a torn anchor whose header survived intact
// (truncated past the first 13 bytes) must read as "no checkpoint", and a
// torn delta next to a good anchor must not mask the anchor.
TEST(CheckpointStore, TruncatedFilesWithPlausibleHeadersFailSoft) {
  const std::string dir = "/tmp/windar_test_ckpt_truncated";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore writer(dir, /*anchor_every=*/4);
    CheckpointImage img = sample_image();
    img.ckpt_seq = 1;
    writer.save(0, img);
    img.ckpt_seq = 2;
    img.delivered_total = 20;
    writer.save(0, img);  // delta file d2
  }
  // Truncate the delta just past its header: the anchor must still load.
  std::filesystem::resize_file(dir + "/ckpt_rank0.d2.bin", 16);
  {
    CheckpointStore reader(dir);
    auto img = reader.load(0);
    ASSERT_TRUE(img.has_value());
    EXPECT_EQ(img->ckpt_seq, 1u);
  }
  // Truncate the anchor itself: no checkpoint, but no abort either.
  std::filesystem::resize_file(dir + "/ckpt_rank0.bin", 14);
  {
    CheckpointStore reader(dir);
    EXPECT_FALSE(reader.load(0).has_value());
  }
  std::filesystem::remove_all(dir);
}

// Satellite regression: clear() used to iterate the in-memory map only, so
// a fresh process (empty map) over an old spill dir left every stale file
// in place.  It must enumerate the directory.
TEST(CheckpointStore, ClearOnFreshProcessRemovesStaleFiles) {
  const std::string dir = "/tmp/windar_test_ckpt_stale_clear";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore writer(dir, /*anchor_every=*/2);
    writer.save(0, sample_image());
    writer.save(4, sample_image());
    CheckpointImage img2 = sample_image();
    img2.ckpt_seq = 4;
    writer.save(4, img2);  // leaves a delta file too
  }
  CheckpointStore respawned(dir);  // empty in-memory map
  respawned.clear();
  std::size_t leftovers = 0;
  for (const auto& ent : std::filesystem::directory_iterator(dir)) {
    leftovers += ent.path().filename().string().rfind("ckpt_rank", 0) == 0;
  }
  EXPECT_EQ(leftovers, 0u);
  EXPECT_FALSE(respawned.has(0));
  EXPECT_FALSE(respawned.has(4));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// commit pipeline
// ---------------------------------------------------------------------------

// Simulated kill between seal and fsync: the commit is abandoned, reported
// as such (the caller must not fan out advances), and the previous image
// stays the restore point.
TEST(CheckpointStore, PreCommitDropAbandonsCommit) {
  CheckpointStore store;
  store.save(3, sample_image());
  store.set_pre_commit_hook_for_test(
      [](int) { return CheckpointStore::CommitAction::kDrop; });
  CheckpointImage img2 = sample_image();
  img2.ckpt_seq = 9;
  EXPECT_FALSE(store.save_sealed(3, ckptwire::to_sealed(img2)));
  const auto stats = store.stats();
  EXPECT_EQ(stats.dropped_saves, 1u);
  EXPECT_EQ(stats.saves, 1u);
  auto img = store.load(3);
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->ckpt_seq, 3u);  // the dropped seq-9 image never published
}

// Satellite regression: save/load used to hold the store mutex across the
// full serialize + disk I/O.  A commit stalled inside the durable write
// must not block another rank's save or any load.
TEST(CheckpointStore, SlowCommitDoesNotBlockOtherRanks) {
  const std::string dir = "/tmp/windar_test_ckpt_noblock";
  std::filesystem::remove_all(dir);
  CheckpointStore store(dir, 1);
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  store.set_pre_commit_hook_for_test([&](int rank) {
    if (rank == 5) {
      entered.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return CheckpointStore::CommitAction::kProceed;
  });
  std::thread slow([&] { store.save(5, sample_image()); });
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Rank 5's commit is wedged mid-write; rank 1 must still round-trip.
  store.save(1, sample_image());
  EXPECT_TRUE(store.load(1).has_value());
  EXPECT_FALSE(store.has(5));  // wedged commit not published yet
  release.store(true);
  slow.join();
  EXPECT_TRUE(store.has(5));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace windar::ft
