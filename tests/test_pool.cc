// Tests for the slab recycling layer: BlockPool size classes and intrusive
// refcounts, Pool<T> object recycling, the Buffer integration (copy-once +
// recycled blocks), and the kill/revive storm slice that proves a killed
// endpoint's in-flight pooled packets return to the slab without
// use-after-free (the ASan target).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/fabric.h"
#include "util/buffer.h"
#include "util/pool.h"

namespace windar::util {
namespace {

using namespace std::chrono_literals;

// The global pool is process-wide state; start each counting test from an
// empty free list so earlier tests can't donate blocks.
class BlockPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { BlockPool::global().trim(); }
};

TEST_F(BlockPoolTest, AcquireReleaseRecycles) {
  BlockRef a = BlockPool::global().acquire(1000);
  EXPECT_FALSE(a.recycled());
  EXPECT_GE(a.capacity(), 1000u);
  const void* id = a.id();
  a.reset();  // back to the freelist
  EXPECT_EQ(BlockPool::global().free_blocks(), 1u);

  BlockRef b = BlockPool::global().acquire(900);  // same 1 KiB class
  EXPECT_TRUE(b.recycled());
  EXPECT_EQ(b.id(), id);
  EXPECT_EQ(BlockPool::global().free_blocks(), 0u);
}

TEST_F(BlockPoolTest, DifferentSizeClassesDoNotShareFreeLists) {
  BlockRef small = BlockPool::global().acquire(100);
  small.reset();
  BlockRef big = BlockPool::global().acquire(60000);
  EXPECT_FALSE(big.recycled());  // 256 B freelist can't serve a 64 KiB ask
  big.reset();
  EXPECT_EQ(BlockPool::global().free_blocks(), 2u);
}

TEST_F(BlockPoolTest, OversizeBlocksAreNeverPooled) {
  BlockRef huge = BlockPool::global().acquire(1 << 20);
  EXPECT_GE(huge.capacity(), 1u << 20);
  huge.reset();
  EXPECT_EQ(BlockPool::global().free_blocks(), 0u);
  EXPECT_FALSE(BlockPool::global().acquire(1 << 20).recycled());
}

TEST_F(BlockPoolTest, CopiedRefKeepsBlockOutOfFreeList) {
  BlockRef a = BlockPool::global().acquire(512);
  BlockRef b = a;  // refcount 2
  a.reset();
  EXPECT_EQ(BlockPool::global().free_blocks(), 0u);  // b still holds it
  b.reset();
  EXPECT_EQ(BlockPool::global().free_blocks(), 1u);
}

TEST_F(BlockPoolTest, TrimFreesEverything) {
  for (int i = 0; i < 4; ++i) BlockPool::global().acquire(100).reset();
  EXPECT_GT(BlockPool::global().free_blocks(), 0u);
  BlockPool::global().trim();
  EXPECT_EQ(BlockPool::global().free_blocks(), 0u);
}

TEST(ObjectPool, RecyclesUpToBound) {
  struct Widget {
    int v = 0;
  };
  Pool<Widget> pool(/*max_free=*/2);
  auto a = pool.acquire();
  auto b = pool.acquire();
  auto c = pool.acquire();
  EXPECT_EQ(pool.created(), 3u);
  Widget* const a_raw = a.get();
  pool.release(std::move(a));
  pool.release(std::move(b));
  pool.release(std::move(c));  // over the bound: freed, not retained
  EXPECT_EQ(pool.free_count(), 2u);

  auto d = pool.acquire();  // LIFO: the most recently released first
  auto e = pool.acquire();
  EXPECT_EQ(pool.recycled(), 2u);
  EXPECT_EQ(pool.created(), 3u);
  EXPECT_TRUE(d.get() == a_raw || e.get() == a_raw);
  EXPECT_FALSE(pool.acquire() == nullptr);  // empty freelist → fresh object
  EXPECT_EQ(pool.created(), 4u);
}

// --- Buffer integration ------------------------------------------------------

TEST_F(BlockPoolTest, BufferCopyOfRecyclesSteadyState) {
  std::vector<std::uint8_t> payload(1024, 0xAB);
  const std::uint64_t created0 = BlockPool::blocks_created();
  { Buffer warm = Buffer::copy_of(payload); }  // seeds the freelist
  for (int i = 0; i < 100; ++i) {
    Buffer b = Buffer::copy_of(payload);
    EXPECT_TRUE(b.recycled()) << "iteration " << i;
    EXPECT_EQ(b, std::span<const std::uint8_t>(payload));
  }
  EXPECT_EQ(BlockPool::blocks_created(), created0 + 1);
}

TEST_F(BlockPoolTest, InlineBuffersNeverTouchThePool) {
  const std::uint64_t created0 = BlockPool::blocks_created();
  std::vector<std::uint8_t> tiny(Buffer::kInlineCapacity, 0x11);
  Buffer b = Buffer::copy_of(tiny);
  EXPECT_TRUE(b.inline_storage());
  EXPECT_FALSE(b.recycled());
  EXPECT_EQ(BlockPool::blocks_created(), created0);
}

TEST_F(BlockPoolTest, ViewKeepsRecycledBlockAlive) {
  // A view aliasing a pooled block must pin it: the block may only reach
  // the freelist after the last view dies, or a later copy_of would scribble
  // over live bytes.
  std::vector<std::uint8_t> payload(256, 0);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  Buffer whole = Buffer::copy_of(payload);
  Buffer slice = whole.view(100, 50);
  EXPECT_TRUE(slice.shares_storage_with(whole));
  whole = Buffer();  // drop the parent; the slice still pins the block
  EXPECT_EQ(BlockPool::global().free_blocks(), 0u);
  Buffer other = Buffer::copy_of(payload);  // must NOT reuse the pinned block
  EXPECT_FALSE(other.shares_storage_with(slice));
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(slice[i], static_cast<std::uint8_t>(100 + i));
  }
  slice = Buffer();
  EXPECT_GE(BlockPool::global().free_blocks(), 1u);
}

// --- Kill/revive storm (the ASan slice) -------------------------------------

TEST_F(BlockPoolTest, KillReviveStormRecyclesInFlightPacketsCleanly) {
  // Senders pump pool-backed payloads at one victim endpoint while a chaos
  // monkey kills/revives it.  Every poison discards in-flight packets whose
  // Buffers return their blocks to the slab; later sends immediately reuse
  // those blocks.  Under ASan this is the use-after-free probe (freelisted
  // block data is poisoned); in any build the fabric accounting must still
  // close exactly and payload bytes must survive intact.
  constexpr int kSenders = 3;
  constexpr int kPerSender = 1500;
  constexpr std::size_t kPayload = 512;
  net::Fabric f(kSenders + 1,
                net::LatencyModel::deterministic(std::chrono::nanoseconds(200),
                                                 std::chrono::nanoseconds(0)),
                11, 2,
                net::InboxConfig{net::InboxKind::kRing, 64});
  std::atomic<bool> stop{false};
  std::thread chaos_monkey([&] {
    while (!stop.load(std::memory_order_acquire)) {
      f.kill(1);
      std::this_thread::sleep_for(50us);
      f.revive(1);
      std::this_thread::sleep_for(150us);
    }
    f.revive(1);
  });
  std::atomic<std::uint64_t> bad_payloads{0};
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto p = f.endpoint(1).inbox().pop_until(
          std::chrono::steady_clock::now() + 1ms);
      if (!p) continue;
      // Reading the payload after the hop catches a block recycled while
      // this packet still aliased it.
      const std::uint8_t want = static_cast<std::uint8_t>(p->seq & 0xFF);
      for (std::size_t i = 0; i < p->payload.size(); ++i) {
        if (p->payload[i] != want) {
          bad_payloads.fetch_add(1);
          break;
        }
      }
    }
  });
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      std::vector<std::uint8_t> scratch(kPayload);
      for (int i = 0; i < kPerSender; ++i) {
        net::Packet p;
        p.src = s + 2 > kSenders ? 0 : s + 2;  // any live src rank
        p.dst = 1;
        p.seq = static_cast<std::uint64_t>(i);
        std::fill(scratch.begin(), scratch.end(),
                  static_cast<std::uint8_t>(i & 0xFF));
        p.payload = Buffer::copy_of(scratch);
        f.send(std::move(p));
      }
    });
  }
  for (auto& t : senders) t.join();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  net::FabricStats s = f.stats();
  while (std::chrono::steady_clock::now() < deadline && !s.accounted()) {
    std::this_thread::sleep_for(200us);
    s = f.stats();
  }
  stop.store(true, std::memory_order_release);
  chaos_monkey.join();
  drainer.join();
  EXPECT_EQ(s.packets_sent,
            static_cast<std::uint64_t>(kSenders) * kPerSender);
  EXPECT_EQ(s.packets_sent, s.packets_delivered + s.packets_dropped_dead +
                                s.packets_dropped_chaos);
  EXPECT_EQ(bad_payloads.load(), 0u);
  // The storm must have actually exercised recycling, or the ASan probe
  // proved nothing.
  EXPECT_GT(BlockPool::blocks_recycled(), 0u);
}

}  // namespace
}  // namespace windar::util
