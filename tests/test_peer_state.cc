// Per-peer engine state must be free until its peer is used.  An n-rank job
// builds n engines, each with per-destination containers, so anything a
// container allocates when default-constructed is paid n² times before the
// first send.  This binary replaces the global operator new with a counting
// one (local to this test executable) and checks that constructing the
// per-peer planes costs the same handful of allocations at 64 and 4096
// ranks.  Behaviour on the lazily built containers is covered by
// test_sender_log, test_send_path and test_channel_state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "net/fabric.h"
#include "windar/channel_state.h"
#include "windar/send_path.h"
#include "windar/sender_log.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace windar::ft {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// Heap allocations made by `f`.
template <typename F>
std::uint64_t count_allocs(F&& f) {
  const std::uint64_t before = allocs();
  f();
  return allocs() - before;
}

LogEntry entry(SeqNo idx, std::size_t payload = 4) {
  LogEntry e;
  e.send_index = idx;
  e.tag = 1;
  e.meta = {1, 2};
  e.payload = util::Buffer(util::Bytes(payload, 0xEE));
  return e;
}

ProcessParams make_params(int n) {
  ProcessParams p;
  p.rank = 0;
  p.n = n;
  p.protocol = ProtocolKind::kTdi;
  p.mode = SendMode::kNonBlocking;
  return p;
}

TEST(PeerState, SenderLogConstructionIsConstantInN) {
  const std::uint64_t small =
      count_allocs([] { auto log = std::make_unique<SenderLog>(64); });
  const std::uint64_t large =
      count_allocs([] { auto log = std::make_unique<SenderLog>(4096); });
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 4u);
}

TEST(PeerState, ChannelStateConstructionIsConstantInN) {
  const std::uint64_t small =
      count_allocs([] { auto cs = std::make_unique<ChannelState>(64, 0); });
  const std::uint64_t large =
      count_allocs([] { auto cs = std::make_unique<ChannelState>(4096, 0); });
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 8u);
}

TEST(PeerState, SendPathConstructionIsConstantInN) {
  // The transport is only stored by the constructor, so a two-endpoint
  // fabric serves both widths.
  net::Fabric fabric(2, net::LatencyModel::deterministic(
                            std::chrono::nanoseconds(1'000),
                            std::chrono::nanoseconds(0)),
                     /*seed=*/7);
  auto build = [&](int n) {
    ProcessParams params = make_params(n);
    LifeFlags life;
    ChannelState channels(n, 0);
    ProtocolHost tracker(make_protocol(ProtocolKind::kTdi, 0, n));
    SenderLog log(n);
    SharedMetrics metrics;
    return count_allocs([&] {
      auto path = std::make_unique<SendPath>(fabric, params, life, channels,
                                             tracker, log, metrics);
    });
  };
  const std::uint64_t small = build(64);
  const std::uint64_t large = build(4096);
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 8u);
}

TEST(PeerState, FirstAppendAllocatesForThatPeerOnly) {
  SenderLog log(4096);
  LogEntry e = entry(1);
  // One chunk for the destination that was used; the other 4095 stay empty.
  EXPECT_EQ(count_allocs([&] { log.append(17, std::move(e)); }), 1u);
  EXPECT_EQ(log.chunks_for(17), 1u);
  EXPECT_EQ(log.chunks_for(16), 0u);
  EXPECT_EQ(log.chunks_for(18), 0u);
}

}  // namespace
}  // namespace windar::ft
