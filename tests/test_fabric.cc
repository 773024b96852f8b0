// Tests for the simulated interconnect: delivery, latency ordering, the
// fault plane, sharded scheduling, statistics, and the drop-accounting
// invariant  packets_sent == packets_delivered + packets_dropped_dead +
// packets_dropped_chaos.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/fabric.h"
#include "net/socket_transport.h"
#include "util/pool.h"

namespace windar::net {
namespace {

using namespace std::chrono_literals;

Packet make(int src, int dst, std::uint64_t seq, std::size_t payload = 0) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.seq = seq;
  p.payload = util::Buffer(util::Bytes(payload, 0));
  return p;
}

// Waits for the fabric to quiesce (every sent packet accounted for) and
// returns the stats at that point.  The invariant only holds once nothing is
// in flight — a transient sent > delivered + dropped is expected while a
// shard is mid-drain, since delivery happens outside the shard lock and the
// stats delta is booked after the batch lands.
FabricStats quiesced_stats(Fabric& f) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    const FabricStats s = f.stats();
    if (s.packets_sent == s.packets_delivered + s.packets_dropped_dead +
                              s.packets_dropped_chaos) {
      return s;
    }
    std::this_thread::sleep_for(200us);
  }
  return f.stats();
}

TEST(Fabric, DeliversPacket) {
  Fabric f(2, LatencyModel::deterministic(), 1);
  f.send(make(0, 1, 7));
  auto p = f.endpoint(1).inbox().pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->src, 0);
  EXPECT_EQ(p->seq, 7u);
}

TEST(Fabric, ZeroJitterPreservesSameSizeOrder) {
  Fabric f(2, LatencyModel::deterministic(), 1);
  for (std::uint64_t i = 1; i <= 50; ++i) f.send(make(0, 1, i));
  for (std::uint64_t i = 1; i <= 50; ++i) {
    auto p = f.endpoint(1).inbox().pop();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
}

TEST(Fabric, JitterReordersIndependentPackets) {
  // With heavy jitter relative to base latency, a burst should arrive out of
  // send order at least once.
  LatencyModel m;
  m.base = std::chrono::nanoseconds(1000);
  m.per_byte = std::chrono::nanoseconds(0);
  m.jitter = std::chrono::nanoseconds(500'000);
  Fabric f(2, m, 99);
  constexpr int kN = 64;
  for (std::uint64_t i = 1; i <= kN; ++i) f.send(make(0, 1, i));
  bool reordered = false;
  std::uint64_t prev = 0;
  for (int i = 0; i < kN; ++i) {
    auto p = f.endpoint(1).inbox().pop();
    ASSERT_TRUE(p.has_value());
    if (p->seq < prev) reordered = true;
    prev = p->seq;
  }
  EXPECT_TRUE(reordered);
}

TEST(Fabric, LargerPayloadTakesLonger) {
  LatencyModel m = LatencyModel::deterministic(std::chrono::nanoseconds(1000),
                                               std::chrono::nanoseconds(500));
  Fabric f(2, m, 1);
  // Send the big packet first; the small one should overtake it.
  f.send(make(0, 1, 1, 64 * 1024));
  f.send(make(0, 1, 2, 0));
  auto first = f.endpoint(1).inbox().pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, 2u);
}

TEST(Fabric, KillDropsQueuedAndInFlight) {
  Fabric f(2, LatencyModel::deterministic(std::chrono::microseconds(2000)), 1);
  f.send(make(0, 1, 1));
  f.kill(1);
  f.send(make(0, 1, 2));
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(f.endpoint(1).inbox().poisoned());
  EXPECT_FALSE(f.endpoint(1).alive());
  auto stats = quiesced_stats(f);
  EXPECT_GE(stats.packets_dropped_dead, 1u);
}

TEST(Fabric, ReviveRestoresDelivery) {
  Fabric f(2, LatencyModel::deterministic(), 1);
  f.kill(1);
  std::this_thread::sleep_for(5ms);
  f.revive(1);
  f.send(make(0, 1, 3));
  auto p = f.endpoint(1).inbox().pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->seq, 3u);
  EXPECT_TRUE(f.endpoint(1).alive());
}

TEST(Fabric, StatsCountTraffic) {
  Fabric f(3, LatencyModel::deterministic(), 1);
  f.send(make(0, 1, 1, 100));
  f.send(make(0, 2, 1, 100));
  (void)f.endpoint(1).inbox().pop();
  (void)f.endpoint(2).inbox().pop();
  // pop() returns as soon as the push lands, which can be before the shard
  // books its stats delta — poll until the accounting catches up.
  auto stats = quiesced_stats(f);
  EXPECT_EQ(stats.packets_sent, 2u);
  EXPECT_EQ(stats.packets_delivered, 2u);
  EXPECT_GT(stats.bytes_sent, 200u);
}

TEST(Fabric, ShutdownPoisonsEndpoints) {
  Fabric f(2, LatencyModel::deterministic(), 1);
  f.shutdown();
  EXPECT_FALSE(f.endpoint(0).inbox().pop().has_value());
  f.shutdown();  // idempotent
  // A rank whose Process is built after the shutdown revives its endpoint;
  // it must stay poisoned so the rank unwinds instead of waiting forever.
  f.revive(1);
  EXPECT_TRUE(f.endpoint(1).inbox().poisoned());
}

TEST(Fabric, SendAfterShutdownIsDropped) {
  Fabric f(2, LatencyModel::deterministic(), 1);
  f.shutdown();
  f.send(make(0, 1, 1));  // must not crash
}

TEST(Fabric, WireSizeIncludesHeaderAndSections) {
  Packet p = make(0, 1, 1, 10);
  p.meta = util::Buffer(util::Bytes(6, 0));
  EXPECT_EQ(p.wire_size(), 30u + 16u);
}

// --- Sharded scheduling -----------------------------------------------------

TEST(Fabric, ExplicitShardCountClampsToEndpoints) {
  Fabric f(2, LatencyModel::deterministic(), 1, 8);
  EXPECT_EQ(f.shard_count(), 2);
  Fabric g(8, LatencyModel::deterministic(), 1, 3);
  EXPECT_EQ(g.shard_count(), 3);
}

TEST(Fabric, ShardedFabricPreservesPerChannelFifo) {
  // All packets for one destination flow through one shard (dst % shards),
  // so zero-jitter same-size streams arrive in send order on every channel
  // even with the maximum shard spread.
  constexpr int kEndpoints = 5;
  Fabric f(kEndpoints, LatencyModel::deterministic(), 1, kEndpoints);
  ASSERT_EQ(f.shard_count(), kEndpoints);
  constexpr std::uint64_t kN = 40;
  for (std::uint64_t i = 1; i <= kN; ++i) {
    for (int dst = 1; dst < kEndpoints; ++dst) f.send(make(0, dst, i));
  }
  for (int dst = 1; dst < kEndpoints; ++dst) {
    for (std::uint64_t i = 1; i <= kN; ++i) {
      auto p = f.endpoint(dst).inbox().pop();
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(p->seq, i) << "channel 0->" << dst;
    }
  }
}

TEST(Fabric, StatsMergeAcrossShards) {
  Fabric f(4, LatencyModel::deterministic(), 1, 4);
  constexpr int kPerDst = 25;
  for (int dst = 0; dst < 4; ++dst) {
    for (int i = 0; i < kPerDst; ++i) {
      f.send(make((dst + 1) % 4, dst, static_cast<std::uint64_t>(i), 32));
    }
  }
  const FabricStats s = quiesced_stats(f);
  EXPECT_EQ(s.packets_sent, 4u * kPerDst);
  EXPECT_EQ(s.packets_delivered, 4u * kPerDst);
  EXPECT_EQ(s.packets_dropped_dead, 0u);
  EXPECT_EQ(s.packets_dropped_chaos, 0u);
}

TEST(Fabric, ChaosSenderKillBooksUnderChaosCounter) {
  // A chaos kill fired by the victim's own send drops the triggering packet:
  // it must land in packets_dropped_chaos, not pollute the dead-destination
  // signal, and still count as sent so the accounting invariant closes.
  Fabric f(2, LatencyModel::deterministic(), 1, 1);
  FaultSchedule chaos;
  ChaosEvent ev;
  ev.when = ChaosEvent::When::kSend;
  ev.action = ChaosEvent::Action::kKill;
  ev.endpoint = 0;
  ev.nth = 3;
  chaos.set_kill_handler([&](const ChaosEvent& fired) {
    f.kill(fired.target);
  });
  chaos.add(ev);
  f.set_chaos(&chaos);
  for (std::uint64_t i = 1; i <= 5; ++i) f.send(make(0, 1, i));
  const FabricStats s = quiesced_stats(f);
  EXPECT_EQ(s.packets_sent, 5u);
  EXPECT_EQ(s.packets_dropped_chaos, 1u);  // the 3rd send died mid-send
  EXPECT_EQ(s.packets_dropped_dead, 0u);   // endpoint 1 stayed alive
  EXPECT_EQ(s.packets_delivered, 4u);
  EXPECT_FALSE(f.endpoint(0).alive());
}

TEST(Fabric, CutThroughDeliversAndPreservesChannelFifo) {
  // An identically-zero latency model activates the sender-side cut-through.
  // A tiny ring forces constant full-ring fallbacks to the shard path, so
  // this exercises the cut-through/shard interleave: the shard_pending gate
  // must keep every channel's packets in order across the two routes.
  constexpr int kSenders = 3;
  constexpr int kPerSender = 4000;
  Fabric f(kSenders + 1, LatencyModel{0ns, 0ns, 0ns}, 11, 2,
           InboxConfig{InboxKind::kRing, 8});
  std::vector<std::uint64_t> next_seq(kSenders, 0);
  std::atomic<int> received{0};
  std::thread consumer([&] {
    while (received.load(std::memory_order_relaxed) < kSenders * kPerSender) {
      auto p = f.endpoint(kSenders).inbox().pop_until(
          std::chrono::steady_clock::now() + 100ms);
      if (!p) continue;
      ASSERT_LT(p->src, kSenders);
      // Same-size zero-jitter stream: per-channel FIFO is contractual.
      EXPECT_EQ(p->seq, next_seq[static_cast<std::size_t>(p->src)]++)
          << "channel " << p->src;
      received.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        f.send(make(s, kSenders, static_cast<std::uint64_t>(i)));
      }
    });
  }
  for (auto& t : senders) t.join();
  consumer.join();
  const FabricStats s = quiesced_stats(f);
  EXPECT_EQ(s.packets_sent,
            static_cast<std::uint64_t>(kSenders) * kPerSender);
  EXPECT_EQ(s.packets_delivered, s.packets_sent);
  EXPECT_EQ(s.packets_dropped_dead, 0u);
}

TEST(Fabric, CutThroughKillStormAccountsEveryPacket) {
  // The drop-accounting invariant must close exactly when deliveries happen
  // on sender threads (cut-through) racing kill()/revive() — same contract
  // as the shard path: a packet books delivered only if its inbox push
  // succeeded, else dropped_dead, never both and never neither.
  for (const int shards : {1, 2, 4}) {
    constexpr int kSenders = 4;
    constexpr int kPerSender = 2000;
    Fabric f(kSenders + 1, LatencyModel{0ns, 0ns, 0ns}, 13, shards);
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
    std::thread drainer([&] {
      while (!stop.load(std::memory_order_acquire)) {
        (void)f.endpoint(1).inbox().pop_until(
            std::chrono::steady_clock::now() + 1ms);
      }
    });
    std::vector<std::thread> senders;
    for (int s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        for (int i = 0; i < kPerSender; ++i) {
          f.send(make(s + (s >= 1 ? 1 : 0), 1, static_cast<std::uint64_t>(i)));
        }
      });
    }
    for (auto& t : senders) t.join();
    const FabricStats storm = quiesced_stats(f);
    stop.store(true, std::memory_order_release);
    chaos_monkey.join();
    drainer.join();
    EXPECT_EQ(storm.packets_sent,
              static_cast<std::uint64_t>(kSenders) * kPerSender)
        << "shards=" << shards;
    EXPECT_EQ(storm.packets_sent,
              storm.packets_delivered + storm.packets_dropped_dead +
                  storm.packets_dropped_chaos)
        << "shards=" << shards;
  }
}

TEST(Fabric, KillDuringDeliveryStormAccountsEveryPacket) {
  // The lost-delivery miscount regression: a packet must never be counted
  // delivered and then vanish into a just-poisoned inbox.  Hammer endpoint 1
  // with concurrent senders while killing/reviving it, on every shard layout,
  // and require the accounting to close EXACTLY.
  for (const int shards : {1, 2, 4}) {
    constexpr int kSenders = 4;
    constexpr int kPerSender = 2000;
    Fabric f(kSenders + 1,
             LatencyModel::deterministic(std::chrono::nanoseconds(200),
                                         std::chrono::nanoseconds(0)),
             7, shards);
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
    std::thread drainer([&] {
      // Keep the victim's inbox from growing without bound; pop_until also
      // tolerates the poison windows.
      while (!stop.load(std::memory_order_acquire)) {
        (void)f.endpoint(1).inbox().pop_until(
            std::chrono::steady_clock::now() + 1ms);
      }
    });
    std::vector<std::thread> senders;
    for (int s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        for (int i = 0; i < kPerSender; ++i) {
          f.send(make(s + (s >= 1 ? 1 : 0), 1, static_cast<std::uint64_t>(i)));
        }
      });
    }
    for (auto& t : senders) t.join();
    // Phase 1 (racy): the kill/revive storm ran concurrently with delivery.
    // Whatever split the race produced, the accounting must close EXACTLY —
    // no packet both counted delivered and swallowed by a poisoned inbox.
    const FabricStats storm = quiesced_stats(f);
    stop.store(true, std::memory_order_release);
    chaos_monkey.join();
    drainer.join();
    EXPECT_EQ(storm.packets_sent,
              static_cast<std::uint64_t>(kSenders) * kPerSender)
        << "shards=" << shards;
    EXPECT_EQ(storm.packets_sent,
              storm.packets_delivered + storm.packets_dropped_dead +
                  storm.packets_dropped_chaos)
        << "shards=" << shards;
    // Phase 2 (deterministic): with the endpoint held dead for a whole
    // burst, every one of those packets must book under dropped_dead.
    f.kill(1);
    constexpr int kDeadBurst = 500;
    for (int i = 0; i < kDeadBurst; ++i) {
      f.send(make(0, 1, static_cast<std::uint64_t>(i)));
    }
    const FabricStats dead = quiesced_stats(f);
    EXPECT_EQ(dead.packets_dropped_dead,
              storm.packets_dropped_dead + kDeadBurst)
        << "shards=" << shards;
    EXPECT_EQ(dead.packets_delivered, storm.packets_delivered)
        << "shards=" << shards;
    EXPECT_EQ(dead.packets_sent,
              dead.packets_delivered + dead.packets_dropped_dead +
                  dead.packets_dropped_chaos)
        << "shards=" << shards;
  }
}

TEST(Fabric, InboxBackendParityUnderKillStorm) {
  // The drop-accounting contract is backend-independent: the same concurrent
  // kill/revive storm must close exactly whether endpoint inboxes are the
  // bounded ring (and its capacity backpressure) or the legacy queue.
  for (const InboxKind kind : {InboxKind::kRing, InboxKind::kQueue}) {
    constexpr int kSenders = 3;
    constexpr int kPerSender = 1000;
    Fabric f(kSenders + 1,
             LatencyModel::deterministic(std::chrono::nanoseconds(200),
                                         std::chrono::nanoseconds(0)),
             5, 2, InboxConfig{kind, 32});
    std::atomic<bool> stop{false};
    std::thread chaos_monkey([&] {
      while (!stop.load(std::memory_order_acquire)) {
        f.kill(1);
        std::this_thread::sleep_for(40us);
        f.revive(1);
        std::this_thread::sleep_for(120us);
      }
      f.revive(1);
    });
    std::thread drainer([&] {
      while (!stop.load(std::memory_order_acquire)) {
        (void)f.endpoint(1).inbox().pop_until(
            std::chrono::steady_clock::now() + 1ms);
      }
    });
    std::vector<std::thread> senders;
    for (int s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        for (int i = 0; i < kPerSender; ++i) {
          f.send(make(s + (s >= 1 ? 1 : 0), 1, static_cast<std::uint64_t>(i)));
        }
      });
    }
    for (auto& t : senders) t.join();
    const FabricStats s = quiesced_stats(f);
    stop.store(true, std::memory_order_release);
    chaos_monkey.join();
    drainer.join();
    EXPECT_EQ(s.packets_sent,
              static_cast<std::uint64_t>(kSenders) * kPerSender)
        << "inbox=" << to_string(kind);
    EXPECT_EQ(s.packets_sent, s.packets_delivered + s.packets_dropped_dead +
                                  s.packets_dropped_chaos)
        << "inbox=" << to_string(kind);
  }
}

TEST(Fabric, RecycledPacketsAreNotDoubleCountedAsAllocs) {
  // The packets_recycled accounting invariant: every pool-backed payload is
  // either a fresh allocation or a recycled block, never both and never
  // neither — created + recycled deltas must sum to the payload count, with
  // steady-state traffic recycling nearly everything.
  util::BlockPool::global().trim();
  const std::uint64_t created0 = util::BlockPool::blocks_created();
  const std::uint64_t recycled0 = util::BlockPool::blocks_recycled();
  Fabric f(2, LatencyModel::deterministic(), 1);
  constexpr std::uint64_t kN = 200;
  const util::Bytes payload(512, 0x5A);
  for (std::uint64_t i = 1; i <= kN; ++i) {
    Packet p;
    p.src = 0;
    p.dst = 1;
    p.seq = i;
    p.payload = util::Buffer::copy_of(payload);
    f.send(std::move(p));
    auto got = f.endpoint(1).inbox().pop();
    ASSERT_TRUE(got.has_value());
    // Packet (and its payload block) dies here, feeding the next send.
  }
  const std::uint64_t created = util::BlockPool::blocks_created() - created0;
  const std::uint64_t recycled = util::BlockPool::blocks_recycled() - recycled0;
  EXPECT_EQ(created + recycled, kN);
  EXPECT_LE(created, 4u);  // only the warm-up sends may allocate fresh
}

// --- Backend parity ----------------------------------------------------------

// The drop-accounting invariant is a *Transport* contract, not a Fabric
// implementation detail: the same mixed traffic (normal delivery, a
// mid-burst kill, post-kill sends) must close exactly on both backends.
TEST(TransportInvariant, AccountsEveryPacketOnBothBackends) {
  constexpr int kEndpoints = 4;
  constexpr std::uint64_t kPerChannel = 30;

  const auto drive = [&](auto& send, auto& kill_ep, auto& drain) {
    for (std::uint64_t i = 1; i <= kPerChannel; ++i) {
      for (int dst = 0; dst < kEndpoints; ++dst) {
        send(make((dst + 1) % kEndpoints, dst, i));
      }
    }
    drain();
    kill_ep(1);
    for (std::uint64_t i = 1; i <= kPerChannel; ++i) send(make(0, 1, i));
  };

  // In-process simulated backend.
  {
    Fabric f(kEndpoints, LatencyModel::deterministic(), 1, 2);
    std::function<void(Packet)> send = [&](Packet p) { f.send(std::move(p)); };
    std::function<void(int)> kill_ep = [&](int ep) { f.kill(ep); };
    std::function<void()> drain = [&] {
      for (int ep = 0; ep < kEndpoints; ++ep) {
        for (std::uint64_t i = 0; i < kPerChannel; ++i) {
          ASSERT_TRUE(f.endpoint(ep).inbox().pop().has_value());
        }
      }
    };
    drive(send, kill_ep, drain);
    const FabricStats s = quiesced_stats(f);
    EXPECT_EQ(s.packets_sent, (kEndpoints + 1) * kPerChannel);
    EXPECT_TRUE(s.accounted());
    EXPECT_EQ(s.packets_dropped_dead, kPerChannel);
  }

  // Socket backend: one transport per "process", merged stats.
  {
    char tmpl[] = "/tmp/windar_fab_XXXXXX";
    const std::string dir = ::mkdtemp(tmpl);
    std::vector<std::unique_ptr<SocketTransport>> nodes;
    for (int i = 0; i < kEndpoints; ++i) {
      SocketTransportOptions o;
      o.endpoints = kEndpoints;
      o.self = i;
      o.dir = dir;
      nodes.push_back(std::make_unique<SocketTransport>(o));
    }
    const auto merged = [&] {
      FabricStats s;
      for (const auto& t : nodes) s.merge(t->stats());
      return s;
    };
    std::function<void(Packet)> send = [&](Packet p) {
      nodes[static_cast<std::size_t>(p.src)]->send(std::move(p));
    };
    // Killing a rank in socket mode poisons its hosted inbox (the launcher's
    // SIGKILL analogue) — later arrivals book as dropped_dead on the
    // receiver side.
    std::function<void(int)> kill_ep = [&](int ep) {
      nodes[static_cast<std::size_t>(ep)]->kill(ep);
    };
    std::function<void()> drain = [&] {
      for (int ep = 0; ep < kEndpoints; ++ep) {
        for (std::uint64_t i = 0; i < kPerChannel; ++i) {
          ASSERT_TRUE(nodes[static_cast<std::size_t>(ep)]
                          ->endpoint(ep)
                          .inbox()
                          .pop_until(std::chrono::steady_clock::now() + 10s)
                          .has_value());
        }
      }
    };
    drive(send, kill_ep, drain);
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    FabricStats s = merged();
    while (std::chrono::steady_clock::now() < deadline &&
           !(s.accounted() &&
             s.packets_sent == (kEndpoints + 1) * kPerChannel)) {
      std::this_thread::sleep_for(500us);
      s = merged();
    }
    EXPECT_EQ(s.packets_sent, (kEndpoints + 1) * kPerChannel);
    EXPECT_TRUE(s.accounted());
    EXPECT_EQ(s.packets_dropped_dead, kPerChannel);
    EXPECT_EQ(s.frame_errors, 0u);
    for (auto& t : nodes) t->shutdown();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

}  // namespace
}  // namespace windar::net
