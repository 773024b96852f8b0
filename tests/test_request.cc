// Tests for probe and the non-blocking receive requests, on both
// transports, including overlap patterns and recovery interaction.
#include <gtest/gtest.h>

#include "mp/request.h"
#include "mp/runtime.h"
#include "windar/runtime.h"

namespace windar::mp {
namespace {

TEST(Probe, RawTransportSeesArrivedMessages) {
  run_raw(2, [](Comm& c) {
    if (c.rank() == 0) {
      send_value(c, 1, 7, 42);
    } else {
      // Spin until the message lands; probe never blocks.
      while (!c.probe(0, 7)) util::coop_yield();
      EXPECT_TRUE(c.probe());                 // wildcard also matches
      EXPECT_FALSE(c.probe(0, 99));           // wrong tag
      EXPECT_EQ(recv_value<int>(c, 0, 7), 42);
      EXPECT_FALSE(c.probe());                // consumed
    }
  });
}

TEST(Probe, FtTransportRespectsDeliveryGate) {
  ft::JobConfig cfg;
  cfg.n = 2;
  cfg.latency = net::LatencyModel::turbulent();
  ft::run_job(cfg, [](ft::Ctx& ctx) {
    if (ctx.rank() == 0) {
      send_value(ctx, 1, 3, 9);
    } else {
      while (!ctx.probe(0, 3)) util::coop_yield();
      EXPECT_EQ(recv_value<int>(ctx, 0, 3), 9);
      EXPECT_FALSE(ctx.probe(0, 3));
    }
  });
}

TEST(Request, TestThenWait) {
  run_raw(2, [](Comm& c) {
    if (c.rank() == 0) {
      util::coop_sleep_for(std::chrono::milliseconds(5));
      send_value(c, 1, 1, 5);
    } else {
      RecvRequest req = irecv(c, 0, 1);
      // May need several polls while the message is in flight.
      while (!req.test()) util::coop_yield();
      Message m = req.wait();
      EXPECT_EQ(util::from_bytes<int>(m.payload), 5);
      EXPECT_TRUE(req.completed());
    }
  });
}

TEST(Request, WaitWithoutTestBlocks) {
  run_raw(2, [](Comm& c) {
    if (c.rank() == 0) {
      send_value(c, 1, 1, 11);
    } else {
      RecvRequest req = irecv(c, 0, 1);
      EXPECT_EQ(util::from_bytes<int>(req.wait().payload), 11);
    }
  });
}

TEST(Request, WaitAnyReturnsFirstReady) {
  run_raw(3, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<RecvRequest> reqs;
      reqs.push_back(irecv(c, 1, 1));
      reqs.push_back(irecv(c, 2, 2));
      int sum = 0;
      for (int k = 0; k < 2; ++k) {
        const std::size_t i = wait_any(reqs);
        sum += util::from_bytes<int>(reqs[i].wait().payload);
      }
      EXPECT_EQ(sum, 30);
    } else {
      send_value(c, 0, c.rank(), c.rank() * 10);
    }
  });
}

TEST(Request, OverlapComputeWithHaloExchange) {
  // The MPI overlap idiom: post irecv, do local work, then wait — on the
  // recovery layer with a fault injected.
  ft::JobConfig cfg;
  cfg.n = 2;
  cfg.latency = net::LatencyModel::turbulent();
  cfg.restart_delay_ms = 4;
  cfg.chaos = {ft::kill_on_delivery(1, 15)};  // iteration 15 of 30
  auto result = ft::run_job(cfg, [](ft::Ctx& ctx) {
    const int peer = 1 - ctx.rank();
    double acc = 0;
    int start = 0;
    if (ctx.restored()) {
      util::ByteReader r(*ctx.restored());
      start = r.i32();
      acc = r.f64();
    }
    for (int i = start; i < 30; ++i) {
      if (i > 0 && i % 8 == 0) {
        util::ByteWriter w;
        w.i32(i);
        w.f64(acc);
        ctx.checkpoint(w.view());
      }
      send_value(ctx, peer, i, static_cast<double>(i + ctx.rank()));
      RecvRequest req = irecv(ctx, peer, i);
      // "Compute" while the halo is in flight.
      volatile double sink = 0;
      for (int k = 0; k < 1000; ++k) sink = sink + k * 1e-9;
      acc += util::from_bytes<double>(req.wait().payload);
    }
    // Identical on both ranks' trajectories regardless of the fault.
    double expect = 0;
    for (int i = 0; i < 30; ++i) expect += i + (1 - ctx.rank());
    EXPECT_DOUBLE_EQ(acc, expect);
  });
  EXPECT_EQ(result.total.recoveries, 1u);
}

}  // namespace
}  // namespace windar::mp
