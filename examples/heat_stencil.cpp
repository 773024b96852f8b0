// Domain example: a 2-D heat-diffusion solver with halo exchange, surviving
// a node crash.
//
// This is the classic five-point Jacobi iteration decomposed over a 1-D strip
// topology — the same communication skeleton as countless production HPC
// codes.  Each rank owns a strip of rows, exchanges boundary rows with its
// neighbours every iteration, and checkpoints periodically through the
// recovery layer.  The example prints the converged field energy with and
// without an injected failure; they must match exactly.
//
//   ./heat_stencil [--ranks=4] [--nx=96] [--ny=64] [--iters=60]
//                  [--protocol=tdi|tag|tel]
#include <atomic>
#include <cmath>
#include <cstdio>
#include <vector>

#include "mp/collectives.h"
#include "util/options.h"
#include "windar/runtime.h"

using namespace windar;

namespace {

constexpr int kTagUp = 1;
constexpr int kTagDown = 2;

struct HeatState {
  int iter = 0;
  std::uint32_t coll_seq = 0;
  std::vector<double> grid;  // (rows + 2 halo) x nx

  util::Bytes serialize() const {
    util::ByteWriter w;
    w.i32(iter);
    w.u32(coll_seq);
    w.u32(static_cast<std::uint32_t>(grid.size()));
    for (double v : grid) w.f64(v);
    return w.take();
  }
  static HeatState deserialize(const util::Bytes& data) {
    util::ByteReader r(data);
    HeatState s;
    s.iter = r.i32();
    s.coll_seq = r.u32();
    s.grid.resize(r.u32());
    for (auto& v : s.grid) v = r.f64();
    return s;
  }
};

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const int ranks = static_cast<int>(opts.integer("ranks", 4, "process count"));
  const int nx = static_cast<int>(opts.integer("nx", 96, "columns"));
  const int ny = static_cast<int>(opts.integer("ny", 64, "rows (global)"));
  const int iters = static_cast<int>(opts.integer("iters", 60, "iterations"));
  const std::string proto_name = opts.str("protocol", "tdi", "tdi | tag | tel");
  opts.finish();

  if (ranks < 2) {
    std::printf("need at least 2 ranks (the crashed rank is killed on a "
                "halo delivery)\n");
    return 2;
  }

  ft::JobConfig cfg;
  cfg.n = ranks;
  cfg.protocol = proto_name == "tag"   ? ft::ProtocolKind::kTag
                 : proto_name == "tel" ? ft::ProtocolKind::kTel
                                       : ft::ProtocolKind::kTdi;
  cfg.latency = net::LatencyModel::turbulent();

  auto energy_out = std::make_shared<std::atomic<double>>(0.0);

  auto app = [&](ft::Ctx& ctx) {
    const int n = ctx.size();
    const int me = ctx.rank();
    const int rows = ny / n + (me < ny % n ? 1 : 0);
    const int row0 = me * (ny / n) + std::min(me, ny % n);
    const int up = me > 0 ? me - 1 : -1;
    const int down = me + 1 < n ? me + 1 : -1;

    mp::Coll coll(ctx);
    HeatState st;
    if (ctx.restored()) {
      st = HeatState::deserialize(*ctx.restored());
      coll.reset_seq(st.coll_seq);
    } else {
      st.grid.assign(static_cast<std::size_t>(rows + 2) * nx, 0.0);
      // Hot spot in the global middle, cold boundaries.
      for (int j = 0; j < rows; ++j) {
        for (int i = 0; i < nx; ++i) {
          const int gj = row0 + j;
          const double d = std::hypot(gj - ny / 2.0, i - nx / 2.0);
          st.grid[static_cast<std::size_t>(j + 1) * nx + i] =
              d < 8.0 ? 100.0 : 0.0;
        }
      }
    }
    auto row = [&](int j) { return st.grid.data() + static_cast<std::size_t>(j) * nx; };

    std::vector<double> next(st.grid.size());
    for (int it = st.iter; it < iters; ++it) {
      if (it > 0 && it % 15 == 0) {
        st.iter = it;
        st.coll_seq = coll.seq();
        ctx.checkpoint(st.serialize());
      }
      // Halo exchange: send my first/last interior rows, receive into halos.
      if (up >= 0) mp::send_vec<double>(ctx, up, kTagUp, {row(1), static_cast<std::size_t>(nx)});
      if (down >= 0) mp::send_vec<double>(ctx, down, kTagDown, {row(rows), static_cast<std::size_t>(nx)});
      if (down >= 0) {
        auto h = mp::recv_vec<double>(ctx, down, kTagUp);
        std::copy(h.begin(), h.end(), row(rows + 1));
      }
      if (up >= 0) {
        auto h = mp::recv_vec<double>(ctx, up, kTagDown);
        std::copy(h.begin(), h.end(), row(0));
      }
      // Jacobi update on interior points.
      std::copy(st.grid.begin(), st.grid.end(), next.begin());
      for (int j = 1; j <= rows; ++j) {
        const bool top_bc = (up < 0 && j == 1);
        const bool bot_bc = (down < 0 && j == rows);
        for (int i = 1; i < nx - 1; ++i) {
          if (top_bc || bot_bc) continue;  // Dirichlet boundary rows
          next[static_cast<std::size_t>(j) * nx + i] =
              0.25 * (row(j)[i - 1] + row(j)[i + 1] + row(j - 1)[i] +
                      row(j + 1)[i]);
        }
      }
      st.grid.swap(next);
    }

    double local = 0.0;
    for (int j = 1; j <= rows; ++j) {
      for (int i = 0; i < nx; ++i) local += row(j)[i];
    }
    const double contrib[1] = {local};
    const double energy = coll.allreduce_sum(contrib)[0];
    if (me == 0) energy_out->store(energy);
  };

  auto clean = ft::run_job(cfg, app);
  const double expected = energy_out->load();
  std::printf("failure-free : energy=%.6f wall=%.1fms\n", expected,
              clean.wall_ms);

  // Crash rank 1 halfway through its failure-free deliveries.
  cfg.chaos = {ft::kill_at_fraction(1, 0.5, clean.per_rank[1].app_delivered)};
  energy_out->store(-1);
  auto faulty = ft::run_job(cfg, app);
  std::printf("with fault   : energy=%.6f wall=%.1fms recoveries=%llu\n",
              energy_out->load(), faulty.wall_ms,
              static_cast<unsigned long long>(faulty.total.recoveries));
  if (energy_out->load() != expected) {
    std::printf("MISMATCH!\n");
    return 1;
  }
  if (faulty.total.recoveries != 1) {
    std::printf("FAIL: the kill did not produce exactly one recovery\n");
    return 1;
  }
  std::printf("OK: identical energy after crash+recovery\n");
  return 0;
}
