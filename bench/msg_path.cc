// End-to-end message-path benchmark: app send -> sender log -> fabric ->
// delivery, on a fault-free pairwise stream.  Measures throughput and — via
// a counting global operator new — heap allocations on the whole path, the
// number the zero-copy buffer refactor is meant to lower: the wire packet
// and the sender-log entry must share one payload buffer instead of each
// materialising its own copy.
//
// Even ranks stream `msgs` payloads to rank+1; odd ranks consume them and
// checkpoint every `ckpt-every` deliveries so CHECKPOINT_ADVANCE keeps the
// sender log bounded (the steady-state shape of a long-running job).
//
//   ./msg_path [--sizes=64,4096,65536] [--msgs=0] [--protocol=tdi]
//              [--ranks=2] [--shards=0] [--csv]
//   ./msg_path --contend [--ranks=8] [--sizes=4096] [--shards=1,4]
//   ./msg_path --transport=socket [--ranks=2] [--sizes=64,4096,65536]
//
// --msgs=0 picks a per-size count targeting ~32 MB of payload per run.
// --shards selects the fabric scheduler shard count (0: default).
// Every row runs under a 60 s watchdog: a row that outlives it prints
// "FAIL msg_path <row parameters> (hang after ...)" and exits 3.
//
// --transport=socket is the A8 experiment: the same pairwise streams pushed
// through net::SocketTransport (real AF_UNIX sockets, length-prefixed
// frames) with every endpoint hosted in this process so the global alloc
// counter sees both sides of the wire.  The zero-copy claim is the
// "alloc/payload" column: the sender writes the shared payload buffer
// straight into sendmsg scatter-gather, so steady-state heap traffic is the
// receiver's single reassembly block — about 1.0 payloads worth of
// allocation per message, not the 2-3x a copying send path would show.
//
// --contend is the interconnect-scalability scenario: ranks/2 concurrent
// pairwise streams hammer the fabric through the raw transport (no
// recovery-layer work), once per requested shard count, reporting msgs/s
// and the speedup over the first (baseline) shard count.  This is the
// A7 experiment: the fabric must not be the bottleneck the causal-delivery
// overhead measurements end up measuring.
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <thread>

#include "bench/common.h"
#include "mp/runtime.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "util/clock.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace windar;
using namespace windar::bench;

namespace {

// Wall-clock bound per row: a healthy row takes about a second, so a row
// still running after a minute has hung or collapsed.
constexpr double kRowBoundMs = 60'000;

std::string row_label(const char* mode, int size, int msgs, int ranks) {
  return std::string("msg_path mode=") + mode +
         " payload_b=" + std::to_string(size) +
         " msgs=" + std::to_string(msgs) + " ranks=" + std::to_string(ranks);
}

// Multi-sender contention sweep over shard counts: ranks/2 pairwise streams
// (rank k blasts rank k + ranks/2, so consecutive destination ids spread
// across every shard) through the raw transport — nearly all CPU is fabric
// path (send, shard scheduler, inbox) and scheduler serialization is what
// the sweep exposes.
void run_contention(int ranks, const std::vector<int>& sizes,
                    const std::vector<int>& shard_counts, int msgs_opt,
                    bool csv, JsonRows* json, Watchdog& watchdog) {
  util::Table table({"payload B", "shards", "msgs", "wall ms", "msgs/s",
                     "MB/s", "vs first"});
  for (int size : sizes) {
    const int msgs =
        msgs_opt > 0
            ? msgs_opt
            : std::max(2000, static_cast<int>((32u << 20) /
                                              static_cast<unsigned>(size) /
                                              static_cast<unsigned>(
                                                  std::max(1, ranks / 2))));
    const util::Bytes payload(static_cast<std::size_t>(size), 0x5A);
    double first_rate = 0;
    for (int shards : shard_counts) {
      watchdog.arm(row_label("contend", size, msgs, ranks) +
                   " shards=" + std::to_string(shards));
      const double t0 = util::now_ms();
      mp::run_raw(
          ranks,
          [&](mp::Comm& comm) {
            const int r = comm.rank();
            const int half = comm.size() / 2;
            if (r < half) {
              for (int i = 0; i < msgs; ++i) comm.send(r + half, 0, payload);
            } else {
              for (int i = 0; i < msgs; ++i) {
                const mp::Message m = comm.recv(r - half, 0);
                WINDAR_CHECK_EQ(m.payload.size(), payload.size());
              }
            }
          },
          net::LatencyModel::deterministic(std::chrono::nanoseconds(0),
                                           std::chrono::nanoseconds(0)),
          /*seed=*/1, shards);
      const double wall_ms = util::now_ms() - t0;
      watchdog.disarm();
      const double total_msgs = static_cast<double>(msgs) * (ranks / 2);
      const double rate = total_msgs / (wall_ms / 1e3);
      if (first_rate == 0) first_rate = rate;
      table.row({std::to_string(size), std::to_string(shards),
                 std::to_string(static_cast<long long>(total_msgs)),
                 fmt(wall_ms, 1), fmt(rate, 0), fmt(rate * size / 1e6, 1),
                 fmt(rate / first_rate, 2) + "x"});
      if (json) {
        json->field("mode", std::string("contend"))
            .field("payload_b", size)
            .field("shards", shards)
            .field("ranks", ranks)
            .field("msgs", static_cast<std::uint64_t>(total_msgs))
            .field("wall_ms", wall_ms)
            .field("msgs_per_s", rate)
            .field("mb_per_s", rate * size / 1e6)
            .field("speedup_vs_first", rate / first_rate);
        json->end_row();
      }
    }
  }
  table.print("msg_path --contend — " + std::to_string(ranks / 2) +
              " concurrent streams, raw transport, by fabric shards");
  if (csv) std::fputs(table.csv().c_str(), stdout);
}

// A8: pairwise streams over the real socket transport.  All endpoints live
// in this process (the loopback mesh from tests/test_transport.cc) so the
// counting operator new observes the full path: send -> per-peer writer ->
// sendmsg -> poll/read -> frame reassembly -> inbox pop.  One immutable
// payload buffer is shared by every send; whatever the wire adds per
// message shows up as allocs.
void run_socket(int ranks, const std::vector<int>& sizes, int msgs_opt,
                bool csv, JsonRows* json, Watchdog& watchdog) {
  WINDAR_CHECK(ranks >= 2 && ranks % 2 == 0) << "--ranks must be even";
  util::Table table({"payload B", "msgs", "wall ms", "msgs/s", "MB/s",
                     "allocs/msg", "alloc B/msg", "alloc/payload"});
  for (int size : sizes) {
    const int half = ranks / 2;
    const int msgs =
        msgs_opt > 0
            ? msgs_opt
            : std::max(2000, static_cast<int>((32u << 20) /
                                              static_cast<unsigned>(size) /
                                              static_cast<unsigned>(half)));
    watchdog.arm(row_label("socket", size, msgs, ranks));
    char tmpl[] = "/tmp/windar_msgpath_XXXXXX";
    const std::string dir = ::mkdtemp(tmpl);
    std::vector<std::unique_ptr<net::SocketTransport>> nodes;
    for (int i = 0; i < ranks; ++i) {
      net::SocketTransportOptions o;
      o.endpoints = ranks;
      o.self = i;
      o.dir = dir;
      nodes.push_back(std::make_unique<net::SocketTransport>(o));
    }
    const util::Buffer payload(util::Bytes(static_cast<std::size_t>(size),
                                           0x5A));

    const std::uint64_t allocs0 = g_allocs.load();
    const std::uint64_t bytes0 = g_alloc_bytes.load();
    const double t0 = util::now_ms();
    std::vector<std::thread> threads;
    for (int r = 0; r < half; ++r) {
      threads.emplace_back([&, r] {
        for (int i = 0; i < msgs; ++i) {
          nodes[static_cast<std::size_t>(r)]->send(
              net::make_packet(r, r + half, 1, 0,
                               static_cast<std::uint64_t>(i), {}, payload));
        }
      });
      threads.emplace_back([&, r] {
        auto& inbox =
            nodes[static_cast<std::size_t>(r + half)]->endpoint(r + half)
                .inbox();
        for (int i = 0; i < msgs; ++i) {
          auto p = inbox.pop();
          WINDAR_CHECK(p.has_value()) << "inbox poisoned mid-stream";
          WINDAR_CHECK_EQ(p->payload.size(), payload.size());
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall_ms = util::now_ms() - t0;
    watchdog.disarm();
    const double total = static_cast<double>(msgs) * half;
    const double allocs_per_msg =
        static_cast<double>(g_allocs.load() - allocs0) / total;
    const double alloc_bytes_per_msg =
        static_cast<double>(g_alloc_bytes.load() - bytes0) / total;
    const double rate = total / (wall_ms / 1e3);
    table.row({std::to_string(size),
               std::to_string(static_cast<long long>(total)), fmt(wall_ms, 1),
               fmt(rate, 0), fmt(rate * size / 1e6, 1), fmt(allocs_per_msg),
               fmt(alloc_bytes_per_msg, 0),
               fmt(alloc_bytes_per_msg / size, 2)});
    if (json) {
      json->field("mode", std::string("socket"))
          .field("payload_b", size)
          .field("ranks", ranks)
          .field("msgs", static_cast<std::uint64_t>(total))
          .field("wall_ms", wall_ms)
          .field("msgs_per_s", rate)
          .field("mb_per_s", rate * size / 1e6)
          .field("allocs_per_msg", allocs_per_msg)
          .field("alloc_bytes_per_msg", alloc_bytes_per_msg);
      json->end_row();
    }
    for (auto& t : nodes) t->shutdown();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  table.print("msg_path --transport=socket — AF_UNIX pairwise streams, " +
              std::to_string(ranks / 2) + " stream(s), both sides counted");
  if (csv) std::fputs(table.csv().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const auto sizes = opts.int_list("sizes", {64, 4096, 65536}, "payload sizes");
  const int msgs_opt = static_cast<int>(
      opts.integer("msgs", 0, "messages per sender (0: auto)"));
  const std::string proto_s =
      opts.str("protocol", "tdi", "tdi | tdi-s | tdi-d | tag | tel | pes");
  const int ranks = static_cast<int>(
      opts.integer("ranks", 2, "ranks (even; pairwise streams)"));
  const int ckpt_every = static_cast<int>(opts.integer(
      "ckpt-every", 256, "receiver checkpoint interval (msgs)"));
  const int shards = static_cast<int>(opts.integer(
      "shards", 0, "fabric scheduler shards (0: default)"));
  const bool contend = opts.flag(
      "contend", false, "multi-sender contention sweep over --shard-sweep");
  const auto shard_sweep =
      opts.int_list("shard-sweep", {1, 4}, "shard counts for --contend");
  const bool csv = opts.flag("csv", false, "also print CSV");
  const std::string json_path = opts.str(
      "json", "", "also write rows as a JSON array to this path");
  const std::string transport_s = opts.str(
      "transport", to_string(net::default_transport()),
      "sim | socket (raw AF_UNIX streams, in-process mesh)");
  opts.finish();
  const ft::ProtocolKind protocol = protocol_or_die(proto_s);
  net::TransportKind transport;
  WINDAR_CHECK(net::parse_transport(transport_s, &transport))
      << "unknown transport '" << transport_s << "'";

  JsonRows json_rows;
  JsonRows* const json = json_path.empty() ? nullptr : &json_rows;
  const auto write_json = [&] {
    if (json && !json_rows.write(json_path)) {
      std::fprintf(stderr, "msg_path: cannot write %s\n", json_path.c_str());
      return 1;
    }
    return 0;
  };

  Watchdog watchdog(kRowBoundMs);
  if (transport == net::TransportKind::kSocket) {
    run_socket(ranks, sizes, msgs_opt, csv, json, watchdog);
    return write_json();
  }
  if (contend) {
    run_contention(ranks, sizes, shard_sweep, msgs_opt, csv, json, watchdog);
    return write_json();
  }

  util::Table table({"payload B", "msgs", "wall ms", "msgs/s", "MB/s",
                     "allocs/msg", "alloc B/msg", "log copies B/msg"});

  for (int size : sizes) {
    const int msgs =
        msgs_opt > 0
            ? msgs_opt
            : std::max(2000, static_cast<int>((32u << 20) /
                                              static_cast<unsigned>(size)));
    ft::JobConfig cfg;
    cfg.n = ranks;
    cfg.protocol = protocol;
    cfg.mode = ft::SendMode::kNonBlocking;
    cfg.fabric_shards = shards;
    // Near-zero link latency: the wire is not the subject, the CPU path is.
    cfg.latency = net::LatencyModel::deterministic(std::chrono::nanoseconds(0),
                                                   std::chrono::nanoseconds(0));
    const util::Bytes payload(static_cast<std::size_t>(size), 0x5A);

    watchdog.arm(row_label("sim", size, msgs, ranks) +
                 " protocol=" + to_string(protocol));
    const std::uint64_t allocs0 = g_allocs.load();
    const std::uint64_t bytes0 = g_alloc_bytes.load();
    const ft::JobResult res = ft::run_job(cfg, [&](ft::Ctx& ctx) {
      if (ctx.rank() % 2 == 0) {
        for (int i = 0; i < msgs; ++i) ctx.send(ctx.rank() + 1, 0, payload);
      } else {
        for (int i = 0; i < msgs; ++i) {
          const mp::Message m = ctx.recv(ctx.rank() - 1, 0);
          WINDAR_CHECK_EQ(m.payload.size(), payload.size());
          if ((i + 1) % ckpt_every == 0) ctx.checkpoint(util::to_bytes(i));
        }
      }
    });
    watchdog.disarm();
    const double allocs_per_msg =
        static_cast<double>(g_allocs.load() - allocs0) /
        static_cast<double>(res.total.app_sent);
    const double alloc_bytes_per_msg =
        static_cast<double>(g_alloc_bytes.load() - bytes0) /
        static_cast<double>(res.total.app_sent);
    const double msgs_per_s =
        static_cast<double>(res.total.app_sent) / (res.wall_ms / 1e3);
    const double mb_per_s = msgs_per_s * size / 1e6;
    const double copied_per_msg =
        static_cast<double>(res.total.bytes_copied) /
        static_cast<double>(res.total.app_sent);
    table.row({std::to_string(size), std::to_string(res.total.app_sent),
               fmt(res.wall_ms, 1), fmt(msgs_per_s, 0), fmt(mb_per_s, 1),
               fmt(allocs_per_msg), fmt(alloc_bytes_per_msg, 0),
               fmt(copied_per_msg, 0)});
    if (json) {
      json->field("mode", std::string("sim"))
          .field("protocol", to_string(protocol))
          .field("inbox",
                 std::string(net::to_string(
                     net::resolve_inbox_config(ranks).kind)))
          .field("payload_b", size)
          .field("ranks", ranks)
          .field("msgs", res.total.app_sent)
          .field("wall_ms", res.wall_ms)
          .field("msgs_per_s", msgs_per_s)
          .field("mb_per_s", mb_per_s)
          .field("allocs_per_msg", allocs_per_msg)
          .field("alloc_bytes_per_msg", alloc_bytes_per_msg)
          .field("log_copies_b_per_msg", copied_per_msg)
          .field("packets_recycled", res.total.packets_recycled);
      json->end_row();
    }
  }

  table.print("msg_path — send->deliver throughput and allocations (" +
              to_string(protocol) + ", " + std::to_string(ranks) + " ranks)");
  if (csv) std::fputs(table.csv().c_str(), stdout);
  return write_json();
}
