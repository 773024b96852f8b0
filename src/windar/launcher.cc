#include "windar/launcher.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "net/socket_transport.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/clock.h"
#include "windar/event_logger.h"
#include "windar/process.h"

namespace windar::ft {

namespace {

// Control-plane packet kinds (their own transport, so they never meet the
// windar Kind space or Process::dispatch).
constexpr std::uint16_t kJoin = 1;
constexpr std::uint16_t kGo = 2;
constexpr std::uint16_t kDone = 3;
constexpr std::uint16_t kAllDone = 4;
constexpr std::uint16_t kKillReq = 5;
constexpr std::uint16_t kBye = 6;

constexpr std::uint64_t kDigestMod = 1000000007ull;

bool uses_event_logger(ProtocolKind p) {
  return p == ProtocolKind::kTel || p == ProtocolKind::kPes;
}

// Lowercase argv tokens for ProtocolKind / SendMode.
const char* protocol_token(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kTdi: return "tdi";
    case ProtocolKind::kTag: return "tag";
    case ProtocolKind::kTel: return "tel";
    case ProtocolKind::kTdiSparse: return "tdi-s";
    case ProtocolKind::kTdiDelta: return "tdi-d";
    case ProtocolKind::kPes: return "pes";
  }
  return "tdi";
}

std::vector<std::uint64_t> split_u64(const std::string& s, char sep) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(sep, pos);
    if (next == std::string::npos) next = s.size();
    out.push_back(std::strtoull(s.substr(pos, next - pos).c_str(), nullptr,
                                10));
    pos = next + 1;
  }
  return out;
}

/// Identity of a schedule entry for done-marking: everything but `target`
/// (the fired copy has it resolved to a concrete endpoint) and `delay`.
bool same_event(const net::ChaosEvent& a, const net::ChaosEvent& b) {
  return a.when == b.when && a.action == b.action &&
         a.endpoint == b.endpoint && a.kind == b.kind && a.nth == b.nth &&
         a.revive_after_packets == b.revive_after_packets &&
         a.repeat == b.repeat;
}

net::Packet ctrl_packet(int src, int dst, std::uint16_t kind,
                        std::uint64_t seq, util::Buffer payload = {}) {
  return net::make_packet(src, dst, kind, 0, seq, {}, std::move(payload));
}

}  // namespace

// ---------------------------------------------------------------------------
// Chaos spec codec
// ---------------------------------------------------------------------------

std::string encode_chaos(const std::vector<net::ChaosEvent>& events) {
  std::string out;
  for (const auto& ev : events) {
    if (!out.empty()) out += ';';
    out += std::to_string(static_cast<int>(ev.when)) + ',' +
           std::to_string(static_cast<int>(ev.action)) + ',' +
           std::to_string(ev.endpoint) + ',' + std::to_string(ev.kind) +
           ',' + std::to_string(ev.nth) + ',' + std::to_string(ev.target) +
           ',' + std::to_string(ev.delay.count()) + ',' +
           std::to_string(ev.revive_after_packets) + ',' +
           std::to_string(ev.repeat ? 1 : 0);
  }
  return out;
}

std::vector<net::ChaosEvent> decode_chaos(const std::string& spec) {
  std::vector<net::ChaosEvent> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t next = spec.find(';', pos);
    if (next == std::string::npos) next = spec.size();
    const std::string rec = spec.substr(pos, next - pos);
    pos = next + 1;
    if (rec.empty()) continue;
    // Fields are comma-separated; `target` may be negative.
    std::vector<long long> f;
    std::size_t p = 0;
    while (p < rec.size()) {
      std::size_t q = rec.find(',', p);
      if (q == std::string::npos) q = rec.size();
      f.push_back(std::strtoll(rec.substr(p, q - p).c_str(), nullptr, 10));
      p = q + 1;
    }
    WINDAR_CHECK_EQ(f.size(), 9u) << "bad chaos record '" << rec << "'";
    net::ChaosEvent ev;
    ev.when = static_cast<net::ChaosEvent::When>(f[0]);
    ev.action = static_cast<net::ChaosEvent::Action>(f[1]);
    ev.endpoint = static_cast<int>(f[2]);
    ev.kind = static_cast<std::uint16_t>(f[3]);
    ev.nth = static_cast<std::uint64_t>(f[4]);
    ev.target = static_cast<int>(f[5]);
    ev.delay = std::chrono::microseconds(f[6]);
    ev.revive_after_packets = static_cast<std::uint64_t>(f[7]);
    ev.repeat = f[8] != 0;
    out.push_back(ev);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

bool WorkerConfig::is_worker_invocation(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--windar-rank=", 14) == 0) return true;
  }
  return false;
}

WorkerConfig WorkerConfig::parse(int argc, char** argv) {
  WorkerConfig cfg;
  cfg.app_args.push_back(argc > 0 ? argv[0] : "worker");
  std::string chaos_spec, chaos_done;
  const auto val = [](const std::string& arg, const char* flag,
                      std::string* out) {
    const std::size_t len = std::strlen(flag);
    if (arg.compare(0, len, flag) != 0) return false;
    *out = arg.substr(len);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (val(a, "--windar-rank=", &v)) {
      cfg.rank = std::atoi(v.c_str());
    } else if (val(a, "--windar-n=", &v)) {
      cfg.n = std::atoi(v.c_str());
    } else if (val(a, "--windar-dir=", &v)) {
      cfg.dir = v;
    } else if (val(a, "--windar-protocol=", &v)) {
      const auto kind = parse_protocol(v);
      WINDAR_CHECK(kind) << "unknown protocol '" << v << "'";
      cfg.protocol = *kind;
    } else if (val(a, "--windar-mode=", &v)) {
      cfg.mode = v == "blocking" ? SendMode::kBlocking
                                 : SendMode::kNonBlocking;
    } else if (val(a, "--windar-incarnation=", &v)) {
      cfg.incarnation = static_cast<std::uint32_t>(std::atoi(v.c_str()));
    } else if (val(a, "--windar-recovering=", &v)) {
      cfg.recovering = v == "1";
    } else if (val(a, "--windar-seed=", &v)) {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (val(a, "--windar-eager=", &v)) {
      cfg.eager_threshold = std::strtoull(v.c_str(), nullptr, 10);
    } else if (val(a, "--windar-logger-shards=", &v)) {
      cfg.logger_shards = std::atoi(v.c_str());
    } else if (val(a, "--windar-retry-ms=", &v)) {
      cfg.rollback_retry = std::chrono::milliseconds(std::atoi(v.c_str()));
    } else if (val(a, "--windar-retry-cap-ms=", &v)) {
      cfg.rollback_retry_cap =
          std::chrono::milliseconds(std::atoi(v.c_str()));
    } else if (val(a, "--windar-timeout-ms=", &v)) {
      cfg.timeout_ms = std::atof(v.c_str());
    } else if (val(a, "--windar-chaos=", &v)) {
      chaos_spec = v;
    } else if (val(a, "--windar-chaos-done=", &v)) {
      chaos_done = v;
    } else if (a.compare(0, 9, "--windar-") == 0) {
      WINDAR_CHECK(false) << "unknown worker flag " << a;
    } else {
      cfg.app_args.push_back(a);
    }
  }
  // Arm the schedule minus the one-shot kills that already fired in earlier
  // incarnations: a fresh process re-counting a fired delivery-keyed kill
  // would crash every incarnation at the same point, forever.
  auto events = decode_chaos(chaos_spec);
  std::vector<bool> drop(events.size(), false);
  for (std::uint64_t idx : split_u64(chaos_done, ',')) {
    if (idx < drop.size()) drop[idx] = true;
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!drop[i]) cfg.chaos.push_back(events[i]);
  }
  WINDAR_CHECK_GT(cfg.n, 0) << "worker without --windar-n";
  WINDAR_CHECK(cfg.rank >= 0 && cfg.rank < cfg.n) << "bad worker rank";
  WINDAR_CHECK(!cfg.dir.empty()) << "worker without --windar-dir";
  return cfg;
}

int run_worker(const WorkerConfig& cfg, const WorkerFn& fn) {
  const bool uses_logger = uses_event_logger(cfg.protocol);
  const int logger_shards = uses_logger ? std::max(1, cfg.logger_shards) : 0;
  const int launcher_ep = cfg.n;

  // Suicide watchdog: if the launcher died or the job wedged, don't linger
  // as an orphan serving a job nobody is running.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            static_cast<long>(cfg.timeout_ms));
  auto finished = std::make_shared<std::atomic<bool>>(false);
  std::thread([deadline, finished, rank = cfg.rank] {
    while (!finished->load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= deadline) {
        std::fprintf(stderr, "[windar worker %d] watchdog timeout\n", rank);
        std::_Exit(43);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }).detach();

  net::SocketTransportOptions dopt;
  dopt.endpoints = cfg.n + logger_shards;
  dopt.self = cfg.rank;
  dopt.dir = cfg.dir + "/data";
  dopt.incarnation = cfg.incarnation;
  net::SocketTransport data(dopt);

  net::SocketTransportOptions copt;
  copt.endpoints = cfg.n + 1;
  copt.self = cfg.rank;
  copt.dir = cfg.dir + "/ctrl";
  copt.incarnation = cfg.incarnation;
  // Control plane stays on the unbounded queue: a barrier or exit message
  // must never block behind data-plane ring backpressure.
  copt.inbox = net::InboxConfig{net::InboxKind::kQueue, 0};
  net::SocketTransport ctrl(copt);

  CheckpointStore store(cfg.dir + "/ckpt");

  // Every kill event in a generated plan fires inside the victim's own
  // process (kSend matches at the sender, kDeliver at the receiver), so the
  // handler reports the fired event, flushes, and takes the SIGKILL itself —
  // the crash lands at the exact protocol point the event names.
  net::FaultSchedule chaos(cfg.chaos);
  if (!cfg.chaos.empty()) {
    chaos.set_kill_handler([&](const net::ChaosEvent& ev) {
      util::ByteWriter w;
      w.i32(ev.target);
      w.u64(ev.revive_after_packets);
      w.str(encode_chaos({ev}));
      ctrl.send(ctrl_packet(cfg.rank, launcher_ep, kKillReq,
                            cfg.incarnation, util::take_buffer(w)));
      (void)ctrl.flush(std::chrono::milliseconds(200));
      if (ev.target < 0 || ev.target == cfg.rank) {
        ::kill(::getpid(), SIGKILL);
      }
    });
    data.set_chaos(&chaos);
  }

  // JOIN, then hold at the barrier: our data listener is already bound (the
  // transport constructor did it), so peers released by GO can reach us even
  // if this process is slow off the mark.
  auto& inbox = ctrl.endpoint(cfg.rank).inbox();
  ctrl.send(ctrl_packet(cfg.rank, launcher_ep, kJoin, cfg.incarnation));
  for (;;) {
    auto m = inbox.pop_until(std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(100));
    if (m && m->kind == kGo) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "[windar worker %d] no GO from launcher\n",
                   cfg.rank);
      finished->store(true, std::memory_order_release);
      return 40;
    }
  }

  ProcessParams pp;
  pp.rank = cfg.rank;
  pp.n = cfg.n;
  pp.protocol = cfg.protocol;
  pp.mode = cfg.mode;
  pp.eager_threshold = cfg.eager_threshold;
  pp.rollback_retry = cfg.rollback_retry;
  pp.rollback_retry_cap = cfg.rollback_retry_cap;
  pp.logger_endpoint =
      uses_logger ? logger_shard_endpoint(cfg.n, cfg.rank, logger_shards)
                  : -1;
  // WINDAR_CKPT / WINDAR_CKPT_ANCHOR_K propagate through fork+exec, so the
  // whole job (and every respawned incarnation) resolves the same plan.
  pp.ckpt_async = resolve_ckpt_async(-1);
  pp.incarnation = cfg.incarnation;

  int rc = 0;
  std::uint64_t digest = 0;
  Metrics metrics;
  {
    Process proc(data, store, pp, cfg.recovering);
    Ctx ctx(proc);
    try {
      digest = fn(ctx);
    } catch (const JobAborted&) {
      rc = 42;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[windar worker %d] %s\n", cfg.rank, e.what());
      rc = 41;
    } catch (...) {
      rc = 41;
    }
    if (rc == 0) {
      // Flush the async checkpoint writer (and its advance fan-out) before
      // declaring done: every data-plane send must precede our kDone, so by
      // the time the launcher's kAllDone releases any peer from park, our
      // last CHECKPOINT_ADVANCE frames are already on the wire ahead of the
      // control-plane round trip — peers snapshot balanced fabric stats.
      proc.drain_checkpoints();
      (void)data.flush(std::chrono::milliseconds(1000));
      util::ByteWriter w;
      w.u64(digest);
      ctrl.send(ctrl_packet(cfg.rank, launcher_ep, kDone, cfg.incarnation,
                            util::take_buffer(w)));
      // Park until the launcher declares the job over, still serving
      // ROLLBACK/RESPONSE traffic for late-recovering peers.
      std::atomic<bool> all_done{false};
      std::thread ctrl_watch([&] {
        while (auto m = inbox.pop()) {
          if (m->kind == kAllDone) break;
        }
        all_done.store(true, std::memory_order_release);
      });
      proc.park(all_done);
      ctrl_watch.join();
      metrics = proc.metrics();
    }
  }  // Process torn down while the transports are still up

  if (rc == 0) {
    const net::FabricStats fs = data.stats();
    util::ByteWriter w;
    w.u64(fs.packets_sent);
    w.u64(fs.packets_delivered);
    w.u64(fs.packets_dropped_dead);
    w.u64(fs.packets_dropped_chaos);
    w.u64(fs.bytes_sent);
    w.u64(fs.frame_errors);
    w.u64(metrics.app_sent);
    w.u64(metrics.app_delivered);
    w.u64(metrics.checkpoints);
    w.u64(chaos.fired());
    ctrl.send(ctrl_packet(cfg.rank, launcher_ep, kBye, cfg.incarnation,
                          util::take_buffer(w)));
    // shutdown() discards queued packets; the BYE must reach the kernel
    // before we tear the writer down.
    (void)ctrl.flush(std::chrono::milliseconds(1000));
  }
  finished->store(true, std::memory_order_release);
  ctrl.shutdown();
  data.shutdown();
  return rc;
}

// ---------------------------------------------------------------------------
// Launcher side
// ---------------------------------------------------------------------------

MultiProcResult run_multiproc_job(const LaunchSpec& spec) {
  MultiProcResult res;
  const JobConfig& job = spec.job;
  const int n = job.n;
  const int launcher_ep = n;
  const bool uses_logger = uses_event_logger(job.protocol);
  const int logger_shards =
      uses_logger ? std::min(n, resolve_logger_shards(job.logger_shards)) : 0;
  WINDAR_CHECK_GT(n, 0) << "job needs ranks";

  std::string dir = spec.job_dir;
  if (dir.empty()) {
    char tmpl[] = "/tmp/windar_job_XXXXXX";
    WINDAR_CHECK(::mkdtemp(tmpl) != nullptr)
        << "mkdtemp: " << std::strerror(errno);
    dir = tmpl;
  }
  std::filesystem::create_directories(dir + "/data");
  std::filesystem::create_directories(dir + "/ctrl");
  std::filesystem::create_directories(dir + "/ckpt");
  const std::string exe = spec.exe.empty() ? "/proc/self/exe" : spec.exe;

  net::SocketTransportOptions copt;
  copt.endpoints = n + 1;
  copt.self = launcher_ep;
  copt.dir = dir + "/ctrl";
  // Control plane stays on the unbounded queue (see the worker side).
  copt.inbox = net::InboxConfig{net::InboxKind::kQueue, 0};
  net::SocketTransport ctrl(copt);

  // TEL/PES: the launcher hosts the stable-storage event-logger shards on
  // data endpoints n..n+shards-1, exactly where the simulated runtime puts
  // them (a SocketTransport hosts one endpoint, so one transport per shard).
  std::vector<std::unique_ptr<net::SocketTransport>> logger_tps;
  std::vector<std::unique_ptr<EventLogger>> loggers;
  for (int s = 0; s < logger_shards; ++s) {
    net::SocketTransportOptions lopt;
    lopt.endpoints = n + logger_shards;
    lopt.self = n + s;
    lopt.dir = dir + "/data";
    logger_tps.push_back(std::make_unique<net::SocketTransport>(lopt));
    EventLogger::Params lp;
    lp.endpoint = n + s;
    lp.ranks = n;
    lp.storage_delay = job.logger_storage_delay;
    lp.shards = logger_shards;
    lp.shard_index = s;
    loggers.push_back(std::make_unique<EventLogger>(*logger_tps.back(), lp));
  }

  const std::string chaos_spec = encode_chaos(job.chaos);
  std::vector<bool> event_done(job.chaos.size(), false);

  struct RankState {
    pid_t pid = -1;
    std::uint32_t incarnation = 0;
    bool joined = false;
    bool done_ever = false;      // digest is valid
    bool awaiting_done = false;  // respawned; ALLDONE held until re-DONE
    bool exited = false;
    bool clean_exit = false;  // exit(0): a BYE is on its way (or arrived)
    bool bye = false;
    std::uint64_t digest = 0;
    bool pending_respawn = false;
    double respawn_at_ms = 0;
    double extra_delay_ms = 0;  // revive_after_packets approximation
  };
  std::vector<RankState> ranks(static_cast<std::size_t>(n));

  bool go_sent = false;
  bool alldone_sent = false;
  bool failed = false;
  std::string error;
  std::uint64_t killreqs = 0;
  std::uint64_t bye_chaos_fired = 0;

  const auto vlog = [&](const char* fmt, auto... args) {
    if (spec.verbose) {
      std::fprintf(stderr, "[launcher] ");
      std::fprintf(stderr, fmt, args...);
      std::fprintf(stderr, "\n");
    }
  };

  const auto chaos_done_list = [&] {
    std::string out;
    for (std::size_t i = 0; i < event_done.size(); ++i) {
      if (!event_done[i]) continue;
      if (!out.empty()) out += ',';
      out += std::to_string(i);
    }
    return out;
  };

  const auto spawn = [&](int r, bool recovering) {
    RankState& rk = ranks[static_cast<std::size_t>(r)];
    std::vector<std::string> av;
    av.push_back(exe);
    for (const auto& a : spec.worker_args) av.push_back(a);
    av.push_back("--windar-rank=" + std::to_string(r));
    av.push_back("--windar-n=" + std::to_string(n));
    av.push_back("--windar-dir=" + dir);
    av.push_back("--windar-protocol=" +
                 std::string(protocol_token(job.protocol)));
    av.push_back("--windar-mode=" +
                 std::string(job.mode == SendMode::kBlocking ? "blocking"
                                                             : "nonblocking"));
    av.push_back("--windar-incarnation=" + std::to_string(rk.incarnation));
    av.push_back(std::string("--windar-recovering=") +
                 (recovering ? "1" : "0"));
    av.push_back("--windar-seed=" + std::to_string(job.seed));
    av.push_back("--windar-eager=" + std::to_string(job.eager_threshold));
    if (logger_shards > 0) {
      av.push_back("--windar-logger-shards=" + std::to_string(logger_shards));
    }
    av.push_back("--windar-retry-ms=" +
                 std::to_string(job.rollback_retry.count()));
    av.push_back("--windar-retry-cap-ms=" +
                 std::to_string(job.rollback_retry_cap.count()));
    av.push_back("--windar-timeout-ms=" + std::to_string(spec.timeout_ms));
    if (!chaos_spec.empty()) {
      av.push_back("--windar-chaos=" + chaos_spec);
      const std::string done = chaos_done_list();
      if (!done.empty()) av.push_back("--windar-chaos-done=" + done);
    }
    const pid_t pid = ::fork();
    WINDAR_CHECK_GE(pid, 0) << "fork: " << std::strerror(errno);
    if (pid == 0) {
      // Child: every transport fd is CLOEXEC, so exec starts clean.
      std::vector<char*> cav;
      cav.reserve(av.size() + 1);
      for (auto& s : av) cav.push_back(const_cast<char*>(s.c_str()));
      cav.push_back(nullptr);
      ::execv(exe.c_str(), cav.data());
      std::fprintf(stderr, "execv(%s): %s\n", exe.c_str(),
                   std::strerror(errno));
      std::_Exit(127);
    }
    rk.pid = pid;
    rk.joined = false;
    rk.exited = false;
    rk.bye = false;
    rk.pending_respawn = false;
    vlog("rank %d incarnation %u -> pid %d%s", r, rk.incarnation,
         static_cast<int>(pid), recovering ? " (recovering)" : "");
  };

  const auto fail = [&](std::string msg) {
    if (!failed) {
      failed = true;
      error = std::move(msg);
      vlog("job failed: %s", error.c_str());
    }
    for (auto& rk : ranks) {
      if (rk.pid > 0 && !rk.exited) ::kill(rk.pid, SIGKILL);
      rk.pending_respawn = false;
    }
  };

  const auto sigkill_rank = [&](int r, const char* why) {
    RankState& rk = ranks[static_cast<std::size_t>(r)];
    if (rk.exited || rk.pid <= 0) return;
    vlog("SIGKILL rank %d pid %d (%s)", r, static_cast<int>(rk.pid), why);
    ::kill(rk.pid, SIGKILL);
  };

  const auto broadcast = [&](std::uint16_t kind) {
    for (int r = 0; r < n; ++r) {
      ctrl.send(ctrl_packet(launcher_ep, r, kind, 0));
    }
  };

  const auto maybe_go = [&] {
    if (go_sent) return;
    for (const auto& rk : ranks) {
      if (!rk.joined) return;
    }
    go_sent = true;
    broadcast(kGo);
    vlog("all %d ranks joined, GO", n);
  };

  // ALLDONE only once every rank has a digest AND no recovery is in flight:
  // releasing parked workers while an incarnation still needs their
  // RESPONSEs would strand it against exited peers.
  const auto maybe_alldone = [&] {
    if (alldone_sent || failed) return;
    for (const auto& rk : ranks) {
      if (!rk.done_ever || rk.awaiting_done || rk.pending_respawn) return;
    }
    alldone_sent = true;
    broadcast(kAllDone);
    vlog("all ranks done, ALLDONE");
  };

  const auto mark_event_done = [&](const std::string& enc) {
    const auto fired = decode_chaos(enc);
    if (fired.empty()) return;
    for (std::size_t i = 0; i < job.chaos.size(); ++i) {
      if (!event_done[i] && !job.chaos[i].repeat &&
          same_event(job.chaos[i], fired[0])) {
        event_done[i] = true;
        return;
      }
    }
  };

  const auto handle = [&](net::Packet& m) {
    if (m.src < 0 || m.src >= n) return;
    RankState& rk = ranks[static_cast<std::size_t>(m.src)];
    switch (m.kind) {
      case kJoin:
        rk.joined = true;
        if (go_sent) {
          ctrl.send(ctrl_packet(launcher_ep, m.src, kGo, 0));
        } else {
          maybe_go();
        }
        break;
      case kDone: {
        util::ByteReader rd(m.payload);
        rk.digest = rd.u64();  // deterministic: a repeat DONE overwrites
        rk.done_ever = true;
        rk.awaiting_done = false;
        maybe_alldone();
        break;
      }
      case kKillReq: {
        ++killreqs;
        util::ByteReader rd(m.payload);
        int target = rd.i32();
        const std::uint64_t revive = rd.u64();
        mark_event_done(rd.str());
        if (target < 0) target = m.src;
        if (target >= n) break;
        RankState& tk = ranks[static_cast<std::size_t>(target)];
        if (revive > 0) {
          // revive_after_packets counts fabric-wide deliveries, which no
          // process can observe job-wide here; approximate the hold-down as
          // extra restart delay.
          tk.extra_delay_ms = std::min(50.0, static_cast<double>(revive) * 0.1);
          if (tk.pending_respawn) tk.respawn_at_ms += tk.extra_delay_ms;
        }
        if (target != m.src) sigkill_rank(target, "chaos killreq");
        break;
      }
      case kBye: {
        util::ByteReader rd(m.payload);
        net::FabricStats fs;
        fs.packets_sent = rd.u64();
        fs.packets_delivered = rd.u64();
        fs.packets_dropped_dead = rd.u64();
        fs.packets_dropped_chaos = rd.u64();
        fs.bytes_sent = rd.u64();
        fs.frame_errors = rd.u64();
        res.fabric.merge(fs);
        res.app_sent += rd.u64();
        res.app_delivered += rd.u64();
        res.checkpoints += rd.u64();
        bye_chaos_fired += rd.u64();
        rk.bye = true;
        break;
      }
      default:
        break;
    }
  };

  const auto reap = [&] {
    for (;;) {
      int st = 0;
      const pid_t pid = ::waitpid(-1, &st, WNOHANG);
      if (pid <= 0) return;
      int r = -1;
      for (int i = 0; i < n; ++i) {
        if (ranks[static_cast<std::size_t>(i)].pid == pid) r = i;
      }
      if (r < 0) continue;
      RankState& rk = ranks[static_cast<std::size_t>(r)];
      rk.pid = -1;
      rk.joined = false;
      if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) {
        if (failed) {
          rk.exited = true;
          continue;
        }
        if (alldone_sent) {
          // A late-firing chaos kill (e.g. keyed to a rank's final delivery)
          // can land after the job completed: every digest is recorded and
          // no recovery is in flight (the ALLDONE precondition), so there is
          // nothing for a spare process to do and nobody left to serve its
          // rollback.  The death stands unreplaced.
          rk.exited = true;
          vlog("rank %d SIGKILLed after ALLDONE, no respawn", r);
          continue;
        }
        // The injected fault: schedule the spare-process incarnation.
        ++res.recoveries;
        rk.pending_respawn = true;
        rk.respawn_at_ms =
            util::now_ms() + job.restart_delay_ms + rk.extra_delay_ms;
        rk.extra_delay_ms = 0;
        rk.awaiting_done = true;
        rk.bye = false;
        vlog("rank %d SIGKILLed, respawn in %.1fms", r,
             rk.respawn_at_ms - util::now_ms());
      } else if (WIFEXITED(st) && WEXITSTATUS(st) == 0) {
        rk.exited = true;
        rk.clean_exit = true;
        if (!alldone_sent) {
          fail("rank " + std::to_string(r) + " exited before ALLDONE");
        }
      } else {
        rk.exited = true;
        fail("rank " + std::to_string(r) + " died: " +
             (WIFEXITED(st)
                  ? "exit " + std::to_string(WEXITSTATUS(st))
                  : "signal " + std::to_string(WTERMSIG(st))));
      }
    }
  };

  const double t0 = util::now_ms();
  std::vector<FaultEvent> faults = job.faults;
  std::sort(faults.begin(), faults.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.at_ms < b.at_ms;
            });
  std::size_t fault_idx = 0;

  for (int r = 0; r < n; ++r) spawn(r, /*recovering=*/false);

  auto& inbox = ctrl.endpoint(launcher_ep).inbox();
  for (;;) {
    bool all_exited = true;
    for (const auto& rk : ranks) all_exited &= rk.exited;
    if (all_exited && (failed || alldone_sent)) break;

    if (!failed && util::now_ms() - t0 > spec.timeout_ms) {
      fail("job timeout after " + std::to_string(spec.timeout_ms) + "ms");
    }

    auto m = inbox.pop_until(std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(2));
    while (m) {
      handle(*m);
      m = inbox.try_pop();
    }

    if (!failed && !alldone_sent) {
      while (fault_idx < faults.size() &&
             util::now_ms() - t0 >= faults[fault_idx].at_ms) {
        const int r = faults[fault_idx].rank;
        ++fault_idx;
        if (r >= 0 && r < n) sigkill_rank(r, "fault schedule");
      }
    }

    reap();

    if (!failed) {
      for (int r = 0; r < n; ++r) {
        RankState& rk = ranks[static_cast<std::size_t>(r)];
        if (rk.pending_respawn && util::now_ms() >= rk.respawn_at_ms) {
          ++rk.incarnation;
          spawn(r, /*recovering=*/true);
        }
      }
    }
    maybe_alldone();
  }

  // Workers flush their BYE before exiting, but the reader may not have
  // pushed it yet; give the stragglers a moment.
  if (!failed) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(500);
    for (;;) {
      bool all_bye = true;
      // Only clean exits owe a BYE; a rank SIGKILLed after ALLDONE took its
      // stats to the grave.
      for (const auto& rk : ranks) all_bye &= (rk.bye || !rk.clean_exit);
      if (all_bye || std::chrono::steady_clock::now() >= deadline) break;
      auto m = inbox.pop_until(std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(20));
      if (m) handle(*m);
    }
  }

  for (int s = 0; s < logger_shards; ++s) {
    loggers[static_cast<std::size_t>(s)]->stop();
    res.logger_batches += loggers[static_cast<std::size_t>(s)]->batches();
    res.logger_determinants +=
        loggers[static_cast<std::size_t>(s)]->stored_determinants();
    res.logger_commit_rounds +=
        loggers[static_cast<std::size_t>(s)]->commit_rounds();
    res.logger_acks += loggers[static_cast<std::size_t>(s)]->acks_sent();
    res.fabric.merge(logger_tps[static_cast<std::size_t>(s)]->stats());
    logger_tps[static_cast<std::size_t>(s)]->shutdown();
  }
  ctrl.shutdown();

  res.wall_ms = util::now_ms() - t0;
  res.rank_digest.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    res.rank_digest[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].digest;
    res.digest += res.rank_digest[static_cast<std::size_t>(r)] % kDigestMod;
  }
  res.chaos_triggers_fired = killreqs + bye_chaos_fired;
  res.ok = !failed;
  res.error = error;

  if (!spec.keep_dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return res;
}

}  // namespace windar::ft
