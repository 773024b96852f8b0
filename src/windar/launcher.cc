#include "windar/launcher.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string_view>
#include <thread>
#include <type_traits>

#include "net/socket_transport.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/parse.h"
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
      f.push_back(util::parse_number<long long>(
          std::string_view(rec).substr(p, q - p), "chaos record field"));
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

namespace {

/// Every worker flag, once: encode_worker writes each field and
/// WorkerConfig::parse reads each back, so no field can reach one side only.
template <typename Config, typename Visit>
void for_each_worker_flag(Config& w, Visit&& visit) {
  visit("rank", w.rank);
  visit("dir", w.dir);
  visit("incarnation", w.incarnation);
  visit("recovering", w.recovering);
  visit("timeout-ms", w.timeout_ms);
  visit("chaos", w.chaos);
  visit("n", w.job.n);
  visit("protocol", w.job.protocol);
  visit("mode", w.job.mode);
  visit("seed", w.job.seed);
  visit("eager", w.job.eager_threshold);
  visit("retry-ms", w.job.rollback_retry);
  visit("retry-cap-ms", w.job.rollback_retry_cap);
  visit("logger-shards", w.job.logger_shards);
  visit("ckpt-async", w.job.ckpt_async);
  visit("ckpt-anchor", w.job.ckpt_delta_anchor);
  visit("replay-burst", w.job.replay_burst);
}

template <typename T>
std::string flag_text(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else if constexpr (std::is_arithmetic_v<T>) {
    char buf[64];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else if constexpr (std::is_same_v<T, std::chrono::milliseconds>) {
    return flag_text(v.count());
  } else if constexpr (std::is_same_v<T, std::vector<net::ChaosEvent>>) {
    return encode_chaos(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else {
    return to_string(v);  // ProtocolKind, SendMode
  }
}

/// Parses all of `text` into `out`; a malformed value is fatal.
template <typename T>
void parse_flag(std::string_view flag, std::string_view text, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    WINDAR_CHECK(text == "0" || text == "1") << "malformed " << flag;
    out = text == "1";
  } else if constexpr (std::is_arithmetic_v<T>) {
    out = util::parse_number<T>(text, flag);
  } else if constexpr (std::is_same_v<T, std::chrono::milliseconds>) {
    out = T(util::parse_number<typename T::rep>(text, flag));
  } else if constexpr (std::is_same_v<T, std::vector<net::ChaosEvent>>) {
    out = decode_chaos(std::string(text));
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_same_v<T, ProtocolKind>) {
    const auto kind = parse_protocol(text);
    WINDAR_CHECK(kind) << "malformed " << flag;
    out = *kind;
  } else {
    static_assert(std::is_same_v<T, SendMode>);
    WINDAR_CHECK(text == "blocking" || text == "nonblocking")
        << "malformed " << flag;
    out = text == "blocking" ? SendMode::kBlocking : SendMode::kNonBlocking;
  }
}

constexpr std::string_view kFlagPrefix = "--windar-";

}  // namespace

std::vector<std::string> encode_worker(const WorkerConfig& cfg) {
  std::vector<std::string> flags;
  for_each_worker_flag(cfg, [&](std::string_view name, const auto& field) {
    flags.push_back(std::string(kFlagPrefix) + std::string(name) + "=" +
                    flag_text(field));
  });
  return flags;
}

bool WorkerConfig::is_worker_invocation(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--windar-rank=")) return true;
  }
  return false;
}

WorkerConfig WorkerConfig::parse(int argc, char** argv) {
  WorkerConfig cfg;
  cfg.app_args.push_back(argc > 0 ? argv[0] : "worker");
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with(kFlagPrefix)) {
      cfg.app_args.emplace_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name =
        arg.substr(kFlagPrefix.size(), eq - kFlagPrefix.size());
    bool known = false;
    for_each_worker_flag(cfg, [&](std::string_view flag, auto& field) {
      if (flag != name || eq == std::string_view::npos) return;
      parse_flag(arg, arg.substr(eq + 1), field);
      known = true;
    });
    WINDAR_CHECK(known) << "unknown worker flag " << arg;
  }
  WINDAR_CHECK_GT(cfg.job.n, 0) << "worker without --windar-n";
  WINDAR_CHECK(cfg.rank >= 0 && cfg.rank < cfg.job.n) << "bad worker rank";
  WINDAR_CHECK(!cfg.dir.empty()) << "worker without --windar-dir";
  return cfg;
}

int run_worker(const WorkerConfig& cfg, const WorkerFn& fn) {
  const JobConfig& job = cfg.job;
  const int launcher_ep = job.n;

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
  dopt.endpoints = job.n + job.logger_shards;
  dopt.self = cfg.rank;
  dopt.dir = cfg.dir + "/data";
  dopt.incarnation = cfg.incarnation;
  net::SocketTransport data(dopt);

  net::SocketTransportOptions copt;
  copt.endpoints = job.n + 1;
  copt.self = cfg.rank;
  copt.dir = cfg.dir + "/ctrl";
  copt.incarnation = cfg.incarnation;
  // Control plane stays on the unbounded queue: a barrier or exit message
  // must never block behind data-plane ring backpressure.
  copt.inbox = net::InboxConfig{net::InboxKind::kQueue, 0};
  net::SocketTransport ctrl(copt);

  CheckpointStore store(cfg.dir + "/ckpt", job.ckpt_delta_anchor);

  // A kill event fires inside the process hosting its matched endpoint
  // (kSend matches at the sender, kDeliver at the receiver): the handler
  // reports the fired event, flushes, and takes the SIGKILL itself — the
  // crash lands at the exact protocol point the event names — unless the
  // event targets another rank, which the launcher then kills.
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

  int rc = 0;
  std::uint64_t digest = 0;
  Metrics metrics;
  {
    Process proc(data, store, process_params(job, cfg.rank, cfg.incarnation),
                 cfg.recovering);
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
  res.config = resolve_job_config(spec.job);
  const JobConfig& job = res.config;
  const int n = job.n;
  const int launcher_ep = n;

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
  for (int s = 0; s < job.logger_shards; ++s) {
    net::SocketTransportOptions lopt;
    lopt.endpoints = n + job.logger_shards;
    lopt.self = n + s;
    lopt.dir = dir + "/data";
    logger_tps.push_back(std::make_unique<net::SocketTransport>(lopt));
    loggers.push_back(std::make_unique<EventLogger>(*logger_tps.back(),
                                                    logger_params(job, s)));
  }

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

  const auto spawn = [&](int r, bool recovering) {
    RankState& rk = ranks[static_cast<std::size_t>(r)];
    WorkerConfig w;
    w.job = job;
    w.job.chaos.clear();
    w.rank = r;
    w.dir = dir;
    w.incarnation = rk.incarnation;
    w.recovering = recovering;
    w.timeout_ms = spec.timeout_ms;
    // Arm the schedule minus the one-shot kills that already fired in
    // earlier incarnations: a fresh process re-counting a fired
    // delivery-keyed kill would crash every incarnation at the same point.
    for (std::size_t i = 0; i < job.chaos.size(); ++i) {
      if (!event_done[i]) w.chaos.push_back(job.chaos[i]);
    }
    std::vector<std::string> av{exe};
    av.insert(av.end(), spec.worker_args.begin(), spec.worker_args.end());
    for (std::string& flag : encode_worker(w)) av.push_back(std::move(flag));
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
        WINDAR_CHECK_LT(target, n) << "KILLREQ for non-rank " << target;
        RankState& tk = ranks[static_cast<std::size_t>(target)];
        if (revive > 0) {
          // revive_after_packets counts fabric-wide deliveries, which no
          // process can observe job-wide here; approximate the hold-down as
          // extra restart delay.
          tk.extra_delay_ms = std::min(50.0, static_cast<double>(revive) * 0.1);
          if (tk.pending_respawn) tk.respawn_at_ms += tk.extra_delay_ms;
        }
        // A kill naming another rank: the launcher delivers the SIGKILL.
        if (target != m.src && !tk.exited && tk.pid > 0) {
          vlog("SIGKILL rank %d pid %d (chaos killreq)", target,
               static_cast<int>(tk.pid));
          ::kill(tk.pid, SIGKILL);
        }
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

  res.logger = stop_loggers(loggers);
  for (auto& tp : logger_tps) {
    res.fabric.merge(tp->stats());
    tp->shutdown();
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
