// Shared harness pieces for the figure-reproduction benchmarks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "npb/driver.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/options.h"
#include "util/stats.h"
#include "util/table.h"
#include "windar/runtime.h"

namespace windar::bench {

inline net::LatencyModel bench_latency() {
  // 100 Mb/s-Ethernet-flavoured but scaled down so 36-run sweeps finish in
  // minutes: moderate base, cheap per-byte, enough jitter to reorder
  // independent channels constantly.
  net::LatencyModel m;
  m.base = std::chrono::nanoseconds(8'000);
  m.per_byte = std::chrono::nanoseconds(8);
  m.jitter = std::chrono::nanoseconds(20'000);
  return m;
}

/// Hang watchdog: the main thread arms a deadline before each bench row or
/// soak run; if the row outlives it, the process prints
/// "FAIL <label> (hang after N ms)" and exits 3.  run_job cannot be
/// cancelled from outside, so a hard exit is the only honest outcome for a
/// hung row — the label on stdout names the parameters that reproduce it.
class Watchdog {
 public:
  explicit Watchdog(double timeout_ms)
      : timeout_ms_(timeout_ms), thread_([this] { watch(); }) {}
  ~Watchdog() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(std::string label) {
    std::scoped_lock lock(mu_);
    label_ = std::move(label);
    armed_at_ms_ = util::now_ms();
  }
  void disarm() {
    std::scoped_lock lock(mu_);
    armed_at_ms_ = 0;
  }

 private:
  void watch() {
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      std::scoped_lock lock(mu_);
      if (armed_at_ms_ > 0 && util::now_ms() - armed_at_ms_ > timeout_ms_) {
        std::printf("FAIL %s (hang after %.0f ms)\n", label_.c_str(),
                    timeout_ms_);
        std::fflush(stdout);
        std::_Exit(3);
      }
    }
  }

  const double timeout_ms_;
  std::mutex mu_;
  std::string label_;       // guarded by mu_
  double armed_at_ms_ = 0;  // guarded by mu_; 0 while disarmed
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member above exists
};

/// Wall-clock bound on one figure or ablation row (run_npb_job,
/// bounded_run_job).
constexpr double kFigureRowBoundMs = 300'000;

/// The per-process watchdog behind run_npb_job and bounded_run_job.
inline Watchdog& figure_row_watchdog() {
  static Watchdog watchdog(kFigureRowBoundMs);
  return watchdog;
}

/// ft::run_job with figure_row_watchdog() armed: a row that hangs prints
/// "FAIL <label> (hang after N ms)" and exits 3.
template <typename Fn>
ft::JobResult bounded_run_job(const ft::JobConfig& cfg, std::string label,
                              Fn&& fn) {
  figure_row_watchdog().arm(std::move(label));
  ft::JobResult result = ft::run_job(cfg, std::forward<Fn>(fn));
  figure_row_watchdog().disarm();
  return result;
}

struct NpbJob {
  npb::App app = npb::App::kLU;
  int ranks = 4;
  ft::ProtocolKind protocol = ft::ProtocolKind::kTdi;
  ft::SendMode mode = ft::SendMode::kNonBlocking;
  double scale = 1.0;
  int checkpoint_every = 8;  // iterations; bounds metadata growth like the
                             // paper's 180 s checkpoint interval
  std::vector<net::ChaosEvent> chaos;  // event-keyed kills (fault.h)
  std::uint64_t seed = 1;
  exec::ExecModel exec_model = exec::ExecModel::kAuto;
  int logger_shards = 0;  // TEL/PES event-logger shards; 0 = env/default
};

struct NpbOutcome {
  ft::JobResult result;
  double checksum = 0;
};

inline NpbOutcome run_npb_job(const NpbJob& job) {
  npb::Params params = npb::make_params(job.app, job.ranks, job.scale);
  params.checkpoint_every = job.checkpoint_every;
  ft::JobConfig cfg;
  cfg.n = job.ranks;
  cfg.protocol = job.protocol;
  cfg.mode = job.mode;
  cfg.latency = bench_latency();
  cfg.seed = job.seed;
  cfg.exec_model = job.exec_model;
  cfg.chaos = job.chaos;
  cfg.logger_shards = job.logger_shards;
  cfg.restart_delay_ms = 5;
  auto checksum = std::make_shared<std::atomic<double>>(0.0);
  NpbOutcome out;
  const std::string label =
      std::string("app=") + npb::to_string(job.app) +
      " ranks=" + std::to_string(job.ranks) +
      " protocol=" + ft::to_string(job.protocol) +
      " mode=" + ft::to_string(job.mode) +
      " scale=" + util::fmt_double(job.scale, 2) +
      " seed=" + std::to_string(job.seed) +
      " kills=" + std::to_string(job.chaos.size());
  out.result = bounded_run_job(cfg, label, [&](ft::Ctx& ctx) {
    const double cs = npb::run_app(ctx, params, &ctx);
    if (ctx.rank() == 0) checksum->store(cs);
  });
  out.checksum = checksum->load();
  return out;
}

inline const std::vector<npb::App>& all_apps() {
  static const std::vector<npb::App> apps{npb::App::kLU, npb::App::kBT,
                                          npb::App::kSP};
  return apps;
}

inline const std::vector<ft::ProtocolKind>& all_protocols() {
  static const std::vector<ft::ProtocolKind> protos{
      ft::ProtocolKind::kTdi, ft::ProtocolKind::kTag, ft::ProtocolKind::kTel};
  return protos;
}

/// The TDI encodings: the only protocols whose per-message cost stays
/// tractable at 1k-4k ranks (determinant piggybacks grow with traffic too).
inline const std::vector<ft::ProtocolKind>& tdi_family() {
  static const std::vector<ft::ProtocolKind> protos{
      ft::ProtocolKind::kTdi, ft::ProtocolKind::kTdiSparse,
      ft::ProtocolKind::kTdiDelta};
  return protos;
}

/// True for protocols that log determinants (piggyback grows with traffic),
/// i.e. the ones a scale sweep must cap or they dominate the wall clock.
inline bool determinant_based(ft::ProtocolKind p) {
  return p == ft::ProtocolKind::kTag || p == ft::ProtocolKind::kTel ||
         p == ft::ProtocolKind::kPes;
}

/// True for protocols that talk to the event logger — the ones a
/// --logger-shards sweep actually varies.
inline bool uses_logger(ft::ProtocolKind p) {
  return p == ft::ProtocolKind::kTel || p == ft::ProtocolKind::kPes;
}

/// ft::parse_protocol, failing loudly on an unknown name.
inline ft::ProtocolKind protocol_or_die(const std::string& s) {
  const auto kind = ft::parse_protocol(s);
  WINDAR_CHECK(kind) << "unknown protocol '" << s << "'";
  return *kind;
}

inline std::vector<ft::ProtocolKind> parse_protocol_list(
    const std::string& csv) {
  std::vector<ft::ProtocolKind> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    if (next > pos) out.push_back(protocol_or_die(csv.substr(pos, next - pos)));
    pos = next + 1;
  }
  return out;
}

inline std::string fmt(double v, int digits = 2) {
  return util::fmt_double(v, digits);
}

/// The CMake build type the bench binaries were compiled under.
inline const char* build_type() {
#ifdef WINDAR_BENCH_BUILD_TYPE
  return WINDAR_BENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// Minimal machine-readable output: an array of flat JSON objects, one per
/// bench row, written in one shot.  Values are either numbers or strings —
/// nothing nested, no escapes beyond quoting (bench strings are tokens).
class JsonRows {
 public:
  JsonRows& field(const char* key, const std::string& v) {
    sep();
    row_ += '"';
    row_ += key;
    row_ += "\": \"";
    row_ += v;
    row_ += '"';
    return *this;
  }
  JsonRows& field(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return raw(key, buf);
  }
  JsonRows& field(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonRows& field(const char* key, int v) { return raw(key, std::to_string(v)); }

  /// The host (nproc, build type) and the resolved job configuration
  /// (JobResult::config) a row was measured under.
  JsonRows& host_and_config(const ft::JobConfig& c) {
    return field("host_nproc",
                 static_cast<int>(std::thread::hardware_concurrency()))
        .field("build", std::string(build_type()))
        .field("protocol", ft::to_string(c.protocol))
        .field("exec", std::string(exec::to_string(c.exec_model)))
        .field("exec_workers", c.exec_workers)
        .field("fabric_shards", c.fabric_shards)
        .field("logger_shards", c.logger_shards)
        .field("ckpt_async", c.ckpt_async)
        .field("ckpt_delta_anchor",
               static_cast<std::uint64_t>(c.ckpt_delta_anchor))
        .field("eager_threshold", static_cast<std::uint64_t>(c.eager_threshold))
        .field("replay_burst", static_cast<std::uint64_t>(c.replay_burst))
        .field("restart_delay_ms", c.restart_delay_ms);
  }

  void end_row() {
    rows_.push_back("  {" + row_ + "}");
    row_.clear();
  }

  /// Writes `[ {...}, ... ]` to `path`; returns false on I/O failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fputs(rows_[i].c_str(), f);
      std::fputs(i + 1 < rows_.size() ? ",\n" : "\n", f);
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  JsonRows& raw(const char* key, const std::string& lit) {
    sep();
    row_ += '"';
    row_ += key;
    row_ += "\": ";
    row_ += lit;
    return *this;
  }
  void sep() {
    if (!row_.empty()) row_ += ", ";
  }

  std::string row_;
  std::vector<std::string> rows_;
};

}  // namespace windar::bench
