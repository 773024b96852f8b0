// perfbench — workload runner behind the repository benchmark.
//
// Runs one named workload (see README.md in this directory) through the
// library's public entry points only: ft::run_job with a Ctx for the
// fault-tolerant side and mp::run_raw as the no-fault-tolerance reference.
// It repeats jobs for a wall-clock budget, checks every job's output and
// prints machine-readable lines that perfbench/run.py aggregates:
//
//   CONFIG {...}   effective configuration (nproc, build type, exec model,
//                  fabric shards, inbox backend, every WINDAR_* variable)
//   JOB {...}      one line per job: kind, seed, verdict, times, counters
//   POOL {...}     pooled sample percentiles and peak RSS, printed last
//   HANG ...       the per-job watchdog fired; the process exits with code 3
//
// Layers are timed from outside the library.  With --trace 1 the runner
// wraps the rank's Comm in TracedComm, which records a span around every
// send and recv, and records spans for each job, rank incarnation and
// checkpoint call.  Spans stay in memory; self times are derived from them
// after each job and the spans of the first traced jobs are written to
// --trace-out when the process ends.  Untraced jobs run the application on
// the bare Ctx / RawComm.
//
//   perfbench --workload=lu-4 --seed=1 --seconds=10 --trace=0
//   perfbench --workload=msgpath-64 --seed=1 --trace=0 --only-job=7
//
// A global operator new counts heap allocations, so util.allocs_per_msg
// covers every layer of the message path.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "exec/scheduler.h"
#include "mp/comm.h"
#include "mp/runtime.h"
#include "net/fabric.h"
#include "net/inbox.h"
#include "npb/lu.h"
#include "util/clock.h"
#include "util/options.h"
#include "windar/fault.h"
#include "windar/runtime.h"

extern char** environ;

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

namespace {

using namespace windar;
using util::now_ns;

constexpr int kFloodTag = 1;
constexpr int kProbeTag = 2;
constexpr std::size_t kPayloadB = 64;

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finaliser
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Workloads

enum class App { kMsgPath, kLu, kRing };

struct Workload {
  std::string name;
  App app = App::kLu;
  int n = 2;
  exec::ExecModel exec = exec::ExecModel::kAuto;
  net::LatencyModel latency;
  int flood_msgs = 0;        // msgpath: messages in the flood phase
  int ckpt_every_msgs = 0;   // msgpath: receiver checkpoint interval
  npb::Params lu;            // lu
  std::uint64_t kill_at = 0; // lu-4-fault: rank 1's nth app delivery
  int ring_rounds = 0;       // ring
  int probe_rounds = 0;      // closed-loop ping-pong round trips, rank 0<->1
  double bound_ms = 0;       // per-job watchdog bound
};

// The jittered link model the figure benchmarks use (bench/common.h).
net::LatencyModel jittered_latency() {
  net::LatencyModel m;
  m.base = std::chrono::nanoseconds(8'000);
  m.per_byte = std::chrono::nanoseconds(8);
  m.jitter = std::chrono::nanoseconds(20'000);
  return m;
}

bool make_workload(const std::string& name, bool tiny, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "msgpath-64") {
    w.app = App::kMsgPath;
    w.n = 2;
    w.latency = net::LatencyModel::deterministic(std::chrono::nanoseconds(0),
                                                 std::chrono::nanoseconds(0));
    w.flood_msgs = tiny ? 2'000 : 100'000;
    w.ckpt_every_msgs = 256;
    w.probe_rounds = tiny ? 200 : 4'000;
    w.bound_ms = 60'000;
  } else if (name == "lu-4" || name == "lu-4-fault") {
    w.app = App::kLu;
    w.n = 4;
    w.latency = jittered_latency();
    w.lu = npb::make_params(npb::App::kLU, w.n, tiny ? 0.3 : 2.0);
    w.lu.checkpoint_every = tiny ? 2 : 8;
    // Rank 1 takes 24 pencil deliveries per iteration (plus reductions): the
    // kill lands mid-run, after at least one checkpoint.
    if (name == "lu-4-fault") w.kill_at = tiny ? 70 : 500;
    w.probe_rounds = tiny ? 16 : 128;
    w.bound_ms = 20'000;
  } else if (name == "ring-256") {
    w.app = App::kRing;
    w.n = tiny ? 16 : 256;
    w.exec = exec::ExecModel::kCoop;
    w.latency = jittered_latency();
    w.ring_rounds = tiny ? 12 : 30;
    w.probe_rounds = tiny ? 16 : 512;
    w.bound_ms = 30'000;
  } else {
    return false;
  }
  *out = w;
  return true;
}

// Seed-derived inputs of one job.  Paired FT and raw jobs share them.
struct JobInput {
  std::uint64_t seed = 0;     // fabric jitter
  std::vector<int> hops;      // ring: per-round hop distance
  std::int64_t salt = 0;      // ring: value offset
};

JobInput make_input(const Workload& w, std::uint64_t seed) {
  JobInput in;
  in.seed = seed;
  std::uint64_t s = seed;
  in.salt = static_cast<std::int64_t>(mix(s++) % 1'000'000);
  for (int r = 0; r < w.ring_rounds; ++r) {
    // Neighbour ring with a cross-ring shuffle every fifth round, as in
    // bench/abl_scale; the shuffle distance comes from the seed.
    const int span = std::max(1, w.n - 2);
    in.hops.push_back(r % 5 == 4 ? 2 + static_cast<int>(mix(s++) % span) : 1);
  }
  return in;
}

std::int64_t ring_value(const JobInput& in, int rank, int round) {
  return (rank + 1) * 1'000'003LL + round * 7'919LL + in.salt;
}

// ---------------------------------------------------------------------------
// Spans and per-rank records

enum class SpanKind : std::uint8_t { kRank, kSend, kRecv, kCheckpoint };

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kRank: return "rank";
    case SpanKind::kSend: return "send";
    case SpanKind::kRecv: return "recv";
    case SpanKind::kCheckpoint: return "checkpoint";
  }
  return "?";
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanKind kind = SpanKind::kRank;
  int incarnation = 0;
};

// Written only by the rank's own thread or fiber (incarnations run one after
// another); read by the main thread after the job returns.
struct RankLog {
  std::vector<Span> spans;
  std::vector<std::int64_t> rtt_ns;
  std::vector<double> respawn_ms;
  int incarnations = 0;
  std::int64_t first_entry_ns = 0;
  std::int64_t unwound_ns = 0;
  std::int64_t app_done_ns = 0;
  std::int64_t flood_start_ns = 0;
  std::int64_t flood_end_ns = 0;
  std::uint64_t errors = 0;  // sequence / size / value mismatches
  std::uint64_t sum = 0;     // msgpath, ring: sum of received values
  double checksum = 0;       // lu: verification checksum (rank 0)

  void reset() {
    spans.clear();
    rtt_ns.clear();
    respawn_ms.clear();
    incarnations = 0;
    first_entry_ns = unwound_ns = app_done_ns = 0;
    flood_start_ns = flood_end_ns = 0;
    errors = sum = 0;
    checksum = 0;
  }
};

// Decorates a rank's Comm with a span around every send and recv.
class TracedComm final : public mp::Comm {
 public:
  TracedComm(mp::Comm& inner, RankLog& log, int incarnation)
      : inner_(inner), log_(log), inc_(incarnation) {}

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  void send(int dst, int tag, std::span<const std::uint8_t> payload) override {
    const std::int64_t t0 = now_ns();
    inner_.send(dst, tag, payload);
    log_.spans.push_back({t0, now_ns(), SpanKind::kSend, inc_});
  }
  mp::Message recv(int src, int tag) override {
    const std::int64_t t0 = now_ns();
    mp::Message m = inner_.recv(src, tag);
    log_.spans.push_back({t0, now_ns(), SpanKind::kRecv, inc_});
    return m;
  }
  bool probe(int src, int tag) override { return inner_.probe(src, tag); }

 private:
  mp::Comm& inner_;
  RankLog& log_;
  const int inc_;
};

// What one rank incarnation runs against.
struct RankEnv {
  mp::Comm& comm;  // Ctx, RawComm, or a TracedComm around either
  ft::Ctx* ctx;    // null on the raw reference
  RankLog& log;
  int incarnation;
  bool traced;

  void checkpoint(std::span<const std::uint8_t> blob) {
    if (!ctx) return;
    const std::int64_t t0 = now_ns();
    ctx->checkpoint(blob);
    if (traced) log.spans.push_back({t0, now_ns(), SpanKind::kCheckpoint,
                                     incarnation});
  }
};

util::Bytes seq_payload(std::uint64_t seq) {
  util::Bytes b(kPayloadB, 0x5A);
  std::memcpy(b.data(), &seq, sizeof seq);
  return b;
}

std::uint64_t payload_seq(const mp::Message& m) {
  std::uint64_t seq = ~0ull;
  if (m.payload.size() >= sizeof seq) {
    std::memcpy(&seq, m.payload.data(), sizeof seq);
  }
  return seq;
}

void run_msgpath(const Workload& w, RankEnv& env) {
  util::Bytes payload = seq_payload(0);
  if (env.comm.rank() == 0) {
    env.log.flood_start_ns = now_ns();
    for (int i = 0; i < w.flood_msgs; ++i) {
      const std::uint64_t seq = static_cast<std::uint64_t>(i);
      std::memcpy(payload.data(), &seq, sizeof seq);
      env.comm.send(1, kFloodTag, payload);
    }
  } else if (env.comm.rank() == 1) {
    for (int i = 0; i < w.flood_msgs; ++i) {
      const mp::Message m = env.comm.recv(0, kFloodTag);
      const std::uint64_t seq = payload_seq(m);
      if (m.payload.size() != kPayloadB ||
          seq != static_cast<std::uint64_t>(i)) {
        ++env.log.errors;
      }
      env.log.sum += seq;
      if ((i + 1) % w.ckpt_every_msgs == 0) env.checkpoint(util::to_bytes(i));
    }
    env.log.flood_end_ns = now_ns();
  }
}

void run_ring(const Workload& w, const JobInput& in, RankEnv& env) {
  const int n = env.comm.size();
  const int me = env.comm.rank();
  for (int round = 0; round < w.ring_rounds; ++round) {
    if (round > 0 && round % 10 == 0) env.checkpoint({});
    const int hop = in.hops[static_cast<std::size_t>(round)] % n;
    if (hop == 0) continue;
    const int to = (me + hop) % n;
    const int from = (me - hop + n) % n;
    mp::send_value(env.comm, to, round, ring_value(in, me, round));
    const auto got = mp::recv_value<std::int64_t>(env.comm, from, round);
    if (got != ring_value(in, from, round)) ++env.log.errors;
    env.log.sum += static_cast<std::uint64_t>(got);
  }
}

// Closed-loop ping-pong with one message outstanding, rank 0 <-> rank 1.
void run_probe(const Workload& w, RankEnv& env) {
  const int me = env.comm.rank();
  if (me > 1) return;
  if (me == 0) {
    env.log.rtt_ns.reserve(static_cast<std::size_t>(w.probe_rounds));
    util::Bytes payload = seq_payload(0);
    for (int k = 0; k < w.probe_rounds; ++k) {
      const std::uint64_t seq = static_cast<std::uint64_t>(k);
      std::memcpy(payload.data(), &seq, sizeof seq);
      const std::int64_t t0 = now_ns();
      env.comm.send(1, kProbeTag, payload);
      const mp::Message m = env.comm.recv(1, kProbeTag);
      env.log.rtt_ns.push_back(now_ns() - t0);
      if (m.payload.size() != kPayloadB || payload_seq(m) != seq) {
        ++env.log.errors;
      }
    }
  } else {
    for (int k = 0; k < w.probe_rounds; ++k) {
      const mp::Message m = env.comm.recv(0, kProbeTag);
      env.comm.send(0, kProbeTag, m.payload.span());
    }
  }
}

void run_app(const Workload& w, const JobInput& in, RankEnv& env) {
  switch (w.app) {
    case App::kMsgPath:
      run_msgpath(w, env);
      break;
    case App::kLu: {
      const double cs = npb::run_lu(env.comm, w.lu, env.ctx);
      if (env.comm.rank() == 0) env.log.checksum = cs;
      break;
    }
    case App::kRing:
      run_ring(w, in, env);
      break;
  }
}

// One rank incarnation: application phase, then the ping-pong probe.  The
// guard stamps the unwind of a killed incarnation, so the next incarnation's
// entry yields the respawn time.
void rank_body(const Workload& w, const JobInput& in, mp::Comm& base,
               ft::Ctx* ctx, RankLog& log, bool traced) {
  const int inc = log.incarnations++;
  const std::int64_t entered = now_ns();
  if (inc == 0) {
    log.first_entry_ns = entered;
  } else {
    log.respawn_ms.push_back(static_cast<double>(entered - log.unwound_ns) /
                             1e6);
  }
  struct Guard {
    RankLog& log;
    int inc;
    std::int64_t entered;
    bool traced;
    int exceptions = std::uncaught_exceptions();
    ~Guard() {
      const std::int64_t t = now_ns();
      if (std::uncaught_exceptions() > exceptions) log.unwound_ns = t;
      if (traced) log.spans.push_back({entered, t, SpanKind::kRank, inc});
    }
  } guard{log, inc, entered, traced};

  TracedComm traced_comm(base, log, inc);
  RankEnv env{traced ? static_cast<mp::Comm&>(traced_comm) : base, ctx, log,
              inc, traced};
  run_app(w, in, env);
  log.app_done_ns = now_ns();
  run_probe(w, env);
}

// ---------------------------------------------------------------------------
// Expected outputs

// LU's expectations come from its raw reference job; the other workloads'
// follow from the job inputs.
struct Expect {
  double lu_checksum = 0;
  bool have_lu_checksum = false;
  std::uint64_t lu_msgs = 0;  // app messages of one LU run
  std::uint64_t offset = 0;   // --wrong-expected: added to every expectation
};

std::uint64_t ring_sends(const Workload& w, const JobInput& in) {
  std::uint64_t sends = 0;
  for (int round = 0; round < w.ring_rounds; ++round) {
    if (in.hops[static_cast<std::size_t>(round)] % w.n != 0) sends += w.n;
  }
  return sends;
}

std::uint64_t ring_sum(const Workload& w, const JobInput& in) {
  std::uint64_t sum = 0;
  for (int round = 0; round < w.ring_rounds; ++round) {
    if (in.hops[static_cast<std::size_t>(round)] % w.n == 0) continue;
    for (int r = 0; r < w.n; ++r) {
      sum += static_cast<std::uint64_t>(ring_value(in, r, round));
    }
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Sample pools

struct Pool {
  std::vector<double> v;

  void add(double x) { v.push_back(x); }
  double pct(double p) {  // nearest-rank percentile
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size());
    std::size_t i = static_cast<std::size_t>(std::ceil(rank));
    if (i > 0) --i;
    return v[std::min(i, v.size() - 1)];
  }
  // Highest percentile with at least ten samples beyond it.
  double top_pct() const {
    if (v.size() <= 10) return 0;
    return 100.0 * (1.0 - 10.0 / static_cast<double>(v.size()));
  }
};

struct Pools {
  Pool rtt_us;       // untraced FT jobs
  Pool raw_rtt_us;   // raw jobs
  Pool send_ns;      // traced FT jobs
  Pool recv_wait_ns; // traced FT jobs
};

// ---------------------------------------------------------------------------
// JSON line output

class JsonLine {
 public:
  explicit JsonLine(const char* tag) : s_(tag) { s_ += " {"; }
  JsonLine& num(const char* key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  JsonLine& u64(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& boolean(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonLine& str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return raw(key, q + "\"");
  }
  JsonLine& nums(const char* key, const std::vector<double>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      a += buf;
    }
    return raw(key, a + "]");
  }
  void print() {
    s_ += "}\n";
    std::fputs(s_.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  JsonLine& raw(const char* key, const std::string& lit) {
    if (!first_) s_ += ", ";
    first_ = false;
    s_ += '"';
    s_ += key;
    s_ += "\": ";
    s_ += lit;
    return *this;
  }
  std::string s_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Hang watchdog (the bench/chaos_soak idiom): run_job cannot be cancelled
// from outside, so a job that outlives its bound ends the process after
// printing how to replay it.  run.py counts it as a failed job.

struct Watchdog {
  Watchdog(std::string workload, std::uint64_t seed, int trace,
           double bound_ms)
      : workload_(std::move(workload)), seed_(seed), trace_(trace),
        bound_ms_(bound_ms) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const double armed = armed_at_ms_.load(std::memory_order_acquire);
        if (armed > 0 && util::now_ms() - armed > bound_ms_) {
          std::printf(
              "HANG workload=%s seed=%llu job=%d bound_ms=%.0f replay: "
              "perfbench --workload=%s --seed=%llu --trace=%d --only-job=%d\n",
              workload_.c_str(), static_cast<unsigned long long>(seed_),
              job_.load(), bound_ms_, workload_.c_str(),
              static_cast<unsigned long long>(seed_), trace_, job_.load());
          std::fflush(stdout);
          std::_Exit(3);
        }
      }
    });
  }
  ~Watchdog() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(int job) {
    job_.store(job, std::memory_order_release);
    armed_at_ms_.store(util::now_ms(), std::memory_order_release);
  }
  void disarm() { armed_at_ms_.store(0, std::memory_order_release); }

 private:
  const std::string workload_;
  const std::uint64_t seed_;
  const int trace_;
  const double bound_ms_;
  std::atomic<double> armed_at_ms_{0};
  std::atomic<int> job_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Jobs

enum class Side { kFt, kRaw };

struct JobSpec {
  int index = 0;
  Side side = Side::kFt;
  bool traced = false;
  bool warmup = false;
  JobInput input;
};

// Spans of one job kept for the end-of-run dump.
struct SpanDump {
  std::string label;
  std::int64_t job_start_ns = 0;
  std::int64_t job_end_ns = 0;
  std::vector<std::vector<Span>> ranks;
};

struct Runner {
  const Workload& w;
  Expect expect;
  Pools pools;
  std::vector<RankLog> logs;
  std::vector<SpanDump> dumps;  // first traced FT job and first traced raw job
  std::uint64_t last_raw_packets = 0;

  void run(const JobSpec& job, Watchdog& dog);
};

double percentile_of(std::vector<double> v, double p) {
  Pool pool{std::move(v)};
  return pool.pct(p);
}

void Runner::run(const JobSpec& job, Watchdog& dog) {
  logs.resize(static_cast<std::size_t>(w.n));
  for (auto& l : logs) l.reset();
  const JobInput& in = job.input;
  const char* side = job.side == Side::kFt ? "ft" : "raw";

  JsonLine line("JOB");
  line.u64("job", static_cast<std::uint64_t>(job.index))
      .str("side", side)
      .boolean("traced", job.traced)
      .boolean("warmup", job.warmup)
      .u64("seed", in.seed);
  std::string why;

  dog.arm(job.index);
  const std::uint64_t allocs0 = g_allocs.load();
  const std::uint64_t alloc_b0 = g_alloc_bytes.load();
  const std::int64_t t_call = now_ns();
  ft::JobResult res;
  mp::RawJobResult raw;
  try {
    if (job.side == Side::kFt) {
      ft::JobConfig cfg;
      cfg.n = w.n;
      cfg.protocol = ft::ProtocolKind::kTdi;
      cfg.mode = ft::SendMode::kNonBlocking;
      cfg.latency = w.latency;
      cfg.seed = in.seed;
      cfg.exec_model = w.exec;
      cfg.restart_delay_ms = 5;
      if (w.kill_at > 0) cfg.chaos.push_back(ft::kill_on_delivery(1, w.kill_at));
      res = ft::run_job(cfg, [&](ft::Ctx& ctx) {
        rank_body(w, in, ctx, &ctx,
                  logs[static_cast<std::size_t>(ctx.rank())], job.traced);
      });
    } else {
      raw = mp::run_raw(
          w.n,
          [&](mp::Comm& comm) {
            rank_body(w, in, comm, nullptr,
                      logs[static_cast<std::size_t>(comm.rank())],
                      job.traced);
          },
          w.latency, in.seed, /*fabric_shards=*/0, w.exec);
    }
  } catch (const std::exception& e) {
    why = std::string("exception: ") + e.what();
  } catch (...) {
    why = "exception";
  }
  const std::int64_t t_ret = now_ns();
  const std::uint64_t allocs = g_allocs.load() - allocs0;
  const std::uint64_t alloc_b = g_alloc_bytes.load() - alloc_b0;
  dog.disarm();

  // ---- times ----
  std::int64_t all_in = t_call, app_done = t_call;
  std::uint64_t errors = 0, sum = 0;
  for (const auto& l : logs) {
    all_in = std::max(all_in, l.first_entry_ns);
    app_done = std::max(app_done, l.app_done_ns);
    errors += l.errors;
    sum += l.sum;
  }
  const double setup_ms = static_cast<double>(all_in - t_call) / 1e6;
  const double solve_ms = static_cast<double>(app_done - t_call) / 1e6;
  line.num("setup_ms", setup_ms)
      .num("solve_ms", solve_ms)
      .num("wall_ms", static_cast<double>(t_ret - t_call) / 1e6);

  // ---- verdict ----
  const std::uint64_t off = expect.offset;
  std::uint64_t app_msgs = expect.lu_msgs;
  if (why.empty() && errors > 0) why = "sequence/value mismatch";
  switch (w.app) {
    case App::kMsgPath: {
      const auto n = static_cast<std::uint64_t>(w.flood_msgs);
      app_msgs = n;
      if (why.empty() && sum != n * (n - 1) / 2 + off) {
        why = "wrong sum of received sequence numbers";
      }
      break;
    }
    case App::kRing:
      app_msgs = ring_sends(w, in);
      if (why.empty() && sum != ring_sum(w, in) + off) {
        why = "wrong sum of received ring values";
      }
      break;
    case App::kLu: {
      const double cs = logs[0].checksum;
      if (!expect.have_lu_checksum && job.side == Side::kRaw && why.empty()) {
        expect.lu_checksum = cs;  // the first raw reference is the oracle
        expect.have_lu_checksum = true;
      }
      if (why.empty() && (!expect.have_lu_checksum ||
                          cs != expect.lu_checksum + static_cast<double>(off))) {
        why = "checksum differs from the raw reference";
      }
      break;
    }
  }
  const std::uint64_t recoveries = res.total.recoveries;
  if (why.empty() && job.side == Side::kFt) {
    const std::uint64_t want = w.kill_at > 0 ? 1 : 0;
    if (recoveries != want) {
      why = "saw " + std::to_string(recoveries) + " recoveries, want " +
            std::to_string(want);
    }
  }
  if (why.empty() && job.side == Side::kFt && w.kill_at == 0) {
    const std::uint64_t want =
        app_msgs + 2 * static_cast<std::uint64_t>(w.probe_rounds);
    if (res.total.app_delivered != want) {
      why = "delivered " + std::to_string(res.total.app_delivered) +
            " app messages, want " + std::to_string(want);
    }
  }

  // ---- throughput of the app phase ----
  double app_s = solve_ms / 1e3;
  if (w.app == App::kMsgPath) {
    app_s = static_cast<double>(logs[1].flood_end_ns - logs[0].flood_start_ns) /
            1e9;
  }
  line.u64("app_msgs", app_msgs)
      .num("msgs_per_s", app_s > 0 ? static_cast<double>(app_msgs) / app_s : 0);

  // ---- rtt samples ----
  Pool& rtt_pool = job.side == Side::kFt ? pools.rtt_us : pools.raw_rtt_us;
  std::vector<double> job_rtt;
  for (std::int64_t ns : logs[0].rtt_ns) {
    job_rtt.push_back(static_cast<double>(ns) / 1e3);
  }
  line.num("rtt_p50_us", percentile_of(job_rtt, 50))
      .num("rtt_p99_us", percentile_of(job_rtt, 99));
  if (!job.warmup && (job.side == Side::kRaw || !job.traced)) {
    for (double v : job_rtt) rtt_pool.add(v);
  }

  if (job.side == Side::kRaw) {
    line.u64("packets", raw.packets);
    last_raw_packets = raw.packets;
  } else {
    const ft::Metrics& m = res.total;
    std::vector<double> respawn;
    for (const auto& l : logs) {
      respawn.insert(respawn.end(), l.respawn_ms.begin(), l.respawn_ms.end());
    }
    line.u64("recoveries", recoveries)
        .u64("app_sent", m.app_sent)
        .u64("app_delivered", m.app_delivered)
        .u64("control_msgs", m.control_msgs)
        .u64("resent_msgs", m.resent_msgs)
        .u64("rollback_broadcasts", m.rollback_broadcasts)
        .num("track_ns", static_cast<double>(m.track_send_ns +
                                             m.track_deliver_ns))
        .u64("piggyback_bytes", m.piggyback_bytes)
        .num("ckpt_stall_ns", static_cast<double>(m.ckpt_stall_ns))
        .u64("checkpoints", m.checkpoints)
        .u64("log_peak_bytes", m.log_peak_bytes)
        .u64("packets_recycled", m.packets_recycled)
        .u64("packets_sent", res.fabric.packets_sent)
        .u64("dropped", res.fabric.packets_dropped_dead +
                            res.fabric.packets_dropped_chaos)
        .u64("allocs", allocs)
        .u64("alloc_bytes", alloc_b)
        .nums("respawn_ms", respawn);
  }

  // ---- traced: self times from spans ----
  if (job.traced) {
    double self_ns_total = 0;
    for (std::size_t r = 0; r < logs.size(); ++r) {
      double rank_ns = 0, child_ns = 0;
      for (const Span& s : logs[r].spans) {
        const double d = static_cast<double>(s.end_ns - s.start_ns);
        if (s.kind == SpanKind::kRank) {
          rank_ns += d;
        } else if (s.kind != SpanKind::kCheckpoint) {
          child_ns += d;
        }
        if (job.side == Side::kFt && !job.warmup) {
          if (s.kind == SpanKind::kSend) pools.send_ns.add(d);
          if (s.kind == SpanKind::kRecv) pools.recv_wait_ns.add(d);
        }
      }
      // Checkpoints inside the NPB skeleton are not visible from outside;
      // the library's own stall counter covers every checkpoint call.
      double ckpt_ns = 0;
      if (job.side == Side::kFt && r < res.per_rank.size()) {
        ckpt_ns = static_cast<double>(res.per_rank[r].ckpt_stall_ns);
      }
      self_ns_total += std::max(0.0, rank_ns - child_ns - ckpt_ns);
    }
    line.num("compute_ms", self_ns_total / static_cast<double>(w.n) / 1e6);

    const bool want_dump =
        !job.warmup &&
        std::none_of(dumps.begin(), dumps.end(),
                     [&](const SpanDump& d) { return d.label == side; });
    if (want_dump) {
      SpanDump d;
      d.label = side;
      d.job_start_ns = t_call;
      d.job_end_ns = t_ret;
      for (const auto& l : logs) d.ranks.push_back(l.spans);
      dumps.push_back(std::move(d));
    }
  }

  line.boolean("ok", why.empty()).str("why", why);
  line.print();
}

// Writes the kept spans as CSV: id, parent, name, rank, incarnation, start
// and end (ns, relative to the job start).
bool write_spans(const std::string& path, const std::vector<SpanDump>& dumps) {
  std::ofstream f(path);
  if (!f) return false;
  f << "job,id,parent,name,rank,incarnation,start_ns,end_ns\n";
  for (const SpanDump& d : dumps) {
    std::uint64_t id = 0;
    const std::uint64_t job_id = id++;
    f << d.label << ',' << job_id << ",," << "job,,," << 0 << ','
      << d.job_end_ns - d.job_start_ns << '\n';
    for (std::size_t r = 0; r < d.ranks.size(); ++r) {
      // Rank incarnation spans first, so calls can name their parent.
      std::vector<std::uint64_t> inc_id;
      for (const Span& s : d.ranks[r]) {
        if (s.kind != SpanKind::kRank) continue;
        if (inc_id.size() <= static_cast<std::size_t>(s.incarnation)) {
          inc_id.resize(static_cast<std::size_t>(s.incarnation) + 1, job_id);
        }
        inc_id[static_cast<std::size_t>(s.incarnation)] = id;
        f << d.label << ',' << id++ << ',' << job_id << ",rank," << r << ','
          << s.incarnation << ',' << s.start_ns - d.job_start_ns << ','
          << s.end_ns - d.job_start_ns << '\n';
      }
      for (const Span& s : d.ranks[r]) {
        if (s.kind == SpanKind::kRank) continue;
        const auto inc = static_cast<std::size_t>(s.incarnation);
        f << d.label << ',' << id++ << ','
          << (inc < inc_id.size() ? inc_id[inc] : job_id) << ','
          << to_string(s.kind) << ',' << r << ',' << s.incarnation << ','
          << s.start_ns - d.job_start_ns << ',' << s.end_ns - d.job_start_ns
          << '\n';
      }
    }
  }
  return static_cast<bool>(f);
}

void print_config(const Workload& w, std::uint64_t seed, int trace,
                  double seconds) {
  const exec::ExecModel em = exec::resolve_exec_model(w.exec);
  // Endpoints the fabric hosts: ranks (TDI runs no event logger).
  const net::InboxConfig inbox = net::resolve_inbox_config(w.n);
  JsonLine line("CONFIG");
  line.str("workload", w.name)
      .u64("seed", seed)
      .u64("trace", static_cast<std::uint64_t>(trace))
      .num("seconds", seconds)
      .u64("nproc", std::thread::hardware_concurrency())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .u64("ranks", static_cast<std::uint64_t>(w.n))
      .str("protocol", "TDI")
      .str("send_mode", "nonblocking")
      .str("exec_model", exec::to_string(em))
      .u64("exec_workers", em == exec::ExecModel::kCoop
                               ? static_cast<std::uint64_t>(
                                     exec::Scheduler::default_workers())
                               : 0)
      .u64("fabric_shards",
           static_cast<std::uint64_t>(net::Fabric::default_shards()))
      .str("inbox", inbox.kind == net::InboxKind::kQueue ? "queue" : "ring")
      .u64("inbox_capacity", inbox.capacity)
      .num("latency_base_ns", static_cast<double>(w.latency.base.count()))
      .num("latency_jitter_ns", static_cast<double>(w.latency.jitter.count()))
      .u64("flood_msgs", static_cast<std::uint64_t>(w.flood_msgs))
      .u64("probe_rounds", static_cast<std::uint64_t>(w.probe_rounds))
      .u64("kill_at", w.kill_at);
  std::string env;
  for (char** e = environ; e && *e; ++e) {
    if (std::strncmp(*e, "WINDAR_", 7) == 0) {
      if (!env.empty()) env += ' ';
      env += *e;
    }
  }
  line.str("windar_env", env);
  line.print();
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const std::string name = opts.str(
      "workload", "", "msgpath-64 | lu-4 | lu-4-fault | ring-256");
  const auto seed =
      static_cast<std::uint64_t>(opts.integer("seed", 1, "workload seed"));
  const double seconds =
      opts.real("seconds", 10, "measurement budget (whole job cycles)");
  const int trace = static_cast<int>(
      opts.integer("trace", 0, "1: traced run for per-layer numbers"));
  const int first_job = static_cast<int>(
      opts.integer("first-job", 0, "index of the first job (after a hang)"));
  const int only_job = static_cast<int>(
      opts.integer("only-job", -1, "run just this job index (replay)"));
  const bool tiny = opts.flag("tiny", false, "tiny sizes (self-test only)");
  const bool wrong = opts.flag(
      "wrong-expected", false, "offset every expected value (self-test)");
  const std::string trace_out =
      opts.str("trace-out", "", "write the kept spans to this CSV file");
  opts.finish();

  Workload w;
  if (!make_workload(name, tiny, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  print_config(w, seed, trace, seconds);

  Runner runner{w, {}, {}, {}, {}, 0};
  runner.expect.offset = wrong ? 1 : 0;
  Watchdog dog(w.name, seed, trace, w.bound_ms);

  // One cycle pairs FT and raw jobs on the same inputs; the traced run adds
  // an untraced FT job per cycle to measure the tracing overhead.
  struct Slot {
    Side side;
    bool traced;
  };
  const std::vector<Slot> cycle =
      trace ? std::vector<Slot>{{Side::kFt, true}, {Side::kRaw, true},
                                {Side::kFt, false}}
            : std::vector<Slot>{{Side::kRaw, false}, {Side::kFt, false}};
  const int per_cycle = static_cast<int>(cycle.size());
  auto spec_for = [&](int index, bool warmup) {
    const Slot& slot = cycle[static_cast<std::size_t>(index % per_cycle)];
    JobSpec s;
    s.side = slot.side;
    s.traced = slot.traced;
    s.index = index;
    s.warmup = warmup;
    s.input = make_input(w, mix(seed * 1'000'003ull +
                                static_cast<std::uint64_t>(index / per_cycle)));
    return s;
  };

  if (w.app == App::kLu) {
    // The raw reference defines the expected checksum and message count.
    // It counts as an attempted (warm-up) job like any other.
    JobSpec ref = spec_for(0, true);
    ref.side = Side::kRaw;
    ref.traced = false;
    runner.run(ref, dog);
    // Raw packets are exactly the application's messages, probe included.
    const auto probe_msgs = 2 * static_cast<std::uint64_t>(w.probe_rounds);
    runner.expect.lu_msgs = runner.last_raw_packets > probe_msgs
                                ? runner.last_raw_packets - probe_msgs
                                : 0;
  }

  if (only_job >= 0) {
    runner.run(spec_for(only_job, false), dog);
  } else {
    // Warm-up cycle: caches, pools and lazy set-up settle; checked but not
    // timed.  Job indices continue from --first-job after a hang.
    int index = first_job;
    if (first_job == 0) {
      for (int k = 0; k < per_cycle; ++k) runner.run(spec_for(index++, true), dog);
    }
    const double t0 = util::now_ms();
    while (util::now_ms() - t0 < seconds * 1e3) {
      for (int k = 0; k < per_cycle; ++k) runner.run(spec_for(index++, false), dog);
    }
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Pools& p = runner.pools;
  JsonLine pool("POOL");
  pool.num("rss_peak_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  auto add = [&](const char* key, Pool& s) {
    const std::string k(key);
    pool.u64((k + "_n").c_str(), s.v.size())
        .num((k + "_p50").c_str(), s.pct(50))
        .num((k + "_p99").c_str(), s.pct(99))
        .num((k + "_top_pct").c_str(), s.top_pct())
        .num((k + "_top").c_str(), s.pct(s.top_pct()));
  };
  add("rtt_us", p.rtt_us);
  add("raw_rtt_us", p.raw_rtt_us);
  add("send_ns", p.send_ns);
  add("recv_wait_ns", p.recv_wait_ns);
  pool.print();

  if (!trace_out.empty() && !runner.dumps.empty() &&
      !write_spans(trace_out, runner.dumps)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  return 0;
}
