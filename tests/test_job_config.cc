// One job configuration: resolve_job_config turns every environment
// sentinel into a concrete value, run_job echoes what it ran, worker
// processes receive every engine field the in-process runtime uses, and a
// malformed WINDAR_* knob is fatal instead of silently defaulted.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exec/scheduler.h"
#include "net/fabric.h"
#include "net/transport.h"
#include "windar/launcher.h"
#include "windar/runtime.h"

namespace windar::ft {
namespace {

/// Sets (or, with nullptr, unsets) an environment variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(ResolveJobConfig, ProtocolWithoutLoggerGetsNoShards) {
  JobConfig cfg;
  cfg.protocol = ProtocolKind::kTdi;
  cfg.logger_shards = 3;
  EXPECT_EQ(resolve_job_config(cfg).logger_shards, 0);
}

TEST(ResolveJobConfig, LoggerShardsFromEnvClampToRanks) {
  ScopedEnv env("WINDAR_LOGGER_SHARDS", "4");
  JobConfig cfg;
  cfg.n = 2;
  cfg.protocol = ProtocolKind::kTel;
  EXPECT_EQ(resolve_job_config(cfg).logger_shards, 2);
}

TEST(ResolveJobConfig, CheckpointKnobsComeOutConcrete) {
  JobConfig cfg;
  {
    ScopedEnv mode("WINDAR_CKPT", nullptr);
    ScopedEnv anchor("WINDAR_CKPT_ANCHOR_K", nullptr);
    const JobConfig r = resolve_job_config(cfg);
    EXPECT_EQ(r.ckpt_async, 1);
    EXPECT_EQ(r.ckpt_delta_anchor, 8u);
  }
  {
    ScopedEnv mode("WINDAR_CKPT", "sync");
    ScopedEnv anchor("WINDAR_CKPT_ANCHOR_K", "3");
    const JobConfig r = resolve_job_config(cfg);
    EXPECT_EQ(r.ckpt_async, 0);
    EXPECT_EQ(r.ckpt_delta_anchor, 3u);
    cfg.ckpt_async = 1;  // an explicit setting beats the environment
    cfg.ckpt_delta_anchor = 5;
    EXPECT_EQ(resolve_job_config(cfg).ckpt_async, 1);
    EXPECT_EQ(resolve_job_config(cfg).ckpt_delta_anchor, 5u);
  }
}

TEST(ResolveJobConfig, EverySentinelResolvedAndIdempotent) {
  JobConfig cfg;
  cfg.n = 3;
  cfg.protocol = ProtocolKind::kPes;
  const JobConfig r = resolve_job_config(cfg);
  EXPECT_NE(r.exec_model, exec::ExecModel::kAuto);
  EXPECT_GT(r.exec_workers, 0);
  EXPECT_GT(r.fabric_shards, 0);
  EXPECT_LE(r.fabric_shards, r.n + r.logger_shards);
  EXPECT_GE(r.logger_shards, 1);
  EXPECT_GE(r.ckpt_async, 0);
  EXPECT_GT(r.ckpt_delta_anchor, 0u);
  EXPECT_EQ(resolve_job_config(r), r);
}

TEST(ResolveJobConfig, RunJobEchoesTheResolvedConfig) {
  JobConfig cfg;
  cfg.n = 2;
  cfg.protocol = ProtocolKind::kTel;
  cfg.latency = net::LatencyModel::deterministic();
  const JobResult result = run_job(cfg, [](Ctx& ctx) {
    if (ctx.rank() == 0) {
      mp::send_value(ctx, 1, 0, 42);
    } else {
      EXPECT_EQ(mp::recv_value<int>(ctx, 0, 0), 42);
    }
  });
  EXPECT_EQ(result.config, resolve_job_config(cfg));
}

TEST(ResolveJobConfigDeathTest, KillTargetMustBeARank) {
  // Both runtimes resolve through here, so a kill that could never land on
  // a rank aborts up front in either one instead of being ignored.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  net::ChaosEvent external = kill_on_delivery(0, 1);
  external.target = 7;
  net::ChaosEvent any_endpoint = kill_on_delivery(0, 1);
  any_endpoint.endpoint = -1;
  JobConfig cfg;
  cfg.n = 2;
  for (const net::ChaosEvent& bad :
       {kill_on_delivery(7, 1), external, any_endpoint}) {
    cfg.chaos = {bad};
    EXPECT_DEATH(resolve_job_config(cfg), "chaos kill target must be a rank");
  }
  external.target = 1;
  cfg.chaos = {kill_on_delivery(1, 1), external,
               duplicate_on_send(-1, Kind::kRollback)};
  EXPECT_EQ(resolve_job_config(cfg).chaos, cfg.chaos);
}

TEST(WorkerFlags, EveryForwardedFieldRoundTrips) {
  // Every JobConfig field that reaches ProcessParams or CheckpointStore in
  // process, set away from its default.
  JobConfig job;
  job.n = 6;
  job.protocol = ProtocolKind::kPes;
  job.mode = SendMode::kBlocking;
  job.seed = 99;
  job.eager_threshold = 1234;
  job.rollback_retry = std::chrono::milliseconds(7);
  job.rollback_retry_cap = std::chrono::milliseconds(77);
  job.logger_shards = 3;
  job.ckpt_async = 0;
  job.ckpt_delta_anchor = 5;
  job.replay_burst = 9;
  job = resolve_job_config(job);

  WorkerConfig w;
  w.job = job;
  w.rank = 4;
  w.dir = "/job dir";
  w.incarnation = 3;
  w.recovering = true;
  w.timeout_ms = 1500.25;
  w.chaos = {kill_on_delivery(2, 5, 40), kill_on_send(1, Kind::kRollback, 2)};

  std::vector<std::string> args = {"worker", "--app-flag=1"};
  for (std::string& f : encode_worker(w)) args.push_back(std::move(f));
  args.push_back("positional");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  ASSERT_TRUE(WorkerConfig::is_worker_invocation(
      static_cast<int>(argv.size()), argv.data()));
  const WorkerConfig back =
      WorkerConfig::parse(static_cast<int>(argv.size()), argv.data());

  // The worker's JobConfig keeps only forwarded fields; the rest stay at
  // their defaults on both sides of this comparison.
  JobConfig forwarded;
  forwarded.n = job.n;
  forwarded.protocol = job.protocol;
  forwarded.mode = job.mode;
  forwarded.seed = job.seed;
  forwarded.eager_threshold = job.eager_threshold;
  forwarded.rollback_retry = job.rollback_retry;
  forwarded.rollback_retry_cap = job.rollback_retry_cap;
  forwarded.logger_shards = job.logger_shards;
  forwarded.ckpt_async = job.ckpt_async;
  forwarded.ckpt_delta_anchor = job.ckpt_delta_anchor;
  forwarded.replay_burst = job.replay_burst;
  EXPECT_EQ(back.job, forwarded);
  EXPECT_EQ(back.rank, w.rank);
  EXPECT_EQ(back.dir, w.dir);
  EXPECT_EQ(back.incarnation, w.incarnation);
  EXPECT_EQ(back.recovering, w.recovering);
  EXPECT_EQ(back.timeout_ms, w.timeout_ms);
  EXPECT_EQ(back.chaos, w.chaos);
  EXPECT_EQ(back.app_args,
            (std::vector<std::string>{"worker", "--app-flag=1", "positional"}));
  EXPECT_EQ(process_params(back.job, back.rank, back.incarnation),
            process_params(job, w.rank, w.incarnation));
}

TEST(WorkerFlagsDeathTest, UnknownOrMalformedFlagIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"--windar-bogus=1", "--windar-n=four",
                          "--windar-recovering=yes", "--windar-mode=Blocking"}) {
    std::vector<std::string> args = {"worker", "--windar-rank=0",
                                     "--windar-n=2", "--windar-dir=/d", bad};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    EXPECT_DEATH(WorkerConfig::parse(static_cast<int>(argv.size()),
                                     argv.data()),
                 "windar panic")
        << bad;
  }
}

TEST(EnvKnobsDeathTest, MalformedValueIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  struct BadKnob {
    const char* name;
    const char* value;
    std::function<void()> resolve;
  };
  const std::vector<BadKnob> table = {
      {"WINDAR_EXEC", "bogus",
       [] { exec::resolve_exec_model(exec::ExecModel::kAuto); }},
      {"WINDAR_EXEC_WORKERS", "4x", [] { exec::Scheduler::default_workers(); }},
      {"WINDAR_TRANSPORT", "bogus", [] { net::default_transport(); }},
      {"WINDAR_FABRIC_SHARDS", "two", [] { net::Fabric::default_shards(); }},
      {"WINDAR_FABRIC_SHARDS", "0", [] { net::Fabric::default_shards(); }},
      {"WINDAR_CKPT", "Sync", [] { resolve_ckpt_async(-1); }},
      {"WINDAR_CKPT_ANCHOR_K", "8k", [] { resolve_ckpt_anchor(0); }},
      {"WINDAR_LOGGER_SHARDS", "garbage", [] { resolve_logger_shards(0); }},
      {"WINDAR_STALL_DUMP_MS", "soon", [] { Process::stall_dump_period_ms(); }},
  };
  for (const BadKnob& knob : table) {
    EXPECT_DEATH(
        {
          ::setenv(knob.name, knob.value, 1);
          knob.resolve();
        },
        knob.name)
        << knob.name << "=" << knob.value;
  }
}

TEST(EnvKnobs, WellFormedValuesAreRead) {
  {
    ScopedEnv env("WINDAR_EXEC", "coop");
    EXPECT_EQ(exec::resolve_exec_model(exec::ExecModel::kAuto),
              exec::ExecModel::kCoop);
  }
  {
    ScopedEnv env("WINDAR_TRANSPORT", "socket");
    EXPECT_EQ(net::default_transport(), net::TransportKind::kSocket);
  }
  {
    ScopedEnv env("WINDAR_FABRIC_SHARDS", "3");
    EXPECT_EQ(net::Fabric::default_shards(), 3);
  }
  {
    ScopedEnv env("WINDAR_CKPT", "async");
    EXPECT_TRUE(resolve_ckpt_async(-1));
  }
}

}  // namespace
}  // namespace windar::ft
