// TEL's stable-storage event logger — one shard of it.
//
// The stability plane is sharded by sender rank: a job runs `shards` logger
// instances, shard i serving fabric endpoint n + i and committing
// determinants for exactly the ranks with rank % shards == i.  The seed's
// single-logger deployment is shards == 1.  Each shard runs two threads:
//
//   * a serve thread that drains the shard's inbox — kTelLog batches are
//     queued for commit, queries and checkpoint advances act on the
//     committed store directly;
//   * a commit thread that drains *all* queued kTelLog packets into one
//     commit round, pays the storage delay once for the round, and then
//     sends ONE kTelAck per affected rank carrying that rank's contiguous
//     stability watermark.
//
// The batched ack is sound because the watermark is contiguous: a single
// ack retires every determinant the round covered for that owner, so ack
// traffic scales with commit rounds, not with message rate.  A kTelLog
// batch that is queued (or in flight) when its sender dies was never acked,
// so its determinants were still being piggybacked and survivors hold
// copies — dropping or later committing it loses no stability.
//
// The logger itself never fails (stable storage assumption in [5]).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "windar/determinant.h"
#include "windar/seqset.h"
#include "windar/wire.h"

namespace windar::ft {

/// Resolves a configured logger shard count: a positive value wins, else
/// WINDAR_LOGGER_SHARDS (a positive integer), else 1 (the single-logger
/// seed behaviour).
int resolve_logger_shards(int configured);

/// Event-logger counters, summed over a job's shards.
struct LoggerStats {
  std::uint64_t batches = 0;        // kTelLog packets committed
  std::uint64_t determinants = 0;   // still stored at job end
  std::uint64_t commit_rounds = 0;  // storage-delay commits taken
  std::uint64_t acks = 0;           // kTelAck packets sent
};

class EventLogger;

/// Stops every shard (so in-flight commit rounds are counted) and sums
/// their counters.
LoggerStats stop_loggers(
    const std::vector<std::unique_ptr<EventLogger>>& loggers);

class EventLogger {
 public:
  struct Params {
    int endpoint = -1;   // this shard's fabric endpoint id
    int ranks = 0;       // number of application ranks
    std::chrono::microseconds storage_delay{5};
    // Sharded deployment: this instance commits determinants for the ranks
    // with rank % shards == shard_index.  The defaults are the seed's
    // single-logger layout.
    int shards = 1;
    int shard_index = 0;
  };

  EventLogger(net::Transport& transport, Params params);
  ~EventLogger();

  EventLogger(const EventLogger&) = delete;
  EventLogger& operator=(const EventLogger&) = delete;

  /// Stops both threads (idempotent; also called by the destructor).
  /// Queued-but-uncommitted batches are dropped — they were never acked, so
  /// nothing ever depended on their stability.
  void stop();

  std::size_t stored_determinants() const;
  /// kTelLog packets committed (the seed's per-packet "batch" count).
  std::uint64_t batches() const;
  /// Commit rounds taken — each paid one storage delay, whatever it drained.
  std::uint64_t commit_rounds() const;
  /// kTelAck packets sent (one per affected rank per commit round).
  std::uint64_t acks_sent() const;

  /// Test hooks: freeze the commit thread so several kTelLog packets pile
  /// into a single commit round, then release it.  pending_for_test() lets a
  /// test wait for the serve thread to queue an expected number of batches
  /// before releasing (delivery is asynchronous).
  void pause_commits();
  void resume_commits();
  std::size_t pending_for_test() const;

 private:
  void serve();
  void handle(net::Packet&& p);
  void commit_loop();
  void commit_round(std::vector<net::Packet> batch);

  net::Transport& transport_;
  Params params_;

  mutable std::mutex mu_;
  // Per-rank stored determinants (deliver_seq -> det) and contiguous
  // stability tracking for the ack watermark.
  std::vector<std::map<SeqNo, Determinant>> store_;
  std::vector<SeqSet> seen_;
  std::uint64_t batches_ = 0;
  std::uint64_t commit_rounds_ = 0;
  std::uint64_t acks_sent_ = 0;

  // Commit queue: serve thread produces, commit thread drains whole.
  mutable std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  std::deque<net::Packet> pending_;
  bool paused_ = false;
  bool stopping_ = false;

  std::thread serve_thread_;
  std::thread commit_thread_;
};

}  // namespace windar::ft
