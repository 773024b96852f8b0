#include "windar/event_logger.h"

#include <algorithm>
#include <iterator>

#include "util/check.h"
#include "util/parse.h"

namespace windar::ft {

int resolve_logger_shards(int configured) {
  if (configured > 0) return configured;
  return static_cast<int>(util::env_int("WINDAR_LOGGER_SHARDS").value_or(1));
}

EventLogger::EventLogger(net::Transport& transport, Params params)
    : transport_(transport),
      params_(params),
      store_(static_cast<std::size_t>(params.ranks)),
      seen_(static_cast<std::size_t>(params.ranks)) {
  WINDAR_CHECK_GE(params_.endpoint, 0) << "logger needs an endpoint";
  WINDAR_CHECK_GT(params_.shards, 0) << "logger needs a shard count";
  WINDAR_CHECK(params_.shard_index >= 0 && params_.shard_index < params_.shards)
      << "bad logger shard index";
  commit_thread_ = std::thread([this] { commit_loop(); });
  serve_thread_ = std::thread([this] { serve(); });
}

EventLogger::~EventLogger() { stop(); }

void EventLogger::stop() {
  transport_.endpoint(params_.endpoint).inbox().poison();
  if (serve_thread_.joinable()) serve_thread_.join();
  {
    std::scoped_lock lock(pending_mu_);
    stopping_ = true;
  }
  pending_cv_.notify_all();
  if (commit_thread_.joinable()) commit_thread_.join();
}

void EventLogger::serve() {
  auto& inbox = transport_.endpoint(params_.endpoint).inbox();
  while (auto p = inbox.pop()) {
    handle(std::move(*p));
  }
}

void EventLogger::handle(net::Packet&& p) {
  const int owner = p.src;
  WINDAR_CHECK(owner >= 0 && owner < params_.ranks) << "bad logger client";
  WINDAR_CHECK_EQ(owner % params_.shards, params_.shard_index)
      << "rank " << owner << " routed to the wrong logger shard";
  switch (static_cast<Kind>(p.kind)) {
    case Kind::kTelLog: {
      // Queue for the commit thread; the ack follows the commit round.
      {
        std::scoped_lock lock(pending_mu_);
        pending_.push_back(std::move(p));
      }
      pending_cv_.notify_one();
      break;
    }
    case Kind::kTelQuery: {
      // An incarnation asks for every stored determinant about its own
      // deliveries.  A batch still queued (or in flight) was never acked —
      // its determinants were unstable, survivors hold copies — so replying
      // from the committed store alone is complete for recovery.
      std::vector<Determinant> dets;
      {
        std::scoped_lock lock(mu_);
        for (const auto& [seq, det] :
             store_[static_cast<std::size_t>(owner)]) {
          (void)seq;
          dets.push_back(det);
        }
      }
      util::ByteWriter w;
      write_determinants(w, dets);
      transport_.send(control_packet(params_.endpoint, owner,
                                  Kind::kTelQueryReply, 0, w.take()));
      break;
    }
    case Kind::kCheckpointAdvance: {
      // The owner checkpointed after `seq` deliveries; earlier determinants
      // can never be replayed again.  (A pre-checkpoint batch committed
      // after this advance is released by the owner's next advance.)
      std::scoped_lock lock(mu_);
      auto& per_owner = store_[static_cast<std::size_t>(owner)];
      while (!per_owner.empty() &&
             per_owner.begin()->first <= static_cast<SeqNo>(p.seq)) {
        per_owner.erase(per_owner.begin());
      }
      break;
    }
    default:
      WINDAR_CHECK(false) << "logger got unexpected kind " << p.kind;
  }
}

void EventLogger::commit_loop() {
  for (;;) {
    std::vector<net::Packet> batch;
    {
      std::unique_lock lock(pending_mu_);
      pending_cv_.wait(lock, [&] {
        return stopping_ || (!pending_.empty() && !paused_);
      });
      if (stopping_) return;
      batch.assign(std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(pending_.end()));
      pending_.clear();
    }
    // Stable-storage commit: one delay per round, however many kTelLog
    // packets the round drained — this is the sharded logger's second lever
    // against the seed's per-packet serialization.
    if (params_.storage_delay.count() > 0) {
      std::this_thread::sleep_for(params_.storage_delay);
    }
    commit_round(std::move(batch));
  }
}

void EventLogger::commit_round(std::vector<net::Packet> batch) {
  std::vector<int> owners;  // arrival order, deduped
  std::vector<SeqNo> watermarks;
  {
    std::scoped_lock lock(mu_);
    for (const auto& p : batch) {
      const int owner = p.src;
      ++batches_;
      auto& per_owner = store_[static_cast<std::size_t>(owner)];
      auto& seen = seen_[static_cast<std::size_t>(owner)];
      util::ByteReader r(p.payload);
      const auto dets = read_determinants(r);
      for (const auto& d : dets) {
        WINDAR_CHECK_EQ(static_cast<int>(d.receiver), owner)
            << "logger: rank logging a foreign determinant";
        per_owner.emplace(d.deliver_seq, d);
        seen.add(d.deliver_seq);
      }
      if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
        owners.push_back(owner);
      }
    }
    ++commit_rounds_;
    for (int o : owners) {
      watermarks.push_back(seen_[static_cast<std::size_t>(o)].watermark());
    }
    acks_sent_ += owners.size();
  }
  // One ack per affected rank: the contiguous watermark retires every
  // determinant this round (and any earlier round) covered for that owner.
  for (std::size_t i = 0; i < owners.size(); ++i) {
    transport_.send(control_packet(params_.endpoint, owners[i],
                                   Kind::kTelAck, watermarks[i]));
  }
}

std::size_t EventLogger::pending_for_test() const {
  std::scoped_lock lock(pending_mu_);
  return pending_.size();
}

void EventLogger::pause_commits() {
  std::scoped_lock lock(pending_mu_);
  paused_ = true;
}

void EventLogger::resume_commits() {
  {
    std::scoped_lock lock(pending_mu_);
    paused_ = false;
  }
  pending_cv_.notify_all();
}

std::size_t EventLogger::stored_determinants() const {
  std::scoped_lock lock(mu_);
  std::size_t total = 0;
  for (const auto& per_owner : store_) total += per_owner.size();
  return total;
}

std::uint64_t EventLogger::batches() const {
  std::scoped_lock lock(mu_);
  return batches_;
}

std::uint64_t EventLogger::commit_rounds() const {
  std::scoped_lock lock(mu_);
  return commit_rounds_;
}

std::uint64_t EventLogger::acks_sent() const {
  std::scoped_lock lock(mu_);
  return acks_sent_;
}

LoggerStats stop_loggers(
    const std::vector<std::unique_ptr<EventLogger>>& loggers) {
  LoggerStats total;
  for (const auto& logger : loggers) {
    logger->stop();
    total.batches += logger->batches();
    total.determinants += logger->stored_determinants();
    total.commit_rounds += logger->commit_rounds();
    total.acks += logger->acks_sent();
  }
  return total;
}

}  // namespace windar::ft
