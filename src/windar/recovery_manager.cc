#include "windar/recovery_manager.h"

#include <algorithm>

#include "util/check.h"
#include "util/clock.h"
#include "windar/codec.h"

namespace windar::ft {

RecoveryManager::RecoveryManager(net::Transport& transport, CheckpointStore& store,
                                 const ProcessParams& params,
                                 ChannelState& channels, SenderLog& log,
                                 ProtocolHost& tracker, SendPath& send_path,
                                 SharedMetrics& metrics)
    : transport_(transport),
      store_(store),
      params_(params),
      channels_(channels),
      log_(log),
      tracker_(tracker),
      send_path_(send_path),
      metrics_(metrics),
      needs_gather_(tracker.needs_determinant_gather()),
      uses_event_logger_(tracker.uses_event_logger()),
      response_seen_(static_cast<std::size_t>(params.n), 0),
      retry_interval_(params.rollback_retry) {}

RecoveryManager::~RecoveryManager() { stop_writer(true); }

// ---------------------------------------------------------------------------
// recovering side
// ---------------------------------------------------------------------------

void RecoveryManager::restore_from_checkpoint() {
  std::scoped_lock lock(mu_);
  recovering_ = true;
  metrics_.update([](Metrics& m) { ++m.recoveries; });
  auto image = store_.load(params_.rank);
  if (image) {
    restored_app_ = std::move(image->app);
    util::ByteReader pr(image->proto);
    tracker_.with([&](LoggingProtocol& proto) { proto.restore(pr); });
    channels_.restore(std::move(image->last_send),
                      std::move(image->last_deliver),
                      image->delivered_total);
    util::ByteReader lr(image->log);
    log_.restore(lr);
    ckpt_seq_ = image->ckpt_seq;
  }
  // No RESPONSE will come from ourselves; suppress re-sends we know our own
  // pre-checkpoint state already covers.
  response_seen_[static_cast<std::size_t>(params_.rank)] = 1;
  responses_pending_ = params_.n - 1;
  logger_reply_pending_ = uses_event_logger_;
  const auto [last_deliver, delivered_total] = channels_.deliver_snapshot();
  if (needs_gather_) {
    tracker_.with(
        [&](LoggingProtocol& proto) { proto.begin_replay(delivered_total); });
    gather_done_.store(false, std::memory_order_release);
  }
  if (params_.trace) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kRecover;
    ev.rank = params_.rank;
    ev.incarnation = params_.incarnation;
    ev.deliver_seq = delivered_total;
    ev.restored_deliver = last_deliver;
    params_.trace->record(std::move(ev));
  }

  channels_.set_self_rollback_watermark();
  // Self-channel recovery: logged self-sends that were not yet delivered
  // must be re-injected locally (no peer will resend them for us).
  const auto me = static_cast<std::size_t>(params_.rank);
  log_.for_each_from(params_.rank, last_deliver[me], [&](const LogEntry& e) {
    metrics_.update([](Metrics& m) { ++m.resent_msgs; });
    transport_.send(app_packet(params_.rank, params_.rank, e.tag, e.send_index,
                            e.meta, e.payload));
  });
}

void RecoveryManager::announce_rollback() {
  std::scoped_lock lock(mu_);
  broadcast_rollback_locked();
}

void RecoveryManager::broadcast_rollback_locked() {
  const auto [last_deliver, delivered_total] = channels_.deliver_snapshot();
  (void)delivered_total;
  const util::Buffer payload = encode_rollback_body(last_deliver);
  for (int j = 0; j < params_.n; ++j) {
    if (response_seen_[static_cast<std::size_t>(j)]) continue;
    send_path_.send_control(j, Kind::kRollback, params_.incarnation, payload);
  }
  if (logger_reply_pending_) {
    send_path_.send_control(params_.logger_endpoint, Kind::kTelQuery, 0, {});
  }
  metrics_.update([](Metrics& m) { ++m.rollback_broadcasts; });
  last_rollback_bcast_ = Clock::now();
}

void RecoveryManager::update_gather_done_locked() {
  if (!needs_gather_) {
    gather_done_.store(true, std::memory_order_release);
    return;
  }
  gather_done_.store(responses_pending_ == 0 && !logger_reply_pending_,
                     std::memory_order_release);
}

bool RecoveryManager::retry_pending() const {
  std::scoped_lock lock(mu_);
  return recovering_ && (responses_pending_ > 0 || logger_reply_pending_);
}

bool RecoveryManager::work_pending() const {
  return replay_pending_.load(std::memory_order_acquire) || retry_pending();
}

// ---------------------------------------------------------------------------
// packet handlers
// ---------------------------------------------------------------------------

void RecoveryManager::handle_rollback(int from, std::uint32_t peer_epoch,
                                      const std::vector<SeqNo>& ldi) {
  WINDAR_CHECK_EQ(ldi.size(), static_cast<std::size_t>(params_.n))
      << "bad rollback vector";
  const auto me = static_cast<std::size_t>(params_.rank);
  channels_.observe_rollback(from, peer_epoch, ldi[me]);

  // Algorithm 1 lines 47-51: resends go out BEFORE the response.  The log
  // tail is snapshotted first (Buffer refbumps) because for_each_from holds
  // the log lock across the visit and a long resend stream must not run
  // under it — the actual transmission is paced in bursts below.
  std::vector<LogEntry> entries;
  log_.for_each_from(from, ldi[me],
                     [&](const LogEntry& e) { entries.push_back(e); });

  std::scoped_lock lock(mu_);
  if (auto stale = replays_.find(from);
      stale != replays_.end() && peer_epoch < stale->second.epoch) {
    // A delayed retransmit from an older incarnation must not rewind the
    // replay stream already serving the newer one — restarting it would
    // re-send from a stale watermark and re-certify with a RESPONSE the
    // dead incarnation can never consume.
    return;
  }
  // A retried ROLLBACK from the *same* incarnation (the peer never saw our
  // RESPONSE) restarts the stream; duplicates are dropped by the receiver's
  // FIFO gate.
  auto [it, inserted] = replays_.insert_or_assign(
      from, ReplaySession{peer_epoch, std::move(entries), 0});
  (void)inserted;
  if (pump_replay_locked(from, it->second)) replays_.erase(it);
  replay_pending_.store(!replays_.empty(), std::memory_order_release);

  // A ROLLBACK proves the peer's (new) incarnation is up and listening.  If
  // our own gather is still waiting on that peer — overlapping failures —
  // our earlier broadcast likely died with its old incarnation; answer with
  // our pending ROLLBACK now instead of waiting out the backoff interval.
  if (recovering_ && !response_seen_[static_cast<std::size_t>(from)]) {
    const auto [our_ldi, delivered_total] = channels_.deliver_snapshot();
    (void)delivered_total;
    send_path_.send_control(from, Kind::kRollback, params_.incarnation,
                            encode_rollback_body(our_ldi));
  }
}

bool RecoveryManager::pump_replay_locked(int from, ReplaySession& s) {
  std::size_t burst = 0;
  while (s.next < s.entries.size() && burst < params_.replay_burst) {
    const LogEntry& e = s.entries[s.next];
    metrics_.update([](Metrics& m) { ++m.resent_msgs; });
    transport_.send(app_packet(params_.rank, from, e.tag, e.send_index, e.meta,
                            e.payload));
    ++s.next;
    ++burst;
  }
  if (s.next < s.entries.size()) return false;  // more on later ticks
  // Drained.  The RESPONSE certifies that every logged message the peer
  // needs is already in flight; if we crash mid-replay the peer never sees
  // it, keeps retrying its ROLLBACK, and our next incarnation serves it.
  ResponseBody body;
  body.their_deliver_of_mine = channels_.last_deliver_of(from);
  body.rollback_epoch = s.epoch;
  body.determinants = tracker_.with(
      [&](const LoggingProtocol& proto) { return proto.determinants_for(from); });
  send_path_.send_control(from, Kind::kResponse, params_.incarnation,
                          body.encode());
  return true;
}

void RecoveryManager::handle_response(int from, net::Packet&& p) {
  const ResponseBody body = ResponseBody::decode(p.payload);
  const auto resp_epoch = static_cast<std::uint32_t>(p.seq);
  channels_.observe_response(from, resp_epoch, body.their_deliver_of_mine);
  // A response from an older incarnation, or one answering an older
  // incarnation of ours, still carries valid determinants (they are facts
  // about past deliveries); observe_response orders the watermarks.
  tracker_.with([&](LoggingProtocol& proto) {
    proto.add_replay_determinants(body.determinants);
  });
  std::scoped_lock lock(mu_);
  // Only a RESPONSE to this incarnation's ROLLBACK certifies that the
  // resends it needs are in flight.  One answering a dead predecessor may
  // arrive here after the responder died mid-replay for us: counting it
  // would close the gather with a message missing, and suppress the
  // targeted re-ROLLBACK that asks the responder's successor to resend it.
  if (recovering_ && body.rollback_epoch == params_.incarnation &&
      !response_seen_[static_cast<std::size_t>(from)]) {
    response_seen_[static_cast<std::size_t>(from)] = 1;
    --responses_pending_;
    update_gather_done_locked();
  }
}

void RecoveryManager::handle_tel_query_reply(net::Packet&& p) {
  util::ByteReader r(p.payload);
  const auto dets = read_determinants(r);
  tracker_.with([&](LoggingProtocol& proto) {
    proto.add_replay_determinants(dets);
  });
  std::scoped_lock lock(mu_);
  logger_reply_pending_ = false;
  update_gather_done_locked();
}

void RecoveryManager::handle_checkpoint_advance(net::Packet&& p) {
  // Validate before acting: releasing log entries is irreversible, so a
  // malformed advance (truncated payload) must not free anything.
  util::ByteReader r(p.payload);
  if (r.remaining() < sizeof(std::uint32_t)) {
    metrics_.update([](Metrics& m) { ++m.bad_packets; });
    return;
  }
  const SeqNo peer_delivered_total = r.u32();
  const std::size_t released =
      log_.release_upto(p.src, static_cast<SeqNo>(p.seq));
  metrics_.update([&](Metrics& m) { m.log_released_entries += released; });
  tracker_.with([&](LoggingProtocol& proto) {
    proto.on_peer_checkpoint(p.src, peer_delivered_total);
  });
}

void RecoveryManager::periodic() {
  std::scoped_lock lock(mu_);
  for (auto it = replays_.begin(); it != replays_.end();) {
    if (pump_replay_locked(it->first, it->second)) {
      it = replays_.erase(it);
    } else {
      ++it;
    }
  }
  replay_pending_.store(!replays_.empty(), std::memory_order_release);
  if (recovering_ && (responses_pending_ > 0 || logger_reply_pending_) &&
      Clock::now() - last_rollback_bcast_ >= retry_interval_) {
    // Peers that were down when we broadcast (simultaneous failures) never
    // saw the ROLLBACK; retry until everyone answered, backing off so a
    // long outage does not turn the gather window into a broadcast storm.
    // No reset on progress: a peer that comes back announces its own
    // ROLLBACK, which handle_rollback answers immediately, so the growing
    // interval does not delay convergence.
    broadcast_rollback_locked();
    retry_interval_ =
        std::min<Clock::duration>(retry_interval_ * 2,
                                  params_.rollback_retry_cap);
  }
}

// ---------------------------------------------------------------------------
// checkpoint plane
// ---------------------------------------------------------------------------

void RecoveryManager::checkpoint(std::span<const std::uint8_t> app_state) {
  const std::int64_t t0 = util::now_ns();
  PendingCheckpoint pc;
  pc.image.ckpt_seq = ++ckpt_seq_;
  // Seal, don't serialize: one copy of the app bytes, short per-component
  // locks for the rest.  Everything heavier happens at commit time.
  pc.image.app = util::Buffer::copy_of(app_state);
  util::ByteWriter pw;
  tracker_.with([&](const LoggingProtocol& proto) { proto.save(pw); });
  pc.image.proto = util::take_buffer(pw);
  ChannelState::Snapshot snap = channels_.snapshot();
  pc.image.last_send = std::move(snap.last_send);
  pc.image.last_deliver = std::move(snap.last_deliver);
  pc.image.delivered_total = snap.delivered_total;
  pc.log = log_.seal();
  pc.advances = channels_.take_checkpoint_advances();
  metrics_.update([](Metrics& m) { ++m.checkpoints; });
  if (params_.trace) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kCheckpoint;
    ev.rank = params_.rank;
    ev.incarnation = params_.incarnation;
    ev.deliver_seq = pc.image.delivered_total;
    params_.trace->record(std::move(ev));
  }

  bool queued = false;
  {
    std::scoped_lock lock(wq_mu_);
    if (writer_running_ && !writer_stop_) {
      wq_.push_back(std::move(pc));
      queued = true;
    }
  }
  if (queued) {
    wq_cv_.notify_all();
  } else {
    // No writer (blocking mode, WINDAR_CKPT=sync, or bare-engine tests):
    // the whole commit runs here, synchronously.
    commit_checkpoint(pc);
  }
  metrics_.update([&](Metrics& m) { m.ckpt_stall_ns += util::now_ns() - t0; });
}

bool RecoveryManager::commit_checkpoint(PendingCheckpoint& pc) {
  const std::int64_t c0 = util::now_ns();
  util::ByteWriter lw;
  SenderLog::serialize_sealed(pc.log, lw);
  pc.image.log = util::take_buffer(lw);
  const SeqNo delivered_total = pc.image.delivered_total;
  const bool durable = store_.save_sealed(params_.rank, std::move(pc.image));
  if (!durable) {
    // The pre-commit hook dropped the commit (simulated kill between seal
    // and fsync).  The image never became stable, so no CHECKPOINT_ADVANCE
    // may leave — peers must keep their log entries.
    metrics_.update(
        [&](Metrics& m) { m.ckpt_commit_ns += util::now_ns() - c0; });
    return false;
  }

  // Algorithm 1 lines 34-37: only now — after the store reported the image
  // durable — may peers release log entries we can never ask to replay.
  for (const auto& [peer, upto] : pc.advances) {
    if (peer == params_.rank) {
      // Self channel: release locally.
      const std::size_t released = log_.release_upto(peer, upto);
      metrics_.update([&](Metrics& m) { m.log_released_entries += released; });
      tracker_.with([&](LoggingProtocol& proto) {
        proto.on_peer_checkpoint(peer, delivered_total);
      });
    } else {
      util::ByteWriter w;
      w.u32(delivered_total);
      send_path_.send_control(peer, Kind::kCheckpointAdvance, upto, w.take());
    }
  }
  if (uses_event_logger_) {
    // The logger can discard determinants the checkpoint now covers.
    send_path_.send_control(params_.logger_endpoint, Kind::kCheckpointAdvance,
                            delivered_total, {});
  }
  metrics_.update([&](Metrics& m) {
    ++m.ckpt_committed;
    m.ckpt_commit_ns += util::now_ns() - c0;
  });
  return true;
}

void RecoveryManager::start_writer() {
  {
    std::scoped_lock lock(wq_mu_);
    if (writer_running_) return;
    writer_running_ = true;
    writer_stop_ = false;
  }
  if (exec::Scheduler* sched =
          exec::Scheduler::on_task() ? exec::Scheduler::current() : nullptr) {
    writer_task_ = sched->spawn([this] { writer_loop(); });
  } else {
    writer_thread_ = std::thread([this] { writer_loop(); });
  }
}

void RecoveryManager::stop_writer(bool drain) {
  {
    std::scoped_lock lock(wq_mu_);
    if (!writer_running_) return;
    if (!drain) {
      // Fault-injected teardown: sealed-but-uncommitted snapshots die with
      // the incarnation (they stay counted under Metrics::checkpoints but
      // never reach ckpt_committed).  Protocol-safe — no advance went out
      // for them, so peers kept every log entry a future incarnation could
      // need.
      wq_.clear();
    }
    writer_stop_ = true;
  }
  wq_cv_.notify_all();
  if (writer_thread_.joinable()) writer_thread_.join();
  if (writer_task_.valid()) writer_task_.join();
  writer_task_ = exec::TaskHandle{};
  writer_thread_ = std::thread{};
  std::scoped_lock lock(wq_mu_);
  writer_running_ = false;
  writer_stop_ = false;
}

void RecoveryManager::flush_checkpoints() {
  std::unique_lock lock(wq_mu_);
  wq_cv_.wait(lock, [&] {
    return (wq_.empty() && !committing_) || !writer_running_;
  });
}

void RecoveryManager::writer_loop() {
  std::unique_lock lock(wq_mu_);
  while (true) {
    // Bounded wait: a notify racing task-park costs one tick, never a hang.
    wq_cv_.wait_until(lock, Clock::now() + std::chrono::milliseconds(50),
                      [&] { return writer_stop_ || !wq_.empty(); });
    if (wq_.empty()) {
      if (writer_stop_) return;  // drain semantics: exit only when empty
      continue;
    }
    PendingCheckpoint pc = std::move(wq_.front());
    wq_.pop_front();
    committing_ = true;
    lock.unlock();
    commit_checkpoint(pc);
    lock.lock();
    committing_ = false;
    wq_cv_.notify_all();  // flush_checkpoints waiters
  }
}

std::string RecoveryManager::debug_string() const {
  std::scoped_lock lock(mu_);
  std::string out;
  if (recovering_) out += " RECOVERING";
  if (!gather_done_.load(std::memory_order_acquire)) out += " gather-pending";
  out += " resp_pending=" + std::to_string(responses_pending_);
  return out;
}

}  // namespace windar::ft
