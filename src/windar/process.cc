#include "windar/process.h"

#include <thread>

#include "util/check.h"
#include "util/parse.h"
#include "util/wait.h"

namespace windar::ft {

int Process::stall_dump_period_ms() {
  return static_cast<int>(util::env_int("WINDAR_STALL_DUMP_MS").value_or(0));
}

// Breadcrumb recording is only useful together with the stall watchdog and
// costs a small allocation per call, so it shares the same switch.
bool Process::debug_breadcrumbs() {
  static const bool enabled = stall_dump_period_ms() > 0;
  return enabled;
}

void Process::breadcrumb(const char* api, int a, int b) {
  if (!debug_breadcrumbs()) return;
  std::scoped_lock lock(dbg_mu_);
  last_api_ = std::string(api) + "=" + std::to_string(a) + " tag=" +
              std::to_string(b);
}

Process::Process(net::Transport& transport, CheckpointStore& store,
                 ProcessParams params, bool recovering)
    : transport_(transport),
      store_(store),
      params_(params),
      channels_(params_.n, params_.rank),
      log_(params_.n),
      tracker_(make_protocol(params_.protocol, params_.rank, params_.n)),
      send_path_(transport_, params_, life_, channels_, tracker_, log_,
                 metrics_),
      recovery_(transport_, store_, params_, channels_, log_, tracker_,
                send_path_, metrics_),
      delivery_(params_, channels_, tracker_, recovery_.gate(), metrics_) {
  WINDAR_CHECK(params_.rank >= 0 && params_.rank < params_.n) << "bad rank";
  if (tracker_.uses_event_logger()) {
    WINDAR_CHECK_GE(params_.logger_endpoint, 0)
        << "TEL requires an event logger endpoint";
  }
  delivery_.set_hooks(DeliveryQueue::Hooks{
      [this](int dst, SeqNo idx) {
        send_path_.send_control(dst, Kind::kDeliverAck, idx, {});
      },
      [this] { flush_tel(false); },
  });
  send_path_.set_callbacks(SendPath::Callbacks{
      [this](net::Packet&& p) { return dispatch(std::move(p)); },
      [this] { periodic(); },
      [this] { delivery_.notify(); },
      [this] { return recovery_.work_pending(); },
      [this] {
        if (!life_.killed.load(std::memory_order_acquire)) {
          life_.aborted.store(true, std::memory_order_release);
        }
        delivery_.notify();
      },
  });

  // The incarnation reclaims the failed rank's endpoint before anything is
  // broadcast, so responses and resends are not dropped.
  transport_.revive(params_.rank);
  last_tel_flush_ = Clock::now();

  if (recovering) recovery_.restore_from_checkpoint();

  send_path_.start();
  // Background checkpoint writer: only in non-blocking mode (blocking mode
  // is single-threaded by contract) and only when asked for.  Without it,
  // checkpoint() commits inline.
  if (params_.mode == SendMode::kNonBlocking && params_.ckpt_async) {
    recovery_.start_writer();
  }

  if (recovering) recovery_.announce_rollback();
}

Process::~Process() {
  // Clean teardown drains queued checkpoints (the app was promised them); a
  // fault-injected one drops them — the snapshots died with the
  // incarnation, and since no CHECKPOINT_ADVANCE went out for them, peers
  // kept every log entry the next incarnation could need.
  recovery_.stop_writer(!life_.killed.load(std::memory_order_acquire));
  send_path_.stop();
}

// ---------------------------------------------------------------------------
// packet routing
// ---------------------------------------------------------------------------

bool Process::dispatch(net::Packet&& p) {
  switch (static_cast<Kind>(p.kind)) {
    case Kind::kApp:
      delivery_.admit(std::move(p));
      return true;
    case Kind::kDeliverAck:
      channels_.record_ack(p.src, static_cast<SeqNo>(p.seq));
      return true;  // a blocking send may be waiting on this
    case Kind::kCheckpointAdvance:
      recovery_.handle_checkpoint_advance(std::move(p));
      return false;
    case Kind::kRollback:
      recovery_.handle_rollback(p.src, static_cast<std::uint32_t>(p.seq),
                                decode_rollback_body(p.payload));
      return false;
    case Kind::kResponse:
      recovery_.handle_response(p.src, std::move(p));
      return true;  // may complete the determinant gather / unblock sends
    case Kind::kTelAck:
      tracker_.with([&](LoggingProtocol& proto) {
        proto.on_logger_ack(static_cast<SeqNo>(p.seq));
      });
      // A pessimistic delivery may be holding for this stability advance.
      return tracker_.pessimistic();
    case Kind::kTelQueryReply:
      recovery_.handle_tel_query_reply(std::move(p));
      return true;
    default:
      WINDAR_CHECK(false) << "rank " << params_.rank
                          << " got unexpected kind " << p.kind;
  }
  return false;
}

void Process::periodic() {
  recovery_.periodic();
  if (tracker_.uses_event_logger()) {
    bool due = false;
    {
      std::scoped_lock lock(tel_mu_);
      const auto now = Clock::now();
      if (now - last_tel_flush_ >= params_.tel_flush_interval) {
        last_tel_flush_ = now;
        due = true;
      }
    }
    if (due) flush_tel(false);
  }
}

void Process::flush_tel(bool force) {
  while (true) {
    auto batch = tracker_.with([&](LoggingProtocol& proto) {
      return proto.take_unlogged(params_.tel_batch);
    });
    if (batch.empty()) return;
    util::ByteWriter w;
    write_determinants(w, batch);
    send_path_.send_control(params_.logger_endpoint, Kind::kTelLog, 0,
                            w.take());
    if (!force && batch.size() < params_.tel_batch) return;
  }
}

// ---------------------------------------------------------------------------
// application API
// ---------------------------------------------------------------------------

void Process::send(int dst, int tag, std::span<const std::uint8_t> payload) {
  life_.throw_if_dead();
  WINDAR_CHECK(dst >= 0 && dst < params_.n) << "send to bad rank " << dst;
  breadcrumb("send dst", dst, tag);
  send_path_.send_app(dst, tag, payload);
}

mp::Message Process::recv(int src, int tag) {
  life_.throw_if_dead();
  WINDAR_CHECK(src == mp::kAnySource || (src >= 0 && src < params_.n))
      << "recv from bad rank " << src;
  breadcrumb("recv src", src, tag);
  if (params_.mode == SendMode::kNonBlocking) {
    return delivery_.recv_wait(src, tag, life_);
  }
  // Blocking mode: single-threaded; pump the inbox ourselves.
  const bool pessimistic = tracker_.pessimistic();
  while (true) {
    if (auto d = delivery_.try_deliver(src, tag)) {
      // Pessimistic logging: hold the delivery until its determinant is
      // confirmed stable (the synchronous-logging latency cost).
      while (pessimistic && !tracker_.with([&](const LoggingProtocol& p) {
               return p.stable_upto(d->deliver_seq);
             })) {
        send_path_.pump_once(Clock::now() + std::chrono::microseconds(2000));
      }
      return std::move(d->msg);
    }
    send_path_.pump_once(Clock::now() + std::chrono::microseconds(2000));
  }
}

bool Process::probe(int src, int tag) {
  life_.throw_if_dead();
  WINDAR_CHECK(src == mp::kAnySource || (src >= 0 && src < params_.n))
      << "probe of bad rank " << src;
  if (params_.mode == SendMode::kBlocking) {
    // Single-threaded: opportunistically drain already-arrived packets.
    while (auto p = transport_.endpoint(params_.rank).inbox().try_pop()) {
      dispatch(std::move(*p));
    }
  }
  return delivery_.has_deliverable(src, tag);
}

void Process::checkpoint(std::span<const std::uint8_t> app_state) {
  life_.throw_if_dead();
  recovery_.checkpoint(app_state);
}

// ---------------------------------------------------------------------------
// runtime-facing
// ---------------------------------------------------------------------------

void Process::poison() {
  life_.killed.store(true, std::memory_order_release);
  delivery_.notify();
}

void Process::park(const std::atomic<bool>& all_done) {
  // Cooperative tasks poll lazily: thousands of parked ranks spinning a 1ms
  // loop would eat the whole worker pool, and nothing here is
  // latency-sensitive (the helper fiber keeps serving recovery traffic).
  const auto tick = util::on_coop_task() ? std::chrono::milliseconds(20)
                                         : std::chrono::milliseconds(1);
  while (!all_done.load(std::memory_order_acquire)) {
    if (params_.mode == SendMode::kNonBlocking) {
      // The receiver thread keeps serving; just stay alive.
      util::coop_sleep_for(tick);
      life_.throw_if_dead();
    } else {
      send_path_.pump_once(Clock::now() + std::chrono::milliseconds(1));
    }
  }
}

std::string Process::debug_state() const {
  std::string api;
  {
    std::scoped_lock lock(dbg_mu_);
    api = last_api_;
  }
  const auto& inbox = transport_.endpoint(params_.rank).inbox();
  std::string out = "[" + api + "] rank " + std::to_string(params_.rank) +
                    "." + std::to_string(params_.incarnation) +
                    recovery_.debug_string() +
                    " inbox=" + std::to_string(inbox.size()) +
                    (inbox.poisoned() ? "P" : "") +
                    " delivered=" + std::to_string(channels_.delivered_total()) +
                    " " + delivery_.debug_string() + " " +
                    tracker_.with([](const LoggingProtocol& proto) {
                      return proto.debug_string();
                    }) +
                    " " + channels_.debug_string();
  return out;
}

}  // namespace windar::ft
