#include "windar/channel_state.h"

#include <algorithm>

namespace windar::ft {

ChannelState::ChannelState(int n, int rank)
    : n_(n),
      rank_(rank),
      last_send_(static_cast<std::size_t>(n), 0),
      last_deliver_(static_cast<std::size_t>(n), 0),
      last_ckpt_deliver_(static_cast<std::size_t>(n), 0),
      rollback_last_send_(static_cast<std::size_t>(n), 0),
      peer_epoch_(static_cast<std::size_t>(n), 0) {}

SeqNo ChannelState::next_send_index(int dst) {
  std::scoped_lock lock(mu_);
  return ++last_send_[static_cast<std::size_t>(dst)];
}

bool ChannelState::should_suppress(int dst, SeqNo idx) const {
  std::scoped_lock lock(mu_);
  return idx <= rollback_last_send_[static_cast<std::size_t>(dst)];
}

void ChannelState::record_ack(int from, SeqNo idx) {
  std::scoped_lock lock(mu_);
  acked_[from].add(idx);
}

bool ChannelState::is_acked(int dst, SeqNo idx) const {
  std::scoped_lock lock(mu_);
  if (rollback_last_send_[static_cast<std::size_t>(dst)] >= idx) return true;
  const auto it = acked_.find(dst);
  return it != acked_.end() && it->second.contains(idx);
}

bool ChannelState::already_delivered(int src, SeqNo idx) const {
  std::scoped_lock lock(mu_);
  return idx <= last_deliver_[static_cast<std::size_t>(src)];
}

SeqNo ChannelState::advance_deliver(int src) {
  std::scoped_lock lock(mu_);
  ++last_deliver_[static_cast<std::size_t>(src)];
  return ++delivered_total_;
}

SeqNo ChannelState::delivered_total() const {
  std::scoped_lock lock(mu_);
  return delivered_total_;
}

SeqNo ChannelState::last_deliver_of(int peer) const {
  std::scoped_lock lock(mu_);
  return last_deliver_[static_cast<std::size_t>(peer)];
}

std::pair<std::vector<SeqNo>, SeqNo> ChannelState::deliver_snapshot() const {
  std::scoped_lock lock(mu_);
  return {last_deliver_, delivered_total_};
}

void ChannelState::observe_rollback(int from, std::uint32_t epoch,
                                    SeqNo their_deliver_of_mine) {
  std::scoped_lock lock(mu_);
  auto& seen = peer_epoch_[static_cast<std::size_t>(from)];
  if (epoch >= seen) {
    seen = epoch;
    // The peer rolled back: any suppression watermark learned from an
    // earlier incarnation overstates what it has delivered.  Reset to the
    // restored value it just announced so rolling-forward re-sends reach it.
    rollback_last_send_[static_cast<std::size_t>(from)] =
        their_deliver_of_mine;
  }
}

void ChannelState::observe_response(int from, std::uint32_t epoch,
                                    SeqNo their_deliver_of_mine) {
  std::scoped_lock lock(mu_);
  auto& seen = peer_epoch_[static_cast<std::size_t>(from)];
  auto& watermark = rollback_last_send_[static_cast<std::size_t>(from)];
  if (epoch > seen) {
    // First contact with a newer incarnation of the peer.
    seen = epoch;
    watermark = their_deliver_of_mine;
  } else if (epoch == seen) {
    watermark = std::max(watermark, their_deliver_of_mine);
  }
  // An older incarnation's watermark is stale: ignore it.
}

void ChannelState::set_self_rollback_watermark() {
  std::scoped_lock lock(mu_);
  const auto me = static_cast<std::size_t>(rank_);
  rollback_last_send_[me] = last_deliver_[me];
}

ChannelState::Snapshot ChannelState::snapshot() const {
  std::scoped_lock lock(mu_);
  return Snapshot{last_send_, last_deliver_, delivered_total_};
}

void ChannelState::restore(std::vector<SeqNo> last_send,
                           std::vector<SeqNo> last_deliver,
                           SeqNo delivered_total) {
  std::scoped_lock lock(mu_);
  last_send_ = std::move(last_send);
  last_deliver_ = std::move(last_deliver);
  delivered_total_ = delivered_total;
  last_ckpt_deliver_ = last_deliver_;
}

std::vector<std::pair<int, SeqNo>> ChannelState::take_checkpoint_advances() {
  std::scoped_lock lock(mu_);
  std::vector<std::pair<int, SeqNo>> out;
  for (int k = 0; k < n_; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    if (last_deliver_[ks] <= last_ckpt_deliver_[ks]) continue;
    out.emplace_back(k, last_deliver_[ks]);
    last_ckpt_deliver_[ks] = last_deliver_[ks];
  }
  return out;
}

std::string ChannelState::debug_string() const {
  std::scoped_lock lock(mu_);
  std::string out = "last_deliver=";
  for (SeqNo v : last_deliver_) out += std::to_string(v) + ",";
  out += " last_send=";
  for (SeqNo v : last_send_) out += std::to_string(v) + ",";
  out += " rb_last_send=";
  for (SeqNo v : rollback_last_send_) out += std::to_string(v) + ",";
  return out;
}

}  // namespace windar::ft
