// Per-pair channel bookkeeping (Algorithm 1's counter plane).
//
// One instance per rank tracks, for every peer:
//   * last_send_index / last_deliver_index   (per-pair, 1-based)
//   * the checkpoint watermark last_ckpt_deliver_index (what the last local
//     checkpoint already covers, for CHECKPOINT_ADVANCE notifications)
//   * the rolling-forward suppression watermark rollback_last_send_index
//     (Algorithm 1 line 10) together with the peer-incarnation epoch that
//     guards it, and
//   * the set of send indices each peer has acknowledged (blocking sends;
//     kept only for peers that acked something, so a non-blocking job or an
//     idle peer costs nothing here).
//
// This is the ground truth that duplicate filtering, FIFO delivery, send
// suppression and checkpoint log release all consult.  Internally
// synchronized by one mutex; a leaf in the engine's lock order (methods take
// no other locks).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "windar/seqset.h"
#include "windar/wire.h"

namespace windar::ft {

class ChannelState {
 public:
  ChannelState(int n, int rank);

  // ---- send side ----

  /// Allocates the next send index for the (me -> dst) pair.
  SeqNo next_send_index(int dst);

  /// Algorithm 1 line 10: true if `idx` is at or below the suppression
  /// watermark the destination announced (it already delivered the message
  /// before it failed, or confirmed it by RESPONSE).
  bool should_suppress(int dst, SeqNo idx) const;

  /// Records the destination's acceptance of send index `idx`.
  void record_ack(int from, SeqNo idx);

  /// True once a blocking send of (dst, idx) may complete: either the
  /// receiver acked it or its suppression watermark already covers it.
  bool is_acked(int dst, SeqNo idx) const;

  // ---- deliver side ----

  /// True if `idx` from `src` was already delivered (repetitive message).
  bool already_delivered(int src, SeqNo idx) const;

  /// Marks one delivery from `src`: advances the pair counter and the global
  /// delivery counter, returning the new receiver-global deliver_seq.
  SeqNo advance_deliver(int src);

  SeqNo delivered_total() const;
  SeqNo last_deliver_of(int peer) const;

  /// Consistent snapshot of (last_deliver vector, delivered_total) — one
  /// lock acquisition, used by the restore trace and ROLLBACK broadcasts.
  std::pair<std::vector<SeqNo>, SeqNo> deliver_snapshot() const;

  // ---- recovery choreography ----

  /// A ROLLBACK from incarnation `epoch` of `from` announced it restored to
  /// `their_deliver_of_mine` deliveries from us.  Overwrites the suppression
  /// watermark on `epoch >=` current: a re-broadcast from the same
  /// incarnation restates the same restored value, a newer incarnation
  /// invalidates anything learned from an older one.
  void observe_rollback(int from, std::uint32_t epoch,
                        SeqNo their_deliver_of_mine);

  /// A RESPONSE from incarnation `epoch` of `from` certified it delivered
  /// `their_deliver_of_mine` messages from us.  First contact with a newer
  /// incarnation replaces the watermark; the same incarnation only advances
  /// it (max); an older incarnation's value is stale and ignored.
  void observe_response(int from, std::uint32_t epoch,
                        SeqNo their_deliver_of_mine);

  /// Incarnation restore: suppress re-sends to ourselves that the restored
  /// state already covers (no RESPONSE will come from us).
  void set_self_rollback_watermark();

  // ---- checkpoint plane ----

  struct Snapshot {
    std::vector<SeqNo> last_send;
    std::vector<SeqNo> last_deliver;
    SeqNo delivered_total = 0;
  };
  Snapshot snapshot() const;

  /// Restores the counters from a checkpoint image; the checkpoint watermark
  /// starts at the restored deliver vector (the image covers exactly it).
  void restore(std::vector<SeqNo> last_send, std::vector<SeqNo> last_deliver,
               SeqNo delivered_total);

  /// Algorithm 1 lines 34-37: per peer whose deliveries advanced past the
  /// last checkpoint, returns (peer, new watermark) and moves the checkpoint
  /// watermark forward.
  std::vector<std::pair<int, SeqNo>> take_checkpoint_advances();

  std::string debug_string() const;

 private:
  const int n_;
  const int rank_;

  mutable std::mutex mu_;
  std::vector<SeqNo> last_send_;
  std::vector<SeqNo> last_deliver_;
  std::vector<SeqNo> last_ckpt_deliver_;
  std::vector<SeqNo> rollback_last_send_;
  std::vector<std::uint32_t> peer_epoch_;  // highest incarnation seen per peer
  std::unordered_map<int, SeqSet> acked_;  // destination -> accepted indices
  SeqNo delivered_total_ = 0;
};

}  // namespace windar::ft
