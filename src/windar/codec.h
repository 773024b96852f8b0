// Shared codecs for determinant-bearing message bodies.
//
// Three wire formats used to be hand-rolled in multiple places and must stay
// byte-identical across them:
//
//   * the count-prefixed determinant block ("u32 count, then count
//     determinants") that TAG and TEL embed in their piggybacks and that
//     kTelLog / kTelQueryReply carry as their whole payload;
//   * the RESPONSE body (Algorithm 1 line 48): the survivor's deliver
//     watermark for the recovering rank, the ROLLBACK epoch it answers, and
//     a determinant block.
//
// Lives apart from wire.h because determinant.h already includes wire.h.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/buffer.h"
#include "util/bytes.h"
#include "windar/determinant.h"

namespace windar::ft {

/// Streaming writer for a count-prefixed determinant block.  Protocols that
/// decide per-determinant whether to piggyback it (TAG's knowledge masks,
/// TEL's stability pruning) add entries one by one; `finish` emits the block
/// in the same framing as write_determinants.
class DeterminantBlockWriter {
 public:
  void add(const Determinant& d) {
    d.write(dets_);
    ++count_;
  }

  std::uint32_t count() const { return count_; }

  /// Appends "u32 count, determinants..." to `w`.
  void finish(util::ByteWriter& w) const {
    w.u32(count_);
    w.raw(dets_.view());
  }

 private:
  util::ByteWriter dets_;
  std::uint32_t count_ = 0;
};

/// Streaming reader counterpart: invokes `f` on each determinant of a
/// count-prefixed block without materialising a vector.
template <typename F>
void read_determinant_block(util::ByteReader& r, F&& f) {
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) f(Determinant::read(r));
}

/// RESPONSE payload: what one survivor tells a recovering peer.
struct ResponseBody {
  SeqNo their_deliver_of_mine = 0;  // survivor's last_deliver for the peer
  // Incarnation of the recovering rank whose ROLLBACK this answers; only
  // that incarnation counts the RESPONSE toward its gather.
  std::uint32_t rollback_epoch = 0;
  std::vector<Determinant> determinants;

  util::Buffer encode() const {
    util::ByteWriter w;
    w.u32(their_deliver_of_mine);
    w.u32(rollback_epoch);
    write_determinants(w, determinants);
    return util::take_buffer(w);
  }

  static ResponseBody decode(std::span<const std::uint8_t> payload) {
    util::ByteReader r(payload);
    ResponseBody body;
    body.their_deliver_of_mine = r.u32();
    body.rollback_epoch = r.u32();
    body.determinants = read_determinants(r);
    return body;
  }
};

}  // namespace windar::ft
