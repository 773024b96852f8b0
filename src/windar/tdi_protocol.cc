#include "windar/tdi_protocol.h"

#include <algorithm>

#include "util/check.h"

namespace windar::ft {

namespace {

// Non-dense blobs tag the leading count word; dense blobs carry the plain
// element count (always < 2^30), so all three forms are distinguishable on
// the wire.  Sparse and delta share the (index, value) pair layout — they
// differ only in what an absent entry means to the *tracking* merge (zero vs
// no-information), and the merge treats both as a no-op.
constexpr std::uint32_t kSparseMarker = 0x80000000u;
constexpr std::uint32_t kDeltaMarker = 0x40000000u;

std::uint32_t read_u32_at(std::span<const std::uint8_t> meta,
                          std::size_t off) {
  WINDAR_CHECK_LE(off + 4, meta.size()) << "piggyback too short";
  return static_cast<std::uint32_t>(meta[off]) |
         (static_cast<std::uint32_t>(meta[off + 1]) << 8) |
         (static_cast<std::uint32_t>(meta[off + 2]) << 16) |
         (static_cast<std::uint32_t>(meta[off + 3]) << 24);
}

}  // namespace

TdiProtocol::TdiProtocol(int rank, int n, Encoding encoding)
    : LoggingProtocol(rank, n),
      encoding_(encoding),
      depend_interval_(static_cast<std::size_t>(n), 0) {
  if (encoding_ == Encoding::kDelta) {
    entry_tick_.assign(static_cast<std::size_t>(n), 0);
    sent_tick_.assign(static_cast<std::size_t>(n), 0);
    entry_epoch_.assign(static_cast<std::size_t>(n), 0);
  }
}

void TdiProtocol::touch(std::size_t entry) {
  entry_tick_[entry] = ++tick_;
  journal_.push_back(static_cast<std::uint32_t>(entry));
  const std::size_t cap =
      std::max<std::size_t>(64, 4 * static_cast<std::size_t>(n_));
  if (journal_.size() > cap) compact_journal();
}

void TdiProtocol::compact_journal() {
  // The journal prefix up to the oldest live channel base carries no
  // information any future send needs (deltas only ever look past their
  // base).  A channel whose base lags by more than half the journal would
  // pin that prefix forever; zero its base instead — its next send becomes
  // a full resync, which is always correct.
  const std::uint64_t cutoff = tick_ - journal_.size() / 2;
  std::uint64_t min_base = tick_;
  for (auto& st : sent_tick_) {
    if (st == 0) continue;
    if (st < cutoff) {
      st = 0;
    } else {
      min_base = std::min(min_base, st);
    }
  }
  WINDAR_CHECK_GE(min_base, journal_base_tick_) << "journal trimmed past base";
  journal_.erase(journal_.begin(),
                 journal_.begin() +
                     static_cast<std::ptrdiff_t>(min_base - journal_base_tick_));
  journal_base_tick_ = min_base;
}

Piggyback TdiProtocol::on_send(int dst, SeqNo send_index) {
  (void)send_index;
  // The outgoing message depends on exactly the sender's current state
  // interval, described by the whole vector (Algorithm 1 line 11).
  util::ByteWriter w;
  const std::uint32_t dense_bytes = 4 + 4 * static_cast<std::uint32_t>(n_);
  if (encoding_ == Encoding::kDense) {
    w.u32_vec(depend_interval_);
    // One identifier per vector element; this is the paper's example where
    // a 4-process system piggybacks 4 identifiers per message.
    return Piggyback{w.take(), static_cast<std::uint32_t>(n_), dense_bytes};
  }

  if (encoding_ == Encoding::kSparse) {
    // Sparse: (index, value) pairs for the non-zero entries only.
    std::uint32_t nnz = 0;
    for (SeqNo v : depend_interval_) {
      if (v != 0) ++nnz;
    }
    w.u32(kSparseMarker | nnz);
    for (int k = 0; k < n_; ++k) {
      const SeqNo v = depend_interval_[static_cast<std::size_t>(k)];
      if (v != 0) {
        w.u32(static_cast<std::uint32_t>(k));
        w.u32(v);
      }
    }
    // One identifier per tracked interval entry, matching the dense path's
    // accounting (Fig. 6 compares identifier counts; the index half of each
    // pair is encoding overhead, visible in piggyback_bytes, not an extra
    // identifier).
    return Piggyback{w.take(), nnz, dense_bytes};
  }

  // Delta: entries that changed since the last send on this channel, plus
  // the receiver's gate entry (deliverable() reads it from this message's
  // blob alone).  Zero-valued entries are omitted even when "changed" — the
  // receiver's merge is max-only, so a zero can never carry information.
  // sent_tick_[dst] == 0 means no valid base (first send on the channel, or
  // first since restore()); entries then count as changed wholesale, which
  // makes the message a full resync.
  const std::size_t d = static_cast<std::size_t>(dst);
  const std::uint64_t base = sent_tick_[d];
  const bool resync = base == 0;
  changed_scratch_.clear();
  if (resync) {
    // No valid base: every non-zero entry counts as changed — O(n), but only
    // on the first send per channel and the first after restore().
    for (int k = 0; k < n_; ++k) {
      if (depend_interval_[static_cast<std::size_t>(k)] != 0 || k == dst) {
        changed_scratch_.push_back(static_cast<std::uint32_t>(k));
      }
    }
  } else {
    // O(churn): the deduped journal suffix past `base` is exactly the set
    // with entry_tick_ > base (compaction never trims past a live base).
    WINDAR_CHECK_GE(base, journal_base_tick_) << "delta base outlived journal";
    ++scan_epoch_;
    for (std::size_t i = static_cast<std::size_t>(base - journal_base_tick_);
         i < journal_.size(); ++i) {
      const std::uint32_t k = journal_[i];
      if (entry_epoch_[k] != scan_epoch_) {
        entry_epoch_[k] = scan_epoch_;
        changed_scratch_.push_back(k);
      }
    }
    if (entry_epoch_[d] != scan_epoch_) {
      entry_epoch_[d] = scan_epoch_;
      changed_scratch_.push_back(static_cast<std::uint32_t>(dst));
    }
    std::sort(changed_scratch_.begin(), changed_scratch_.end());
  }
  std::uint32_t npairs = 0;
  for (std::uint32_t k : changed_scratch_) {
    if (depend_interval_[k] != 0) ++npairs;
  }
  if (8u * npairs >= 4u * static_cast<std::uint32_t>(n_)) {
    // Pair form would be no smaller than the paper's dense vector: fall back
    // (the blob is self-describing, so the receiver doesn't care).
    w.u32_vec(depend_interval_);
    sent_tick_[d] = tick_;  // dense carries everything up to now
    Piggyback pb{w.take(), static_cast<std::uint32_t>(n_), dense_bytes};
    pb.resync = resync;
    return pb;
  }
  w.u32(kDeltaMarker | npairs);
  for (std::uint32_t k : changed_scratch_) {
    const SeqNo v = depend_interval_[k];
    if (v != 0) {
      w.u32(k);
      w.u32(v);
    }
  }
  // Every change up to tick_ is now conveyed on this channel (directly, or
  // by an earlier message it chains from); later touches stamp a strictly
  // greater tick.  Note tick_ stays 0 until the first mutation, so an
  // all-zero vector keeps base == 0 — harmless, since its "resync" is empty.
  sent_tick_[d] = tick_;
  Piggyback pb{w.take(), npairs, dense_bytes};
  pb.resync = resync;
  return pb;
}

SeqNo TdiProtocol::piggybacked_element(std::span<const std::uint8_t> meta,
                                       int element) {
  const std::uint32_t head = read_u32_at(meta, 0);
  if ((head & (kSparseMarker | kDeltaMarker)) == 0) {
    // Dense layout: u32 count, then count u32 values.
    return read_u32_at(meta, 4 + 4 * static_cast<std::size_t>(element));
  }
  const std::uint32_t npairs = head & ~(kSparseMarker | kDeltaMarker);
  for (std::uint32_t i = 0; i < npairs; ++i) {
    const std::size_t off = 4 + 8 * static_cast<std::size_t>(i);
    if (read_u32_at(meta, off) == static_cast<std::uint32_t>(element)) {
      return read_u32_at(meta, off + 4);
    }
  }
  // Sparse: absent == zero.  Delta: absent == unchanged-since-channel-base,
  // already merged from an earlier message — for gating and merging both
  // read as "no constraint / no news", i.e. zero.
  return 0;
}

std::vector<SeqNo> TdiProtocol::decode(std::span<const std::uint8_t> meta,
                                       int n) {
  std::vector<SeqNo> out;
  decode_into(meta, n, out);
  return out;
}

void TdiProtocol::decode_into(std::span<const std::uint8_t> meta, int n,
                              std::vector<SeqNo>& out) {
  // One bounds check per section (ByteReader::raw), then bulk reads.
  util::ByteReader r(meta);
  const std::uint32_t head = r.u32();
  if ((head & (kSparseMarker | kDeltaMarker)) == 0) {
    WINDAR_CHECK_EQ(head, static_cast<std::uint32_t>(n))
        << "depend_interval width mismatch";
    out.resize(static_cast<std::size_t>(n));
    util::load_u32s(out, r.raw(4 * std::size_t{head}).data());
    return;
  }
  out.assign(static_cast<std::size_t>(n), 0);
  const std::uint32_t npairs = head & ~(kSparseMarker | kDeltaMarker);
  const std::uint8_t* p = r.raw(8 * std::size_t{npairs}).data();
  for (std::uint32_t i = 0; i < npairs; ++i, p += 8) {
    std::uint32_t pair[2];
    util::load_u32s(pair, p);
    WINDAR_CHECK_LT(pair[0], static_cast<std::uint32_t>(n)) << "bad pair idx";
    out[pair[0]] = pair[1];
  }
}

bool TdiProtocol::deliverable(const QueuedMsg& m, SeqNo delivered_total) const {
  // Algorithm 1 line 17: depend_interval_i[i] >= m.depend_interval[i].
  return delivered_total >= piggybacked_element(m.meta, rank_);
}

void TdiProtocol::on_deliver(int src, SeqNo send_index, SeqNo deliver_seq,
                             std::span<const std::uint8_t> meta) {
  (void)src;
  (void)send_index;
  // Decode into the member scratch: on_deliver runs once per delivered
  // message under the protocol-host lock, so the vector's capacity is reused
  // instead of reallocated every delivery.
  decode_into(meta, n_, decode_scratch_);
  const std::vector<SeqNo>& piggybacked = decode_scratch_;
  const bool delta = encoding_ == Encoding::kDelta;
  // Lines 20, 22-24: advance own interval, merge the rest element-wise max.
  // For sparse/delta metas absent entries decoded to 0, which max-merge
  // ignores — exactly the "no news" reading those encodings rely on.
  depend_interval_[static_cast<std::size_t>(rank_)] = deliver_seq;
  if (delta) touch(static_cast<std::size_t>(rank_));
  for (int k = 0; k < n_; ++k) {
    if (k == rank_) continue;
    auto& mine = depend_interval_[static_cast<std::size_t>(k)];
    const SeqNo theirs = piggybacked[static_cast<std::size_t>(k)];
    if (theirs > mine) {
      mine = theirs;
      if (delta) touch(static_cast<std::size_t>(k));
    }
  }
}

void TdiProtocol::save(util::ByteWriter& w) const {
  w.u32_vec(depend_interval_);
}

void TdiProtocol::restore(util::ByteReader& r) {
  depend_interval_ = r.u32_vec();
  WINDAR_CHECK_EQ(depend_interval_.size(), static_cast<std::size_t>(n_))
      << "restored depend_interval width mismatch";
  if (encoding_ == Encoding::kDelta) {
    // The vector may have moved BACKWARDS (rollback), so every per-channel
    // base is invalid: receivers may hold merges of values we no longer
    // have.  Mark everything changed and drop all bases — the next send on
    // each channel is a full resync, never a delta against pre-crash state.
    const std::uint64_t t = ++tick_;
    for (auto& et : entry_tick_) et = t;
    for (auto& st : sent_tick_) st = 0;
    // One tick just stamped n entries, so the position == tick mapping the
    // journal relies on is void.  Every base is 0 (resync), so no send will
    // consult pre-restore journal state: start a fresh window here.
    journal_.clear();
    journal_base_tick_ = tick_;
  }
}

Piggyback TdiProtocol::scan_encode_for_test(int dst) const {
  WINDAR_CHECK(encoding_ == Encoding::kDelta) << "scan encoder is delta-only";
  // The original full-scan delta encoder, kept verbatim as the reference the
  // journal path must match byte-for-byte.  Reads channel state, never
  // advances it.
  util::ByteWriter w;
  const std::uint32_t dense_bytes = 4 + 4 * static_cast<std::uint32_t>(n_);
  const std::size_t d = static_cast<std::size_t>(dst);
  const std::uint64_t base = sent_tick_[d];
  const bool resync = base == 0;
  std::uint32_t npairs = 0;
  for (int k = 0; k < n_; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    if (depend_interval_[sk] != 0 && (entry_tick_[sk] > base || k == dst)) {
      ++npairs;
    }
  }
  if (8u * npairs >= 4u * static_cast<std::uint32_t>(n_)) {
    w.u32_vec(depend_interval_);
    Piggyback pb{w.take(), static_cast<std::uint32_t>(n_), dense_bytes};
    pb.resync = resync;
    return pb;
  }
  w.u32(kDeltaMarker | npairs);
  for (int k = 0; k < n_; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const SeqNo v = depend_interval_[sk];
    if (v != 0 && (entry_tick_[sk] > base || k == dst)) {
      w.u32(static_cast<std::uint32_t>(k));
      w.u32(v);
    }
  }
  Piggyback pb{w.take(), npairs, dense_bytes};
  pb.resync = resync;
  return pb;
}

}  // namespace windar::ft
