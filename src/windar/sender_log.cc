#include "windar/sender_log.h"

#include <utility>

#include "util/check.h"

namespace windar::ft {

SenderLog::~SenderLog() { clear_locked(); }

SenderLog::Totals SenderLog::append(int dst, LogEntry entry) {
  std::scoped_lock lock(mu_);
  append_locked(dst, std::move(entry));
  return Totals{entries_, bytes_};
}

void SenderLog::append_locked(int dst, LogEntry entry) {
  DstLog& d = per_dst_[static_cast<std::size_t>(dst)];
  WINDAR_CHECK(!d.has_last || d.last_index < entry.send_index)
      << "sender log indices must increase (dst=" << dst << ")";
  d.last_index = entry.send_index;
  d.has_last = true;
  if (d.tail == nullptr || d.tail->end == kChunkEntries) {
    std::unique_ptr<Chunk> fresh = chunk_pool_.acquire();
    Chunk* raw = fresh.get();
    if (d.tail == nullptr) {
      d.head = std::move(fresh);
    } else {
      d.tail->next = std::move(fresh);
    }
    d.tail = raw;
  }
  Chunk& c = *d.tail;
  bytes_ += entry.bytes();
  ++entries_;
  ++d.count;
  c.slots[c.end++] = std::move(entry);
}

std::size_t SenderLog::release_upto(int dst, SeqNo upto) {
  std::scoped_lock lock(mu_);
  DstLog& d = per_dst_[static_cast<std::size_t>(dst)];
  std::size_t released = 0;
  while (d.head != nullptr) {
    Chunk& c = *d.head;
    while (c.begin < c.end && c.slots[c.begin].send_index <= upto) {
      bytes_ -= c.slots[c.begin].bytes();
      // Reset now, not at recycle time: the entry's Buffer refs (and any
      // pooled block behind them) must drop the moment the receiver's
      // checkpoint covers them, even while the chunk keeps serving newer
      // entries.
      c.slots[c.begin] = LogEntry{};
      ++c.begin;
      --entries_;
      --d.count;
      ++released;
    }
    if (c.begin < c.end) break;  // front chunk still holds newer entries
    if (c.end < kChunkEntries && d.head.get() == d.tail) {
      // The back chunk with spare slots: keep it so the next append lands
      // without a pool round-trip.
      break;
    }
    pop_front_locked(d);
  }
  return released;
}

void SenderLog::pop_front_locked(DstLog& d) {
  std::unique_ptr<Chunk> chunk = std::move(d.head);
  d.head = std::move(chunk->next);
  if (d.head == nullptr) d.tail = nullptr;
  // Live slots were reset as begin advanced (or by clear_locked);
  // [end, kChunkEntries) was never written this round.  Rewind the cursors
  // and hand it back.
  chunk->begin = 0;
  chunk->end = 0;
  chunk_pool_.release(std::move(chunk));
}

void SenderLog::save(util::ByteWriter& w) const {
  std::scoped_lock lock(mu_);
  w.u32(static_cast<std::uint32_t>(per_dst_.size()));
  for (const DstLog& d : per_dst_) {
    w.u32(static_cast<std::uint32_t>(d.count));
    for (const Chunk* c = d.head.get(); c != nullptr; c = c->next.get()) {
      for (std::size_t i = c->begin; i < c->end; ++i) {
        const LogEntry& e = c->slots[i];
        w.u32(e.send_index);
        w.i32(e.tag);
        w.bytes(e.meta.span());
        w.bytes(e.payload.span());
      }
    }
  }
}

std::vector<std::vector<LogEntry>> SenderLog::seal() const {
  std::scoped_lock lock(mu_);
  std::vector<std::vector<LogEntry>> out(per_dst_.size());
  for (std::size_t d = 0; d < per_dst_.size(); ++d) {
    const DstLog& dst = per_dst_[d];
    out[d].reserve(dst.count);
    for (const Chunk* c = dst.head.get(); c != nullptr; c = c->next.get()) {
      for (std::size_t i = c->begin; i < c->end; ++i) {
        out[d].push_back(c->slots[i]);  // Buffer copies: refcount bumps
      }
    }
  }
  return out;
}

void SenderLog::serialize_sealed(
    const std::vector<std::vector<LogEntry>>& sealed, util::ByteWriter& w) {
  w.u32(static_cast<std::uint32_t>(sealed.size()));
  for (const auto& entries : sealed) {
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const LogEntry& e : entries) {
      w.u32(e.send_index);
      w.i32(e.tag);
      w.bytes(e.meta.span());
      w.bytes(e.payload.span());
    }
  }
}

void SenderLog::restore(util::ByteReader& r) {
  std::scoped_lock lock(mu_);
  clear_locked();
  const std::uint32_t n = r.u32();
  // The blob must describe the same job width this log was built for — a
  // truncated or foreign checkpoint silently shrinking per_dst_ would make
  // later append()/release_upto() index out of range.
  WINDAR_CHECK_EQ(n, per_dst_.size()) << "restored sender log width mismatch";
  for (std::uint32_t d = 0; d < n; ++d) {
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      LogEntry e;
      e.send_index = r.u32();
      e.tag = r.i32();
      e.meta = r.bytes();
      e.payload = r.bytes();
      append_locked(static_cast<int>(d), std::move(e));
    }
  }
}

void SenderLog::clear() {
  std::scoped_lock lock(mu_);
  clear_locked();
}

void SenderLog::clear_locked() {
  for (DstLog& d : per_dst_) {
    while (d.head != nullptr) {
      Chunk& c = *d.head;
      for (std::size_t i = c.begin; i < c.end; ++i) c.slots[i] = LogEntry{};
      pop_front_locked(d);
    }
    d.count = 0;
    d.has_last = false;
    d.last_index = 0;
  }
  entries_ = 0;
  bytes_ = 0;
}

}  // namespace windar::ft
