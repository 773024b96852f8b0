// Sender-based message log (paper §III.C.1).
//
// Every application message is retained in its sender's volatile memory,
// together with the protocol metadata that was piggybacked on it, so that it
// can be retransmitted verbatim when the receiver rolls back ("every resent
// message should be piggybacked with the logged vector depend_interval").
//
// Entries are released when the receiver checkpoints past them
// (CHECKPOINT_ADVANCE, Algorithm 1 line 39), and the whole log is saved as
// part of the sender's own checkpoint (line 33) so an incarnation can still
// serve peers' rollbacks.
//
// Storage is chunked: each destination's entries live in 32-entry chunks
// drawn from a typed free list (util::Pool), so steady-state append traffic
// costs one pooled-chunk draw per 32 sends instead of a container
// reallocation per send, and a chunk fully drained by CHECKPOINT_ADVANCE
// goes back on the free list for the next burst.  The chunks of one
// destination form an intrusive singly linked list, so a destination that is
// never sent to costs its 32 B list head and no heap allocation — an n-rank
// job does not pay n² containers up front.  append() returns the log's
// running totals so the send path books its metrics without re-taking the
// log lock.
//
// Internally synchronized: the application thread appends while the receiver
// thread releases (CHECKPOINT_ADVANCE) or scans for resends (ROLLBACK).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/buffer.h"
#include "util/bytes.h"
#include "util/pool.h"
#include "windar/wire.h"

namespace windar::ft {

// Entries alias the buffers of the original transmission (copy-once): the
// log does not duplicate payload bytes, it keeps the wire packet's buffers
// alive, and a resend puts the very same buffers back on the fabric.
struct LogEntry {
  SeqNo send_index = 0;  // per (me -> dst) pair
  std::int32_t tag = 0;
  util::Buffer meta;     // piggyback blob captured at original send
  util::Buffer payload;

  std::size_t bytes() const { return 16 + meta.size() + payload.size(); }
};

class SenderLog {
 public:
  /// Entries per pooled chunk — one chunk amortizes 32 appends.
  static constexpr std::size_t kChunkEntries = 32;

  /// Running totals append() hands back so callers (the send path's metrics
  /// bookkeeping) never re-take the log lock for entries()/bytes().
  struct Totals {
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };

  explicit SenderLog(int n) : per_dst_(static_cast<std::size_t>(n)) {}
  ~SenderLog();

  /// Appends an entry for `dst`; send_index values per destination must be
  /// strictly increasing (they are per-pair counters).  Returns the log's
  /// totals after the append.
  Totals append(int dst, LogEntry entry);

  /// Releases every entry for `dst` with send_index <= upto; fully drained
  /// chunks return to the free list.  Returns how many entries were dropped.
  std::size_t release_upto(int dst, SeqNo upto);

  /// Visits entries for `dst` with send_index > from, ascending.  The log's
  /// lock is held across the visit, so `f` must not call back into the log;
  /// it may touch lock-order leaves (fabric, metrics).
  template <typename F>
  void for_each_from(int dst, SeqNo from, F&& f) const {
    std::scoped_lock lock(mu_);
    for (const Chunk* c = per_dst_[static_cast<std::size_t>(dst)].head.get();
         c != nullptr; c = c->next.get()) {
      for (std::size_t i = c->begin; i < c->end; ++i) {
        const LogEntry& e = c->slots[i];
        if (e.send_index > from) f(e);
      }
    }
  }

  std::size_t entries() const {
    std::scoped_lock lock(mu_);
    return entries_;
  }
  std::size_t bytes() const {
    std::scoped_lock lock(mu_);
    return bytes_;
  }
  std::size_t entries_for(int dst) const {
    std::scoped_lock lock(mu_);
    return per_dst_[static_cast<std::size_t>(dst)].count;
  }

  // ---- chunk-pool observability (tests) ----
  std::size_t chunks_for(int dst) const {
    std::scoped_lock lock(mu_);
    std::size_t count = 0;
    for (const Chunk* c = per_dst_[static_cast<std::size_t>(dst)].head.get();
         c != nullptr; c = c->next.get()) {
      ++count;
    }
    return count;
  }
  std::uint64_t chunks_created() const { return chunk_pool_.created(); }
  std::uint64_t chunks_recycled() const { return chunk_pool_.recycled(); }
  std::size_t chunks_free() const { return chunk_pool_.free_count(); }

  void save(util::ByteWriter& w) const;
  void restore(util::ByteReader& r);
  void clear();

  /// Zero-copy snapshot for the asynchronous checkpoint seal: one entry
  /// vector per destination, each LogEntry aliasing the live entry's buffers
  /// (refcount bumps, no byte copies).  The background writer serializes the
  /// snapshot later with serialize_sealed, off the application thread and
  /// without holding the log lock.
  std::vector<std::vector<LogEntry>> seal() const;

  /// Serializes a sealed snapshot in exactly the wire form save() emits, so
  /// restore() reads either interchangeably.
  static void serialize_sealed(const std::vector<std::vector<LogEntry>>& sealed,
                               util::ByteWriter& w);

 private:
  // A chunk's live entries occupy [begin, end); release_upto advances begin
  // (resetting slots so buffer refs drop immediately), append advances the
  // back chunk's end.  Non-back chunks are always full (end == kChunkEntries).
  // `next` links a destination's chunks oldest first; it is null while the
  // chunk sits in the pool.
  struct Chunk {
    std::array<LogEntry, kChunkEntries> slots;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::unique_ptr<Chunk> next;
  };
  // Chunks in ascending send_index: pop at `head`, append at `tail`.  Lists
  // are only ever unlinked one chunk at a time (pop_front_locked), never by
  // the recursive unique_ptr destructor, so a long log cannot overflow a
  // small fiber stack.
  struct DstLog {
    std::unique_ptr<Chunk> head;
    Chunk* tail = nullptr;
    std::uint32_t count = 0;  // live entries across chunks
    SeqNo last_index = 0;     // strictly-increasing guard survives full drains
    bool has_last = false;
  };

  void append_locked(int dst, LogEntry entry);
  void pop_front_locked(DstLog& d);
  void clear_locked();

  mutable std::mutex mu_;
  std::vector<DstLog> per_dst_;
  mutable util::Pool<Chunk> chunk_pool_;
  std::size_t entries_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace windar::ft
