// Slab recycling for hot-path byte blocks and fixed-shape objects.
//
// The message path allocates the same shapes over and over: one payload
// block per send (util::Buffer::copy_of), one reassembly block per received
// frame (net::FrameDecoder), one 32-entry chunk per burst of sender-log
// appends.  BlockPool/Pool return those shapes to size-classed free lists
// instead of the allocator, so steady-state traffic costs zero heap calls —
// the lever behind the ≤2 allocs/msg target in bench/msg_path.
//
// Two pieces:
//
//  * BlockPool — process-wide, size-classed byte slabs with an *intrusive*
//    refcount (BlockRef).  A shared_ptr custom deleter would re-introduce a
//    control-block allocation per acquire, defeating the point; the refcount
//    lives in the block's own header, so acquire-from-freelist is zero
//    allocations.  Oversize requests (beyond the largest class) still work —
//    they are plain one-shot allocations released straight back to the
//    allocator, exactly the pre-pool behaviour.
//
//  * Pool<T> — a typed free list for fixed-shape helper objects (sender-log
//    chunks).  Objects come back constructed; the caller resets state.
//
// ASan cleanliness across kill/revive storms: a free-listed block's data
// region is poisoned while it sits in the pool and unpoisoned on reuse, so a
// stale util::Buffer view into a recycled block is a *reported*
// use-after-poison, not silent corruption.  The refcount keeps correctly
// shared views alive — a block only reaches the free list when the last
// Buffer aliasing it is gone.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "util/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define WINDAR_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WINDAR_POOL_ASAN 1
#endif
#endif

#ifdef WINDAR_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace windar::util {

namespace detail {

/// Header of every pooled byte block; the data region follows in the same
/// allocation.  `refs` is the intrusive refcount BlockRef manipulates.
struct BlockNode {
  std::atomic<std::uint32_t> refs{1};
  std::uint32_t size_class = 0;  // kNumClasses means oversize (never pooled)
  std::size_t capacity = 0;
  BlockNode* next = nullptr;  // freelist link, only while pooled
  bool recycled = false;      // this acquisition came off a freelist

  std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(this + 1); }
};

}  // namespace detail

class BlockPool;

/// RAII handle to a pooled block: copy bumps the intrusive refcount, the
/// last release returns the block to its size class's free list.  Cheap to
/// pass by value (one pointer).
class BlockRef {
 public:
  BlockRef() = default;
  explicit BlockRef(detail::BlockNode* node) : node_(node) {}

  BlockRef(const BlockRef& o) : node_(o.node_) {
    if (node_) node_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  BlockRef(BlockRef&& o) noexcept : node_(o.node_) { o.node_ = nullptr; }
  BlockRef& operator=(const BlockRef& o) {
    if (this != &o) {
      reset();
      node_ = o.node_;
      if (node_) node_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    return *this;
  }
  BlockRef& operator=(BlockRef&& o) noexcept {
    if (this != &o) {
      reset();
      node_ = o.node_;
      o.node_ = nullptr;
    }
    return *this;
  }
  ~BlockRef() { reset(); }

  void reset();  // defined after BlockPool

  std::uint8_t* data() const { return node_ ? node_->data() : nullptr; }
  std::size_t capacity() const { return node_ ? node_->capacity : 0; }
  /// True when this acquisition reused a free-listed block instead of
  /// allocating a fresh one (drives Metrics::packets_recycled).
  bool recycled() const { return node_ != nullptr && node_->recycled; }
  explicit operator bool() const { return node_ != nullptr; }

  /// Identity of the underlying block (shares-storage checks).
  const void* id() const { return node_; }

 private:
  detail::BlockNode* node_ = nullptr;
};

class BlockPool {
 public:
  /// Size classes cover the message path's real shapes: small piggybacks,
  /// 1-4 KiB payloads, and the NPB/bench 16-64 KiB bulk sizes.
  static constexpr std::size_t kClassSizes[] = {256, 1024, 4096, 16384, 65536};
  static constexpr std::size_t kNumClasses =
      sizeof(kClassSizes) / sizeof(kClassSizes[0]);
  /// Free-list bound per class, expressed in bytes so small classes keep
  /// proportionally more blocks (1 MiB of 256 B blocks is 4096 entries; the
  /// same budget holds only 16 of the 64 KiB blocks).  This matters for the
  /// sender log, which releases thousands of small payload blocks in one
  /// checkpoint-advance burst: a flat count cap would discard most of the
  /// burst and force fresh allocations on the very next send wave.  Worst
  /// case pinned memory is kNumClasses * 1 MiB.
  static constexpr std::size_t kMaxFreeBytesPerClass = std::size_t{1} << 20;
  static constexpr std::size_t max_free_for_class(std::size_t cls) {
    return kMaxFreeBytesPerClass / kClassSizes[cls];
  }

  /// The process-wide pool.  Intentionally leaked: blocks released during
  /// static destruction (a Buffer outliving main) must still have a live
  /// free list to land on.
  static BlockPool& global() {
    static BlockPool* pool = new BlockPool();
    return *pool;
  }

  /// A block with capacity >= n; refcount 1.  Recycles from the matching
  /// size class when possible; oversize requests get a one-shot allocation.
  BlockRef acquire(std::size_t n) {
    const std::size_t cls = class_for(n);
    if (cls < kNumClasses) {
      ClassList& list = classes_[cls];
      detail::BlockNode* node = nullptr;
      {
        std::scoped_lock lock(list.mu);
        if (list.head != nullptr) {
          node = list.head;
          list.head = node->next;
          --list.count;
        }
      }
      if (node != nullptr) {
#ifdef WINDAR_POOL_ASAN
        __asan_unpoison_memory_region(node->data(), node->capacity);
#endif
        node->refs.store(1, std::memory_order_relaxed);
        node->next = nullptr;
        node->recycled = true;
        recycled_.fetch_add(1, std::memory_order_relaxed);
        return BlockRef(node);
      }
    }
    const std::size_t cap = cls < kNumClasses ? kClassSizes[cls] : n;
    void* raw = ::operator new(sizeof(detail::BlockNode) + cap);
    auto* node = new (raw) detail::BlockNode();
    node->size_class = static_cast<std::uint32_t>(cls);
    node->capacity = cap;
    created_.fetch_add(1, std::memory_order_relaxed);
    return BlockRef(node);
  }

  /// Last reference gone: back to the free list, or to the allocator when
  /// the class is full or the block is oversize.
  static void release(detail::BlockNode* node) {
    BlockPool& pool = global();
    const std::size_t cls = node->size_class;
    if (cls < kNumClasses) {
      ClassList& list = pool.classes_[cls];
      std::unique_lock lock(list.mu);
      if (list.count < max_free_for_class(cls)) {
#ifdef WINDAR_POOL_ASAN
        __asan_poison_memory_region(node->data(), node->capacity);
#endif
        node->next = list.head;
        list.head = node;
        ++list.count;
        return;
      }
    }
    node->~BlockNode();
    ::operator delete(node);
  }

  /// Frees every free-listed block (tests isolating alloc counts).
  void trim() {
    for (ClassList& list : classes_) {
      detail::BlockNode* head;
      {
        std::scoped_lock lock(list.mu);
        head = list.head;
        list.head = nullptr;
        list.count = 0;
      }
      while (head != nullptr) {
        detail::BlockNode* next = head->next;
#ifdef WINDAR_POOL_ASAN
        __asan_unpoison_memory_region(head->data(), head->capacity);
#endif
        head->~BlockNode();
        ::operator delete(head);
        head = next;
      }
    }
  }

  std::size_t free_blocks() const {
    std::size_t total = 0;
    for (const ClassList& list : classes_) {
      std::scoped_lock lock(list.mu);
      total += list.count;
    }
    return total;
  }

  // ---- process-wide accounting (bench/msg_path, tests) ----
  static std::uint64_t blocks_created() {
    return global().created_.load(std::memory_order_relaxed);
  }
  static std::uint64_t blocks_recycled() {
    return global().recycled_.load(std::memory_order_relaxed);
  }

 private:
  BlockPool() = default;

  static std::size_t class_for(std::size_t n) {
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      if (n <= kClassSizes[c]) return c;
    }
    return kNumClasses;
  }

  struct ClassList {
    mutable std::mutex mu;
    detail::BlockNode* head = nullptr;
    std::size_t count = 0;
  };

  ClassList classes_[kNumClasses];
  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> recycled_{0};
};

inline void BlockRef::reset() {
  if (node_ == nullptr) return;
  if (node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    BlockPool::release(node_);
  }
  node_ = nullptr;
}

/// Typed free list for fixed-shape helper objects (sender-log chunks).
/// Objects are handed back *constructed*; acquire() returns either a
/// recycled object (caller resets its state) or a default-constructed fresh
/// one.  Internally synchronized; a leaf lock.
template <typename T>
class Pool {
 public:
  explicit Pool(std::size_t max_free = 64) : max_free_(max_free) {}

  std::unique_ptr<T> acquire() {
    {
      std::scoped_lock lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<T> obj = std::move(free_.back());
        free_.pop_back();
        ++recycled_;
        return obj;
      }
      ++created_;
    }
    return std::make_unique<T>();
  }

  void release(std::unique_ptr<T> obj) {
    if (obj == nullptr) return;
    std::scoped_lock lock(mu_);
    if (free_.size() < max_free_) free_.push_back(std::move(obj));
    // else: unique_ptr frees on scope exit — the pool stays bounded.
  }

  std::size_t free_count() const {
    std::scoped_lock lock(mu_);
    return free_.size();
  }
  std::uint64_t created() const {
    std::scoped_lock lock(mu_);
    return created_;
  }
  std::uint64_t recycled() const {
    std::scoped_lock lock(mu_);
    return recycled_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<T>> free_;
  std::size_t max_free_;
  std::uint64_t created_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace windar::util
