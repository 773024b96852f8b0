// Checkpoint images and the stable store.
//
// An image is everything Algorithm 1 line 33 saves: the application state
// blob, the protocol's dependency-tracking state, the per-pair send/deliver
// counters, and the sender-based message log.  The store models stable
// storage shared by the cluster (e.g. a parallel filesystem): it survives
// any process failure.  Images can optionally be spilled to disk to exercise
// a real serialization round-trip.
//
// Two things make the store cheap enough to sit behind a per-interval
// checkpoint cadence (FTPregel's 60s -> 2s split, ROADMAP item 3):
//
//  * Delta form.  Blobs are self-describing (magic + kind header): a FULL
//    blob carries every section verbatim; a DELTA blob diffs the app/proto/
//    log sections against the previously committed image at page
//    granularity, emitting copy-from-base ops for unchanged pages and
//    literal bytes for changed ones.  The in-memory diff is copy-on-write:
//    unchanged regions are `util::Buffer` views aliasing the prior image's
//    sections, so nothing is duplicated until the blob is encoded.  Every
//    `anchor_every` commits a full image is written as a compaction anchor
//    (and the superseded delta files are removed); a loader reconstructs
//    anchor -> delta chain, verifying each delta's base seq + content hash
//    so a stale delta from an unrelated lineage can never be applied.
//
//  * Durability done right, off every other caller's lock.  save goes
//    write-tmp -> fsync(tmp) -> rename -> fsync(parent dir) — only then is
//    the save reported complete (the protocol releases peers' logs on that
//    report, so "stable storage" must actually be stable).  Serialization
//    and file I/O run outside the store mutex behind a per-rank in-flight
//    guard: a slow spill of one rank never blocks load/has/stats or another
//    rank's save.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/buffer.h"
#include "util/bytes.h"
#include "util/wait.h"
#include "windar/wire.h"

namespace windar::ft {

struct CheckpointImage {
  std::uint64_t ckpt_seq = 0;           // how many checkpoints this rank took
  util::Bytes app;                      // application-provided state
  util::Bytes proto;                    // LoggingProtocol::save output
  std::vector<SeqNo> last_send;         // per-pair counters
  std::vector<SeqNo> last_deliver;
  SeqNo delivered_total = 0;            // current process state interval index
  util::Bytes log;                      // serialized SenderLog

  /// Emits the self-describing FULL blob form.
  util::Bytes serialize() const;
  /// Decodes a FULL blob (delta chains are the store's business).
  static CheckpointImage deserialize(std::span<const std::uint8_t> data);

  std::size_t bytes() const {
    return app.size() + proto.size() + log.size() +
           (last_send.size() + last_deliver.size()) * sizeof(SeqNo) + 16;
  }
};

/// The sealed in-memory snapshot the asynchronous checkpoint path hands to
/// the background writer: sections are refcounted Buffers (the seal aliases
/// live data or copies it exactly once; no disk I/O, no full-image
/// serialization on the application thread).
struct SealedCheckpoint {
  std::uint64_t ckpt_seq = 0;
  util::Buffer app;
  util::Buffer proto;
  util::Buffer log;
  std::vector<SeqNo> last_send;
  std::vector<SeqNo> last_deliver;
  SeqNo delivered_total = 0;
};

// ---------------------------------------------------------------------------
// Blob codec (exposed for the delta-vs-full equivalence tests)
// ---------------------------------------------------------------------------

namespace ckptwire {

/// Content identity of an image (FNV-1a over every section and counter).  A
/// delta blob records its base's hash; the loader refuses to apply a delta
/// whose recorded hash does not match the image it reconstructed — a stale
/// delta file from an earlier lineage of the same spill dir must never be
/// grafted onto a fresh anchor that happens to reuse its seq numbers.
std::uint64_t image_hash(const SealedCheckpoint& img);

util::Bytes encode_full(const SealedCheckpoint& img);
/// `base_hash` is image_hash(base); the store passes the hash it computed
/// when it committed `base` instead of hashing the base a second time.
util::Bytes encode_delta(const SealedCheckpoint& img,
                         const SealedCheckpoint& base,
                         std::uint64_t base_hash);

bool is_delta(std::span<const std::uint8_t> blob);
std::uint64_t blob_seq(std::span<const std::uint8_t> blob);

/// Fail-soft decode of a full-image blob: nullopt on any header mismatch,
/// truncation, or trailing garbage.  load() uses this so a torn or foreign
/// spill file is skipped instead of aborting the process.
std::optional<SealedCheckpoint> try_decode_full(
    std::span<const std::uint8_t> blob);
/// CHECK-ing variant for blobs the process itself produced.
SealedCheckpoint decode_full(std::span<const std::uint8_t> blob);
/// Applies a delta blob to the image it was diffed against; returns nullopt
/// when the blob's base seq/hash do not match `base` (stale or foreign).
std::optional<SealedCheckpoint> apply_delta(
    std::span<const std::uint8_t> blob, const SealedCheckpoint& base);

SealedCheckpoint to_sealed(const CheckpointImage& img);
CheckpointImage to_image(const SealedCheckpoint& img);

}  // namespace ckptwire

struct CheckpointStoreStats {
  std::uint64_t saves = 0;
  std::uint64_t loads = 0;
  std::uint64_t bytes_written = 0;  // blob bytes actually committed
  std::uint64_t full_saves = 0;
  std::uint64_t delta_saves = 0;
  std::uint64_t delta_bytes = 0;    // subset of bytes_written that was deltas
  std::uint64_t dropped_saves = 0;  // pre-commit hook vetoes (crash tests)
};

/// -1 resolves the WINDAR_CKPT env var ("sync" disables the background
/// writer, "async" keeps it; any other value is fatal), defaulting to
/// asynchronous commit.
bool resolve_ckpt_async(int configured);
/// 0 resolves WINDAR_CKPT_ANCHOR_K (a positive integer), defaulting to a
/// full image every 8 checkpoints; 1 means every image is a full anchor
/// (deltas disabled).
std::size_t resolve_ckpt_anchor(std::size_t configured);

class CheckpointStore {
 public:
  /// What the pre-commit test hook tells the store to do: proceed with the
  /// durable write, or abandon the commit as if the process had been killed
  /// between sealing the snapshot and fsyncing the image.
  enum class CommitAction { kProceed, kDrop };
  using PreCommitHook = std::function<CommitAction(int rank)>;

  /// In-memory store; if `spill_dir` is non-empty, images are round-tripped
  /// through files under it.  `anchor_every` = 0 resolves the environment
  /// default (see resolve_ckpt_anchor).
  explicit CheckpointStore(std::string spill_dir = "",
                           std::size_t anchor_every = 0);

  /// Commits a full image (test/legacy convenience; wraps save_sealed).
  void save(int rank, const CheckpointImage& image);

  /// Serializes (delta against the previous commit when possible), durably
  /// writes, and publishes the image.  Returns false iff the pre-commit hook
  /// dropped the commit — the caller must then NOT report the checkpoint as
  /// stable (no CHECKPOINT_ADVANCE may go out).
  bool save_sealed(int rank, SealedCheckpoint image);

  std::optional<CheckpointImage> load(int rank) const;
  bool has(int rank) const;

  /// Removes every image.  With a spill dir this enumerates the directory —
  /// a respawned process has an empty in-memory map but must still clear the
  /// files its predecessors (or an earlier job) left behind.
  void clear();

  CheckpointStoreStats stats() const;

  /// Test-only: invoked after serialization, before the durable write of
  /// every commit.  The crash-window tests block here (to observe that no
  /// advance was published yet) or return kDrop (to simulate a kill between
  /// seal and fsync).
  void set_pre_commit_hook_for_test(PreCommitHook hook);

 private:
  struct RankState {
    bool committed = false;      // at least one image committed
    SealedCheckpoint image;      // last committed image (delta base)
    std::uint64_t hash = 0;      // image_hash(image); 0 when deltas are off
    std::size_t since_anchor = 0;
    bool in_flight = false;      // a save for this rank is serializing/writing
  };

  std::string file_path(int rank) const {
    return spill_dir_ + "/ckpt_rank" + std::to_string(rank) + ".bin";
  }
  std::string delta_path(int rank, std::uint64_t seq) const {
    return spill_dir_ + "/ckpt_rank" + std::to_string(rank) + ".d" +
           std::to_string(seq) + ".bin";
  }
  void remove_rank_deltas(int rank) const;

  std::string spill_dir_;
  std::size_t anchor_every_;
  mutable std::mutex mu_;
  mutable util::WaitSet cv_;  // in-flight guard handoff
  std::unordered_map<int, RankState> ranks_;
  mutable CheckpointStoreStats stats_;
  PreCommitHook pre_commit_;  // set before the job starts, then const
};

}  // namespace windar::ft
