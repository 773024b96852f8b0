#include "windar/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/check.h"
#include "util/parse.h"

namespace windar::ft {

namespace {

// Blob header: magic + kind.  The magic doubles as a format version — bump
// it on any incompatible layout change so a stale spill dir fails loudly
// instead of deserializing garbage.
constexpr std::uint32_t kMagic = 0x31504B43;  // "CKP1"
constexpr std::uint8_t kKindFull = 0;
constexpr std::uint8_t kKindDelta = 1;

// Diff granularity.  Pages small enough that a sparse update to a large app
// state pays for roughly what it touched, large enough that the op stream
// stays a negligible fraction of the section.
constexpr std::size_t kDiffPage = 256;

// Delta section ops.
constexpr std::uint8_t kOpCopyBase = 0;
constexpr std::uint8_t kOpLiteral = 1;

/// True iff `blob` carries a plausible header for `kind` (magic + kind byte
/// + room for the seq field).  The codec proper CHECKs on bad headers —
/// correct for blobs the store itself wrote — but load() reads whatever the
/// spill directory holds, and a torn or foreign file must be skipped, not
/// panicked on.
bool header_plausible(std::span<const std::uint8_t> blob, std::uint8_t kind) {
  constexpr std::size_t kHeader = 4 + 1 + 8;  // magic + kind + ckpt_seq
  if (blob.size() < kHeader) return false;
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) magic |= static_cast<std::uint32_t>(blob[i])
                                       << (8 * i);
  return magic == kMagic && blob[4] == kind;
}

void fnv_mix(std::uint64_t& h, std::span<const std::uint8_t> data) {
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
}

void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  fnv_mix(h, le);
}

/// One piece of a diffed section: either a view into the base image
/// (unchanged pages — aliases the prior image's buffer, zero copy) or a view
/// into the new section (changed pages).
struct DeltaPiece {
  bool from_base = false;
  std::uint32_t base_off = 0;
  util::Buffer bytes;  // aliases base (from_base) or the new section
};

/// Page-wise diff of `next` against `base`.  Pieces cover `next` exactly, in
/// order; adjacent pieces of the same kind are merged.
std::vector<DeltaPiece> diff_section(const util::Buffer& base,
                                     const util::Buffer& next) {
  std::vector<DeltaPiece> pieces;
  const std::size_t overlap = std::min(base.size(), next.size());
  std::size_t off = 0;
  while (off < next.size()) {
    const std::size_t len = std::min(kDiffPage, next.size() - off);
    const bool same =
        off + len <= overlap &&
        std::memcmp(base.data() + off, next.data() + off, len) == 0;
    if (!pieces.empty() && pieces.back().from_base == same) {
      DeltaPiece& back = pieces.back();
      const std::size_t merged = back.bytes.size() + len;
      back.bytes = same ? base.view(back.base_off, merged)
                        : next.view(static_cast<std::size_t>(
                                        off + len - merged),
                                    merged);
    } else {
      DeltaPiece p;
      p.from_base = same;
      p.base_off = static_cast<std::uint32_t>(off);
      p.bytes = same ? base.view(off, len) : next.view(off, len);
      pieces.push_back(std::move(p));
    }
    off += len;
  }
  return pieces;
}

void write_delta_section(util::ByteWriter& w, const util::Buffer& base,
                         const util::Buffer& next) {
  const std::vector<DeltaPiece> pieces = diff_section(base, next);
  w.u32(static_cast<std::uint32_t>(next.size()));
  w.u32(static_cast<std::uint32_t>(pieces.size()));
  for (const DeltaPiece& p : pieces) {
    if (p.from_base) {
      w.u8(kOpCopyBase);
      w.u32(p.base_off);
      w.u32(static_cast<std::uint32_t>(p.bytes.size()));
    } else {
      w.u8(kOpLiteral);
      w.u32(static_cast<std::uint32_t>(p.bytes.size()));
      w.raw(p.bytes.span());
    }
  }
}

// Every reader below that load() reaches is fail-soft: it reports
// truncation or corruption through its return value instead of
// CHECK-aborting, because load() consumes whatever the spill directory
// holds and a torn or foreign file must be skipped, not panicked on.

util::Buffer read_delta_section(util::ByteReader& r, const util::Buffer& base,
                                bool* ok) {
  if (r.remaining() < 8) {
    *ok = false;
    return {};
  }
  const std::uint32_t new_len = r.u32();
  const std::uint32_t n_ops = r.u32();
  util::Bytes out;
  // reserve() is only a hint, so cap what an unvalidated length from the
  // file can make us pre-allocate; a lying new_len is caught by the exact
  // size check at the end.
  out.reserve(std::min<std::size_t>(new_len, base.size() + r.remaining()));
  for (std::uint32_t i = 0; i < n_ops; ++i) {
    if (r.remaining() < 1) {
      *ok = false;
      return {};
    }
    const std::uint8_t op = r.u8();
    if (op == kOpCopyBase) {
      if (r.remaining() < 8) {
        *ok = false;
        return {};
      }
      const std::uint32_t off = r.u32();
      const std::uint32_t len = r.u32();
      if (std::size_t{off} + len > base.size()) {
        *ok = false;
        return {};
      }
      out.insert(out.end(), base.data() + off, base.data() + off + len);
    } else if (op == kOpLiteral) {
      if (r.remaining() < 4) {
        *ok = false;
        return {};
      }
      const std::uint32_t len = r.u32();
      if (len > r.remaining()) {
        *ok = false;
        return {};
      }
      const auto lit = r.raw(len);
      out.insert(out.end(), lit.begin(), lit.end());
    } else {
      *ok = false;
      return {};
    }
  }
  if (out.size() != new_len) {
    *ok = false;
    return {};
  }
  return util::Buffer(std::move(out));
}

void write_counters(util::ByteWriter& w, const SealedCheckpoint& img) {
  w.u32_vec(img.last_send);
  w.u32_vec(img.last_deliver);
  w.u32(img.delivered_total);
}

bool try_u32_vec(util::ByteReader& r, std::vector<SeqNo>& out) {
  if (r.remaining() < 4) return false;
  const std::uint32_t n = r.u32();
  if (std::size_t{n} * sizeof(std::uint32_t) > r.remaining()) return false;
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.u32());
  return true;
}

bool try_read_counters(util::ByteReader& r, SealedCheckpoint& img) {
  if (!try_u32_vec(r, img.last_send)) return false;
  if (!try_u32_vec(r, img.last_deliver)) return false;
  if (r.remaining() < 4) return false;
  img.delivered_total = r.u32();
  return true;
}

/// Length-prefixed section read; false on truncation.
bool try_buffer_section(util::ByteReader& r, util::Buffer& out) {
  if (r.remaining() < 4) return false;
  const std::uint32_t n = r.u32();
  if (n > r.remaining()) return false;
  out = util::Buffer::copy_of(r.raw(n));
  return true;
}

/// Full-file read; nullopt when the file does not exist.
std::optional<util::Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return std::nullopt;
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  util::Bytes data(size);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  WINDAR_CHECK(in.good()) << "short checkpoint read " << path;
  return data;
}

/// Durable write-then-rename: the tmp file is fsync'd before the rename and
/// the parent directory after it, so a host crash at any point surfaces
/// either the complete old image or the complete new one — never a torn or
/// unlinked-but-not-durable state.
void write_durable(const std::string& path,
                   std::span<const std::uint8_t> data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  WINDAR_CHECK_GE(fd, 0) << "cannot write checkpoint " << tmp << ": "
                         << std::strerror(errno);
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    WINDAR_CHECK_GT(n, 0) << "short checkpoint write " << tmp << ": "
                          << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
  WINDAR_CHECK_EQ(::fsync(fd), 0) << "fsync " << tmp << ": "
                                  << std::strerror(errno);
  WINDAR_CHECK_EQ(::close(fd), 0) << "close " << tmp;
  WINDAR_CHECK_EQ(::rename(tmp.c_str(), path.c_str()), 0)
      << "checkpoint rename " << path << ": " << std::strerror(errno);
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    // Directory fsync makes the rename itself durable.  Failure here is not
    // fatal on filesystems that refuse it (the data blocks are synced), but
    // on any POSIX local fs it must succeed.
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Blob codec
// ---------------------------------------------------------------------------

namespace ckptwire {

std::uint64_t image_hash(const SealedCheckpoint& img) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  fnv_mix_u64(h, img.ckpt_seq);
  fnv_mix_u64(h, img.delivered_total);
  fnv_mix_u64(h, img.last_send.size());
  for (SeqNo v : img.last_send) fnv_mix_u64(h, v);
  fnv_mix_u64(h, img.last_deliver.size());
  for (SeqNo v : img.last_deliver) fnv_mix_u64(h, v);
  fnv_mix_u64(h, img.app.size());
  fnv_mix(h, img.app.span());
  fnv_mix_u64(h, img.proto.size());
  fnv_mix(h, img.proto.span());
  fnv_mix_u64(h, img.log.size());
  fnv_mix(h, img.log.span());
  return h;
}

util::Bytes encode_full(const SealedCheckpoint& img) {
  util::ByteWriter w;
  w.u32(kMagic);
  w.u8(kKindFull);
  w.u64(img.ckpt_seq);
  w.bytes(img.app.span());
  w.bytes(img.proto.span());
  write_counters(w, img);
  w.bytes(img.log.span());
  return w.take();
}

util::Bytes encode_delta(const SealedCheckpoint& img,
                         const SealedCheckpoint& base,
                         std::uint64_t base_hash) {
  util::ByteWriter w;
  w.u32(kMagic);
  w.u8(kKindDelta);
  w.u64(img.ckpt_seq);
  w.u64(base.ckpt_seq);
  w.u64(base_hash);
  write_counters(w, img);  // counters are tiny: always literal
  write_delta_section(w, base.app, img.app);
  write_delta_section(w, base.proto, img.proto);
  write_delta_section(w, base.log, img.log);
  return w.take();
}

bool is_delta(std::span<const std::uint8_t> blob) {
  util::ByteReader r(blob);
  WINDAR_CHECK_EQ(r.u32(), kMagic) << "bad checkpoint blob magic";
  return r.u8() == kKindDelta;
}

std::uint64_t blob_seq(std::span<const std::uint8_t> blob) {
  util::ByteReader r(blob);
  WINDAR_CHECK_EQ(r.u32(), kMagic) << "bad checkpoint blob magic";
  (void)r.u8();
  return r.u64();
}

std::optional<SealedCheckpoint> try_decode_full(
    std::span<const std::uint8_t> blob) {
  if (!header_plausible(blob, kKindFull)) return std::nullopt;
  util::ByteReader r(blob);
  (void)r.u32();  // magic, validated above
  (void)r.u8();   // kind, validated above
  SealedCheckpoint img;
  img.ckpt_seq = r.u64();
  if (!try_buffer_section(r, img.app)) return std::nullopt;
  if (!try_buffer_section(r, img.proto)) return std::nullopt;
  if (!try_read_counters(r, img)) return std::nullopt;
  if (!try_buffer_section(r, img.log)) return std::nullopt;
  if (!r.exhausted()) return std::nullopt;
  return img;
}

SealedCheckpoint decode_full(std::span<const std::uint8_t> blob) {
  auto img = try_decode_full(blob);
  WINDAR_CHECK(img.has_value()) << "bad or truncated full checkpoint blob";
  return std::move(*img);
}

std::optional<SealedCheckpoint> apply_delta(std::span<const std::uint8_t> blob,
                                            const SealedCheckpoint& base) {
  if (!header_plausible(blob, kKindDelta)) return std::nullopt;
  util::ByteReader r(blob);
  (void)r.u32();  // magic, validated above
  (void)r.u8();   // kind, validated above
  SealedCheckpoint img;
  img.ckpt_seq = r.u64();
  if (r.remaining() < 16) return std::nullopt;
  const std::uint64_t base_seq = r.u64();
  const std::uint64_t base_hash = r.u64();
  if (base_seq != base.ckpt_seq || base_hash != image_hash(base)) {
    return std::nullopt;  // stale lineage or foreign base
  }
  if (!try_read_counters(r, img)) return std::nullopt;
  bool ok = true;
  img.app = read_delta_section(r, base.app, &ok);
  if (ok) img.proto = read_delta_section(r, base.proto, &ok);
  if (ok) img.log = read_delta_section(r, base.log, &ok);
  if (!ok || !r.exhausted()) return std::nullopt;
  return img;
}

SealedCheckpoint to_sealed(const CheckpointImage& img) {
  SealedCheckpoint s;
  s.ckpt_seq = img.ckpt_seq;
  s.app = util::Buffer(util::Bytes(img.app));
  s.proto = util::Buffer(util::Bytes(img.proto));
  s.log = util::Buffer(util::Bytes(img.log));
  s.last_send = img.last_send;
  s.last_deliver = img.last_deliver;
  s.delivered_total = img.delivered_total;
  return s;
}

CheckpointImage to_image(const SealedCheckpoint& img) {
  CheckpointImage out;
  out.ckpt_seq = img.ckpt_seq;
  out.app = img.app.to_vector();
  out.proto = img.proto.to_vector();
  out.log = img.log.to_vector();
  out.last_send = img.last_send;
  out.last_deliver = img.last_deliver;
  out.delivered_total = img.delivered_total;
  return out;
}

}  // namespace ckptwire

util::Bytes CheckpointImage::serialize() const {
  return ckptwire::encode_full(ckptwire::to_sealed(*this));
}

CheckpointImage CheckpointImage::deserialize(
    std::span<const std::uint8_t> data) {
  return ckptwire::to_image(ckptwire::decode_full(data));
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

bool resolve_ckpt_async(int configured) {
  if (configured >= 0) return configured != 0;
  return util::env_choice("WINDAR_CKPT", {"sync", "async"}) != "sync";
}

std::size_t resolve_ckpt_anchor(std::size_t configured) {
  if (configured > 0) return configured;
  return static_cast<std::size_t>(
      util::env_int("WINDAR_CKPT_ANCHOR_K").value_or(8));
}

CheckpointStore::CheckpointStore(std::string spill_dir,
                                 std::size_t anchor_every)
    : spill_dir_(std::move(spill_dir)),
      anchor_every_(resolve_ckpt_anchor(anchor_every)) {
  if (!spill_dir_.empty()) {
    std::filesystem::create_directories(spill_dir_);
  }
}

void CheckpointStore::set_pre_commit_hook_for_test(PreCommitHook hook) {
  pre_commit_ = std::move(hook);
}

void CheckpointStore::save(int rank, const CheckpointImage& image) {
  (void)save_sealed(rank, ckptwire::to_sealed(image));
}

bool CheckpointStore::save_sealed(int rank, SealedCheckpoint image) {
  // Phase 1 (locked, cheap): claim the per-rank in-flight slot and grab the
  // delta base.  Copying the base SealedCheckpoint is refcount bumps on its
  // section buffers plus two counter vectors — no byte copies.
  SealedCheckpoint base;
  std::uint64_t base_hash = 0;
  bool use_delta = false;
  {
    std::unique_lock lock(mu_);
    RankState& st = ranks_[rank];
    cv_.wait(lock, [&] { return !st.in_flight; });
    st.in_flight = true;
    use_delta = anchor_every_ > 1 && st.committed &&
                image.ckpt_seq > st.image.ckpt_seq &&
                st.since_anchor + 1 < anchor_every_;
    if (use_delta) {
      base = st.image;
      base_hash = st.hash;
    }
  }

  // Phase 2 (unlocked): hash, serialize and durably write.  Other ranks'
  // saves and every load/has/stats proceed concurrently.  The image is hashed
  // exactly once, here, and only when a later commit may name it as a delta
  // base.
  const std::uint64_t hash =
      anchor_every_ > 1 ? ckptwire::image_hash(image) : 0;
  util::Bytes blob = use_delta ? ckptwire::encode_delta(image, base, base_hash)
                               : ckptwire::encode_full(image);
  if (pre_commit_ && pre_commit_(rank) == CommitAction::kDrop) {
    // Simulated kill between seal and fsync: nothing was published, nothing
    // may be reported stable.
    std::scoped_lock lock(mu_);
    ++stats_.dropped_saves;
    ranks_[rank].in_flight = false;
    cv_.notify_all();
    return false;
  }
  if (!spill_dir_.empty()) {
    if (use_delta) {
      write_durable(delta_path(rank, image.ckpt_seq), blob);
    } else {
      write_durable(file_path(rank), blob);
      // The fresh anchor supersedes every delta file; remove them so the
      // directory does not accumulate one file per checkpoint forever.  A
      // crash before the removal is harmless: the loader ignores deltas
      // whose seq/base do not chain onto the new anchor.
      remove_rank_deltas(rank);
    }
  }

  // Phase 3 (locked): publish.
  {
    std::scoped_lock lock(mu_);
    RankState& st = ranks_[rank];
    ++stats_.saves;
    stats_.bytes_written += blob.size();
    if (use_delta) {
      ++stats_.delta_saves;
      stats_.delta_bytes += blob.size();
      ++st.since_anchor;
    } else {
      ++stats_.full_saves;
      st.since_anchor = 0;
    }
    st.hash = hash;
    st.image = std::move(image);
    st.committed = true;
    st.in_flight = false;
    cv_.notify_all();
  }
  return true;
}

std::optional<CheckpointImage> CheckpointStore::load(int rank) const {
  if (spill_dir_.empty()) {
    std::scoped_lock lock(mu_);
    auto it = ranks_.find(rank);
    if (it == ranks_.end() || !it->second.committed) return std::nullopt;
    ++stats_.loads;
    return ckptwire::to_image(it->second.image);
  }

  // Disk is the source of truth when spilling: a respawned OS process has an
  // empty in-memory map but must still find the checkpoints its predecessor
  // (or any prior incarnation) saved.  No store lock across the I/O.
  const auto anchor = read_file(file_path(rank));
  if (!anchor) return std::nullopt;
  // Fail-soft: a torn, truncated, or foreign anchor means "no checkpoint",
  // never an abort — the rank then restarts from scratch, which is safe.
  auto decoded = ckptwire::try_decode_full(*anchor);
  if (!decoded) return std::nullopt;
  SealedCheckpoint cur = std::move(*decoded);

  // Chain deltas d<seq> onto the anchor in ascending seq order; each must
  // name the reconstructed image as its base (seq + content hash), so stale
  // files from an older lineage are skipped, not applied.
  std::vector<std::pair<std::uint64_t, std::string>> deltas;
  const std::string prefix = "ckpt_rank" + std::to_string(rank) + ".d";
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(spill_dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() + 4 ||
        name.substr(name.size() - 4) != ".bin") {
      continue;
    }
    const std::string seq_str =
        name.substr(prefix.size(), name.size() - prefix.size() - 4);
    char* end = nullptr;
    const std::uint64_t seq = std::strtoull(seq_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') continue;
    deltas.emplace_back(seq, entry.path().string());
  }
  std::sort(deltas.begin(), deltas.end());
  for (const auto& [seq, path] : deltas) {
    if (seq <= cur.ckpt_seq) continue;
    const auto blob = read_file(path);
    if (!blob) continue;
    // apply_delta is fail-soft end to end (header, counters, op stream):
    // anything torn or mis-chained is skipped, keeping the newest image
    // that did reconstruct.
    auto next = ckptwire::apply_delta(*blob, cur);
    if (!next) continue;  // broken chain: keep the newest applicable image
    cur = std::move(*next);
  }

  std::scoped_lock lock(mu_);
  ++stats_.loads;
  return ckptwire::to_image(cur);
}

bool CheckpointStore::has(int rank) const {
  {
    std::scoped_lock lock(mu_);
    auto it = ranks_.find(rank);
    if (it != ranks_.end() && it->second.committed) return true;
  }
  if (spill_dir_.empty()) return false;
  std::error_code ec;
  return std::filesystem::exists(file_path(rank), ec);
}

void CheckpointStore::remove_rank_deltas(int rank) const {
  const std::string prefix = "ckpt_rank" + std::to_string(rank) + ".d";
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(spill_dir_, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      std::error_code rec;
      std::filesystem::remove(entry.path(), rec);
    }
  }
}

void CheckpointStore::clear() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] {
    return std::none_of(ranks_.begin(), ranks_.end(),
                        [](const auto& kv) { return kv.second.in_flight; });
  });
  if (!spill_dir_.empty()) {
    // Enumerate the directory instead of the in-memory map: a respawned
    // process (empty map, disk-as-truth) must clear the files its
    // predecessors left, or a later job reusing the spill dir would wrongly
    // restore them.
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(spill_dir_, ec)) {
      if (entry.path().filename().string().rfind("ckpt_rank", 0) == 0) {
        std::error_code rec;
        std::filesystem::remove(entry.path(), rec);
      }
    }
  }
  ranks_.clear();
}

CheckpointStoreStats CheckpointStore::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace windar::ft
