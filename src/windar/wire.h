// Wire-level constants and packet builders shared by the recovery layer.
//
// Every packet the recovery engine puts on the fabric — application messages
// (fresh sends and log-driven resends alike), acks, checkpoint advances, the
// ROLLBACK/RESPONSE choreography, and the TEL stability plane — is assembled
// here, so header layout lives in exactly one place.
#pragma once

#include <cctype>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.h"
#include "util/buffer.h"
#include "util/bytes.h"

namespace windar::ft {

/// Per-pair sequence number (the paper's send_index / deliver_index values).
using SeqNo = std::uint32_t;

/// Message kinds carried in net::Packet::kind.
enum class Kind : std::uint16_t {
  kApp = 1,             // application message, meta = protocol piggyback
  kDeliverAck,          // receiver accepted message (blocking-mode sends)
  kCheckpointAdvance,   // log release notification (Algorithm 1 line 36)
  kRollback,            // incarnation broadcast (Algorithm 1 line 46)
  kResponse,            // survivor reply (Algorithm 1 line 48)
  kTelLog,              // rank -> event logger: determinant batch
  kTelAck,              // event logger -> rank: stability watermark
  kTelQuery,            // incarnation -> event logger: determinant request
  kTelQueryReply,       // event logger -> incarnation
};

inline std::uint16_t wire(Kind k) { return static_cast<std::uint16_t>(k); }

// ---- event-logger shard routing ----
// The TEL/PES stability plane is sharded by sender rank: a job with n app
// ranks and S logger shards puts shard i on fabric endpoint n + i, and every
// rank talks to exactly one shard for its whole lifetime (kTelLog, kTelQuery,
// kCheckpointAdvance all go to the same endpoint, so per-rank watermark
// semantics are unchanged by sharding).

/// Which shard commits `rank`'s determinants (shard = sender rank % shards).
inline int logger_shard_index(int rank, int shards) {
  return shards > 1 ? rank % shards : 0;
}

/// The fabric endpoint of `rank`'s logger shard in a job with `n` app ranks.
inline int logger_shard_endpoint(int n, int rank, int shards) {
  return n + logger_shard_index(rank, shards);
}

enum class ProtocolKind {
  kTdi,        // this paper: dependency-interval vectors
  kTag,        // baseline: antecedence graph (Manetho / LogOn style)
  kTel,        // baseline: event-logger causal logging (Bouteiller et al.)
  kTdiSparse,  // extension: TDI with sparse vector encoding — piggybacks
               // only non-zero entries, sub-O(n) on sparse communication
               // graphs (halo exchanges, rings)
  kPes,        // baseline: pessimistic synchronous event logging — zero
               // piggyback, a stable-storage round trip on every delivery
  kTdiDelta,   // extension: TDI with per-channel delta encoding — piggybacks
               // only the entries that changed since the last send on the
               // same (sender, receiver) channel, plus the receiver's gate
               // entry; O(churn) instead of O(n) per message
};

enum class SendMode {
  kBlocking,     // paper Fig. 4(a): app thread waits for receiver acceptance
  kNonBlocking,  // paper Fig. 4(b): sends never wait; a receiver thread
                 // drains and dispatches the inbox
};

inline std::string to_string(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kTdi: return "TDI";
    case ProtocolKind::kTag: return "TAG";
    case ProtocolKind::kTel: return "TEL";
    case ProtocolKind::kTdiSparse: return "TDI-S";
    case ProtocolKind::kPes: return "PES";
    case ProtocolKind::kTdiDelta: return "TDI-D";
  }
  return "?";
}

/// The one protocol-name parser: the argv tokens (tdi, tdi-s, tdi-d, tag,
/// tel, pes), their aliases (tdis, tdi-sparse, tdid, tdi-delta) and the
/// to_string spellings, case-insensitively.  nullopt for any other name, so
/// callers reject a typo instead of running a default protocol.
inline std::optional<ProtocolKind> parse_protocol(std::string_view name) {
  std::string s(name);
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (s == "tdi") return ProtocolKind::kTdi;
  if (s == "tdi-s" || s == "tdis" || s == "tdi-sparse") {
    return ProtocolKind::kTdiSparse;
  }
  if (s == "tdi-d" || s == "tdid" || s == "tdi-delta") {
    return ProtocolKind::kTdiDelta;
  }
  if (s == "tag") return ProtocolKind::kTag;
  if (s == "tel") return ProtocolKind::kTel;
  if (s == "pes") return ProtocolKind::kPes;
  return std::nullopt;
}

inline std::string to_string(SendMode m) {
  return m == SendMode::kBlocking ? "blocking" : "nonblocking";
}

// ---- packet builders ----

/// Application message: `seq` carries the per-pair send_index and `meta` the
/// protocol piggyback.  Both sections are shared immutable buffers: the
/// packet references the caller's bytes instead of copying them, so the
/// sender log, a resend, and the original transmission all alias one
/// payload.  Resends must use the same builder so a retransmitted message is
/// byte-identical to the original.
inline net::Packet app_packet(int src, int dst, std::int32_t tag,
                              SeqNo send_index, util::Buffer meta,
                              util::Buffer payload) {
  return net::make_packet(src, dst, wire(Kind::kApp), tag, send_index,
                          std::move(meta), std::move(payload));
}

/// Control message (everything that is not kApp): tag unused, `seq` and
/// `payload` are interpreted per Kind.
inline net::Packet control_packet(int src, int dst, Kind kind,
                                  std::uint64_t seq,
                                  util::Buffer payload = {}) {
  return net::make_packet(src, dst, wire(kind), 0, seq, {},
                          std::move(payload));
}

// ---- kRollback body ----
// A ROLLBACK broadcast carries the incarnation's restored last_deliver
// vector; survivor j reads element j to learn which of its messages must be
// resent (Algorithm 1 line 46).

inline util::Buffer encode_rollback_body(std::span<const SeqNo> last_deliver) {
  util::ByteWriter w;
  w.u32_vec(last_deliver);
  return util::take_buffer(w);
}

inline std::vector<SeqNo> decode_rollback_body(
    std::span<const std::uint8_t> payload) {
  util::ByteReader r(payload);
  return r.u32_vec();
}

}  // namespace windar::ft
