// TDI delta encoding (Encoding::kDelta): per-channel change tracking, codec
// interop with the dense and sparse forms, and the restore()-driven resync
// that keeps rollback from ever delivering on a stale delta base.
//
// The correctness argument under test: per-pair FIFO delivery means that
// after k messages on a channel the receiver has merged every entry any of
// those k blobs carried, and entries are monotone between restores — so a
// blob carrying only the entries that changed since the previous send on the
// channel merges to the same state as the full vector.  restore() is the one
// point where entries can move backwards; it must invalidate every channel
// base so the next send is a full resync.
#include <gtest/gtest.h>

#include "chaos_app.h"
#include "windar/tdi_protocol.h"

namespace windar::ft {
namespace {

using Enc = TdiProtocol::Encoding;

// Delivers a dense vector into `p` as the `seq`-th delivery.
void deliver_vec(TdiProtocol& p, int src, SeqNo seq,
                 const std::vector<SeqNo>& vec) {
  util::ByteWriter w;
  w.u32_vec(vec);
  p.on_deliver(src, seq, seq, w.view());
}

TEST(TdiDelta, FirstSendOnChannelIsFullResync) {
  TdiProtocol p(0, 8, Enc::kDelta);
  deliver_vec(p, 3, 1, {0, 0, 5, 0, 0, 2, 0, 0});
  const Piggyback pb = p.on_send(1, 1);
  EXPECT_TRUE(pb.resync);
  // The resync carries every non-zero entry — decoding it reproduces the
  // sender's whole vector, exactly like the dense form.
  EXPECT_EQ(TdiProtocol::decode(pb.blob, 8), p.depend_interval());
  EXPECT_EQ(pb.dense_bytes, 4u + 4u * 8u);
}

TEST(TdiDelta, SteadyStateCarriesOnlyChangedEntries) {
  TdiProtocol p(0, 16, Enc::kDelta);
  deliver_vec(p, 3, 1, {0, 0, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0});
  const Piggyback first = p.on_send(1, 1);
  EXPECT_TRUE(first.resync);
  EXPECT_EQ(first.idents, 4u);  // entries 0 (self), 2, 5, 14

  // Nothing changed since: the follow-up delta is empty (the receiver's gate
  // entry, index 1, is zero and zeros are always omittable).
  const Piggyback second = p.on_send(1, 2);
  EXPECT_FALSE(second.resync);
  EXPECT_EQ(second.idents, 0u);
  EXPECT_EQ(second.blob.size(), 4u);  // bare header

  // One entry moves; only it is piggybacked.
  deliver_vec(p, 3, 2, {0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  const Piggyback third = p.on_send(1, 3);
  EXPECT_FALSE(third.resync);
  EXPECT_EQ(third.idents, 2u);  // entry 2 (changed) + entry 0 (self advanced)
  EXPECT_EQ(TdiProtocol::piggybacked_element(third.blob, 2), 9u);
  EXPECT_EQ(TdiProtocol::piggybacked_element(third.blob, 0), 2u);
  EXPECT_EQ(TdiProtocol::piggybacked_element(third.blob, 14), 0u);  // absent
}

TEST(TdiDelta, GateEntryRidesAlongEvenWhenUnchanged) {
  // deliverable() reads the receiver's entry from the message's own blob, so
  // the delta must include index dst whenever it is non-zero — even if the
  // previous send on the channel already carried it.
  TdiProtocol p(0, 8, Enc::kDelta);
  deliver_vec(p, 1, 1, {0, 6, 0, 0, 0, 0, 0, 0});
  (void)p.on_send(1, 1);
  const Piggyback pb = p.on_send(1, 2);
  // Nothing changed between the sends, yet the gate entry is present.
  EXPECT_EQ(TdiProtocol::piggybacked_element(pb.blob, 1), 6u);
}

TEST(TdiDelta, PerChannelBasesAreIndependent) {
  TdiProtocol p(0, 8, Enc::kDelta);
  deliver_vec(p, 3, 1, {0, 0, 5, 0, 0, 0, 0, 0});
  (void)p.on_send(1, 1);          // channel to 1 now has a base
  const Piggyback to2 = p.on_send(2, 1);
  EXPECT_TRUE(to2.resync);        // channel to 2 never saw anything
  EXPECT_EQ(TdiProtocol::decode(to2.blob, 8), p.depend_interval());
}

TEST(TdiDelta, AllThreeEncodingsDecodeIdentically) {
  TdiProtocol dense(0, 6, Enc::kDense);
  TdiProtocol sparse(0, 6, Enc::kSparse);
  TdiProtocol delta(0, 6, Enc::kDelta);
  const std::vector<SeqNo> learned{0, 4, 0, 1, 0, 0};
  deliver_vec(dense, 1, 1, learned);
  deliver_vec(sparse, 1, 1, learned);
  deliver_vec(delta, 1, 1, learned);
  const auto pd = dense.on_send(2, 1);
  const auto ps = sparse.on_send(2, 1);
  const auto pl = delta.on_send(2, 1);
  const auto want = TdiProtocol::decode(pd.blob, 6);
  EXPECT_EQ(TdiProtocol::decode(ps.blob, 6), want);
  EXPECT_EQ(TdiProtocol::decode(pl.blob, 6), want);
  for (int k = 0; k < 6; ++k) {
    EXPECT_EQ(TdiProtocol::piggybacked_element(pl.blob, k),
              TdiProtocol::piggybacked_element(pd.blob, k));
  }
}

TEST(TdiDelta, ReceiverMergesDeltaChainSameAsDense) {
  // Two identical senders, one per encoding, stream three sends down one
  // FIFO channel with vector growth in between; a pair of identical
  // receivers merges each stream.  Final tracked state must agree.
  TdiProtocol sd(2, 8, Enc::kDense);
  TdiProtocol sl(2, 8, Enc::kDelta);
  TdiProtocol rd(1, 8, Enc::kDense);
  TdiProtocol rl(1, 8, Enc::kDelta);
  const std::vector<std::vector<SeqNo>> learn = {
      {0, 0, 0, 3, 0, 0, 0, 0},
      {0, 0, 0, 3, 0, 9, 0, 1},
      {0, 0, 0, 4, 0, 9, 0, 1},
  };
  for (SeqNo i = 0; i < 3; ++i) {
    deliver_vec(sd, 3, i + 1, learn[static_cast<std::size_t>(i)]);
    deliver_vec(sl, 3, i + 1, learn[static_cast<std::size_t>(i)]);
    const auto pd = sd.on_send(1, i + 1);
    const auto pl = sl.on_send(1, i + 1);
    rd.on_deliver(2, i + 1, i + 1, pd.blob);
    rl.on_deliver(2, i + 1, i + 1, pl.blob);
    EXPECT_LE(pl.blob.size(), pd.blob.size());
  }
  EXPECT_EQ(rl.depend_interval(), rd.depend_interval());
}

TEST(TdiDelta, InterleavedChannelsMergeSameAsDense) {
  // Deliveries from two senders interleave at the receiver in an order that
  // is NOT a global serialization of the sends (channel B's first message
  // arrives between channel A's first and second).  FIFO only holds per
  // channel — exactly the guarantee the delta encoding leans on.
  TdiProtocol a_dense(2, 8, Enc::kDense), a_delta(2, 8, Enc::kDelta);
  TdiProtocol b_dense(3, 8, Enc::kDense), b_delta(3, 8, Enc::kDelta);
  TdiProtocol r_dense(1, 8, Enc::kDense), r_delta(1, 8, Enc::kDelta);

  deliver_vec(a_dense, 4, 1, {0, 0, 0, 0, 2, 0, 0, 0});
  deliver_vec(a_delta, 4, 1, {0, 0, 0, 0, 2, 0, 0, 0});
  deliver_vec(b_dense, 5, 1, {0, 0, 0, 0, 0, 6, 0, 0});
  deliver_vec(b_delta, 5, 1, {0, 0, 0, 0, 0, 6, 0, 0});

  const auto a1d = a_dense.on_send(1, 1), a1l = a_delta.on_send(1, 1);
  const auto b1d = b_dense.on_send(1, 1), b1l = b_delta.on_send(1, 1);
  deliver_vec(a_dense, 4, 2, {0, 0, 0, 0, 7, 0, 0, 0});
  deliver_vec(a_delta, 4, 2, {0, 0, 0, 0, 7, 0, 0, 0});
  const auto a2d = a_dense.on_send(1, 2), a2l = a_delta.on_send(1, 2);

  // Arrival order A1, B1, A2 — deliver_seq is the receiver's own count.
  r_dense.on_deliver(2, 1, 1, a1d.blob);
  r_delta.on_deliver(2, 1, 1, a1l.blob);
  r_dense.on_deliver(3, 1, 2, b1d.blob);
  r_delta.on_deliver(3, 1, 2, b1l.blob);
  r_dense.on_deliver(2, 2, 3, a2d.blob);
  r_delta.on_deliver(2, 2, 3, a2l.blob);
  EXPECT_EQ(r_delta.depend_interval(), r_dense.depend_interval());
}

TEST(TdiDelta, FallsBackToDenseWhenPairsWouldBeBigger) {
  // n=3: any delta with >=2 pairs costs 4+16 >= 4+12, so a fully-changed
  // vector ships dense.  The blob stays self-describing either way.
  TdiProtocol p(0, 3, Enc::kDelta);
  deliver_vec(p, 1, 1, {0, 0, 4});
  const Piggyback pb = p.on_send(2, 1);
  EXPECT_EQ(pb.idents, 3u);                    // dense fallback: n idents
  EXPECT_EQ(pb.blob.size(), 4u + 4u * 3u);     // dense layout
  EXPECT_EQ(TdiProtocol::decode(pb.blob, 3), p.depend_interval());

  // The fallback still advances the channel base: an unchanged follow-up
  // (same gate value) goes back to a small delta blob.
  const Piggyback next = p.on_send(2, 2);
  EXPECT_FALSE(next.resync);
  EXPECT_EQ(TdiProtocol::piggybacked_element(next.blob, 2),
            p.depend_interval()[2]);
}

TEST(TdiDelta, RestoreInvalidatesEveryChannelBase) {
  // The rollback scenario the resync exists for: the sender checkpoints,
  // keeps mutating, sends deltas, then restores.  Entries moved BACKWARDS,
  // so a post-restore delta against the pre-crash base would leave the
  // receiver believing stale (higher) values.  restore() must force a full
  // resync on every channel instead.
  TdiProtocol p(0, 8, Enc::kDelta);
  deliver_vec(p, 2, 1, {0, 0, 3, 0, 0, 0, 0, 0});
  util::ByteWriter saved;
  p.save(saved);

  deliver_vec(p, 2, 2, {0, 0, 8, 0, 0, 0, 5, 0});
  (void)p.on_send(1, 1);  // channel base now reflects the doomed state

  util::ByteReader r(saved.view());
  p.restore(r);
  EXPECT_EQ(p.depend_interval(), (std::vector<SeqNo>{1, 0, 3, 0, 0, 0, 0, 0}));

  const Piggyback pb = p.on_send(1, 2);
  EXPECT_TRUE(pb.resync);
  // Full resync: the blob alone reproduces the restored vector — nothing is
  // left to be "filled in" from the stale pre-crash delta chain.
  EXPECT_EQ(TdiProtocol::decode(pb.blob, 8), p.depend_interval());
}

TEST(TdiDelta, FactoryProducesDeltaKind) {
  auto p = make_protocol(ProtocolKind::kTdiDelta, 0, 3);
  EXPECT_EQ(p->kind(), ProtocolKind::kTdiDelta);
  EXPECT_EQ(std::string(to_string(p->kind())), "TDI-D");
  for (const char* name : {"tdi-d", "tdid", "tdi-delta", "TDI-D"}) {
    EXPECT_EQ(parse_protocol(name), ProtocolKind::kTdiDelta) << name;
  }
  EXPECT_EQ(parse_protocol("tdi-s"), ProtocolKind::kTdiSparse);
  EXPECT_EQ(parse_protocol("tdi-sparse"), ProtocolKind::kTdiSparse);
  EXPECT_EQ(parse_protocol("pes"), ProtocolKind::kPes);
  EXPECT_EQ(parse_protocol("tdi-x"), std::nullopt);  // typo: no fallback
}

// ---------------------------------------------------------------------------
// Change journal: the O(churn) encoder must be byte-identical to the
// original O(n) per-send scan, and the journal itself must stay bounded
// however long the protocol runs (the 4096-rank scale bug).
// ---------------------------------------------------------------------------

TEST(TdiDeltaJournal, JournalEncoderIsByteIdenticalToFullScan) {
  // Randomized workload over every channel: before each send, compute the
  // reference blob with the original full scan, then the journal-backed
  // on_send, and require the exact same bytes — same pairs, same order,
  // same dense-fallback decisions.
  const int n = 24;
  TdiProtocol p(0, n, Enc::kDelta);
  std::uint64_t rng = 0x243F6A8885A308D3ull;
  auto next = [&rng](std::uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };
  std::vector<SeqNo> sent(static_cast<std::size_t>(n), 0);
  std::vector<SeqNo> vec(static_cast<std::size_t>(n), 0);
  SeqNo deliveries = 0;
  for (int step = 0; step < 400; ++step) {
    if (next(3) != 0) {
      // Deliver: bump a few random entries (monotone, like real merges).
      const int touches = 1 + static_cast<int>(next(3));
      for (int t = 0; t < touches; ++t) {
        vec[next(static_cast<std::uint64_t>(n))] += 1 + next(4);
      }
      deliver_vec(p, 1 + static_cast<int>(next(
                          static_cast<std::uint64_t>(n - 1))),
                  ++deliveries, vec);
    } else {
      const int dst = 1 + static_cast<int>(next(
                              static_cast<std::uint64_t>(n - 1)));
      const Piggyback want = p.scan_encode_for_test(dst);
      const Piggyback got =
          p.on_send(dst, ++sent[static_cast<std::size_t>(dst)]);
      ASSERT_EQ(got.blob, want.blob) << "step " << step << " dst " << dst;
      EXPECT_EQ(got.resync, want.resync);
      EXPECT_EQ(got.idents, want.idents);
    }
  }
}

TEST(TdiDeltaJournal, JournalStaysBoundedUnderSustainedChurn) {
  // The seed kept a per-entry change tick but the encoder re-scanned all n
  // entries per send; the journal replaces the scan and is compacted, so
  // its length must stay O(n) no matter how many deliveries accumulate.
  const int n = 32;
  TdiProtocol p(0, n, Enc::kDelta);
  std::vector<SeqNo> vec(static_cast<std::size_t>(n), 0);
  SeqNo sent = 0;
  const std::size_t cap = 4u * static_cast<std::size_t>(n);
  for (SeqNo i = 1; i <= 4096; ++i) {
    vec[static_cast<std::size_t>(i) % static_cast<std::size_t>(n)] = i;
    deliver_vec(p, 1, i, vec);
    EXPECT_LE(p.journal_size_for_test(), cap) << "delivery " << i;
    if (i % 16 == 0) {
      // Live channel: steady sends keep the base recent, so compaction can
      // always find a trim point without forcing resyncs here.
      const Piggyback pb = p.on_send(1, ++sent);
      if (sent > 1) {
        EXPECT_FALSE(pb.resync);
      }
    }
  }
  EXPECT_LE(p.journal_size_for_test(), cap);
}

TEST(TdiDeltaJournal, CompactionForcesResyncOnlyOnStaleChannels) {
  // A channel that last sent long ago has its base compacted away and pays
  // one full resync; a recently-active channel keeps its delta.
  const int n = 8;
  TdiProtocol p(0, n, Enc::kDelta);
  std::vector<SeqNo> vec(static_cast<std::size_t>(n), 0);
  SeqNo deliveries = 0, to1 = 0, to2 = 0;
  deliver_vec(p, 3, ++deliveries, vec);
  (void)p.on_send(1, ++to1);  // channel 1 base set, then goes idle
  for (SeqNo i = 0; i < 2048; ++i) {
    vec[static_cast<std::size_t>(i) % static_cast<std::size_t>(n)] += 1;
    deliver_vec(p, 3, ++deliveries, vec);
    if (i % 8 == 0) (void)p.on_send(2, ++to2);  // channel 2 stays hot
  }
  const Piggyback cold = p.on_send(1, ++to1);
  EXPECT_TRUE(cold.resync);
  EXPECT_EQ(TdiProtocol::decode(cold.blob, n), p.depend_interval());
  const Piggyback hot = p.on_send(2, ++to2);
  EXPECT_FALSE(hot.resync);
}

TEST(TdiDeltaJournal, RestoreClearsJournal) {
  // restore() stamps every entry at one tick, which breaks the journal's
  // position-to-tick mapping — it must drop the journal and lean on the
  // all-bases-invalidated resync instead.
  TdiProtocol p(0, 8, Enc::kDelta);
  util::ByteWriter saved;
  p.save(saved);
  deliver_vec(p, 2, 1, {0, 0, 3, 0, 0, 1, 0, 0});
  EXPECT_GT(p.journal_size_for_test(), 0u);
  util::ByteReader r(saved.view());
  p.restore(r);
  EXPECT_EQ(p.journal_size_for_test(), 0u);
  deliver_vec(p, 2, 1, {0, 0, 4, 0, 0, 1, 0, 0});
  const Piggyback pb = p.on_send(1, 1);
  EXPECT_TRUE(pb.resync);
  EXPECT_EQ(TdiProtocol::decode(pb.blob, 8), p.depend_interval());
}

// ---------------------------------------------------------------------------
// End-to-end: chaos convergence under rollback, where a stale delta base
// would surface as a digest divergence (a receiver gating/merging on values
// the restarted sender never re-reached).
// ---------------------------------------------------------------------------

ChaosPlan delta_plan(std::uint64_t seed = 7) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.n = 4;
  plan.iterations = 30;
  plan.checkpoint_every = 3;
  return plan;
}

TEST(TdiDeltaChaos, ConvergesAcrossRollbacks) {
  ChaosPlan plan = delta_plan();
  plan.events = {kill_on_delivery(1, 8), kill_on_delivery(2, 18)};
  const auto clean = chaos::run_plan(plan, ProtocolKind::kTdi, false);
  const auto faulty = chaos::run_plan(plan, ProtocolKind::kTdiDelta, true);
  EXPECT_EQ(clean.digest, faulty.digest);
  EXPECT_EQ(faulty.result.total.recoveries, 2u);
  // The restarted senders resynced at least once each.
  EXPECT_GE(faulty.result.total.piggyback_resyncs, 2u);
}

TEST(TdiDeltaChaos, ConvergesOnCooperativeScheduler) {
  ChaosPlan plan = delta_plan(11);
  plan.events = {kill_on_delivery(2, 10)};
  const std::uint64_t clean =
      chaos::run_plan(plan, ProtocolKind::kTdi, false).digest;
  JobConfig cfg = chaos::plan_config(plan, ProtocolKind::kTdiDelta, true);
  cfg.exec_model = exec::ExecModel::kCoop;
  cfg.exec_workers = 2;
  RankResults<std::uint64_t> digests(plan.n);
  auto result = run_job(cfg, [&](Ctx& ctx) {
    digests.set(ctx.rank(), chaos::ring_digest_rank(ctx, plan.iterations,
                                                    plan.checkpoint_every) %
                                1000000007ull);
  });
  EXPECT_EQ(digests.sum(), clean);
  EXPECT_EQ(result.total.recoveries, 1u);
}

}  // namespace
}  // namespace windar::ft
