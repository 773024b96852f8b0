// Protocol micro-benchmarks (google-benchmark): the per-operation costs
// behind Fig. 7 — piggyback construction (on_send) and metadata merge
// (on_deliver) for each protocol, across system scales and determinant
// populations.
#include <benchmark/benchmark.h>

#include "windar/checkpoint.h"
#include "windar/sender_log.h"
#include "windar/tag_protocol.h"
#include "windar/tdi_protocol.h"
#include "windar/tel_protocol.h"

namespace windar::ft {
namespace {

// ---- TDI: vector piggyback + element-wise max merge ----

void BM_TdiOnSend(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TdiProtocol p(0, n);
  SeqNo idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.on_send(1, ++idx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TdiOnSend)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_TdiOnDeliver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TdiProtocol p(0, n);
  TdiProtocol sender(1, n);
  const Piggyback pb = sender.on_send(0, 1);
  SeqNo seq = 0;
  for (auto _ : state) {
    ++seq;
    p.on_deliver(1, seq, seq, pb.blob);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TdiOnDeliver)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// ---- TAG: incremental antecedence-graph piggyback ----

// Each iteration: one delivery creating a determinant, then one send that
// piggybacks the increment — the steady-state TAG cycle.
void BM_TagDeliverSendCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TagProtocol p(0, n);
  util::ByteWriter empty;
  empty.u32(0);
  SeqNo seq = 0;
  int dst = 1;
  for (auto _ : state) {
    ++seq;
    p.on_deliver(1, seq, seq, empty.view());
    benchmark::DoNotOptimize(p.on_send(dst, seq));
    dst = 1 + static_cast<int>(seq % static_cast<SeqNo>(n - 1));
    // Periodic checkpoint-advance GC, as a real run would see.
    if (seq % 512 == 0) p.on_peer_checkpoint(0, seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagDeliverSendCycle)->Arg(4)->Arg(16)->Arg(64);

// Merge cost as a function of piggybacked determinant count.
void BM_TagMergeDeterminants(benchmark::State& state) {
  const int dets = static_cast<int>(state.range(0));
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(dets));
  for (int i = 0; i < dets; ++i) {
    Determinant{2, 3, static_cast<SeqNo>(i + 1), static_cast<SeqNo>(i + 1)}
        .write(w);
  }
  const util::Bytes blob = w.take();
  SeqNo seq = 0;
  TagProtocol p(0, 8);
  for (auto _ : state) {
    ++seq;
    p.on_deliver(1, seq, seq, blob);
  }
  state.SetItemsProcessed(state.iterations() * dets);
}
BENCHMARK(BM_TagMergeDeterminants)->Arg(1)->Arg(16)->Arg(128)->Arg(1024);

// ---- TEL: unstable-set piggyback ----

void BM_TelOnSendUnstable(benchmark::State& state) {
  const int unstable = static_cast<int>(state.range(0));
  TelProtocol p(0, 8);
  util::ByteWriter carrier;
  carrier.u32_vec(std::vector<SeqNo>(8, 0));
  carrier.u32(0);
  for (int i = 0; i < unstable; ++i) {
    p.on_deliver(1, static_cast<SeqNo>(i + 1), static_cast<SeqNo>(i + 1),
                 carrier.view());
  }
  SeqNo idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.on_send(1, ++idx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelOnSendUnstable)->Arg(0)->Arg(8)->Arg(64)->Arg(512);

// ---- shared plumbing ----

void BM_SenderLogAppendRelease(benchmark::State& state) {
  const std::size_t payload = static_cast<std::size_t>(state.range(0));
  SenderLog log(2);
  SeqNo idx = 0;
  for (auto _ : state) {
    LogEntry e;
    e.send_index = ++idx;
    e.payload = util::Buffer(util::Bytes(payload, 0x5A));
    log.append(1, std::move(e));
    if (idx % 64 == 0) log.release_upto(1, idx);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SenderLogAppendRelease)->Arg(64)->Arg(1024)->Arg(16384);

void BM_CheckpointImageRoundTrip(benchmark::State& state) {
  CheckpointImage img;
  img.app.assign(static_cast<std::size_t>(state.range(0)), 0xA5);
  img.last_send.assign(32, 7);
  img.last_deliver.assign(32, 9);
  for (auto _ : state) {
    auto blob = img.serialize();
    benchmark::DoNotOptimize(CheckpointImage::deserialize(blob));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointImageRoundTrip)->Arg(1024)->Arg(65536)->Arg(1 << 20);

}  // namespace
}  // namespace windar::ft

BENCHMARK_MAIN();
