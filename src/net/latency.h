// Link latency model for the simulated fabric.
//
// delay(bytes) = base + per_byte * bytes + U[0, jitter)
//
// The jitter term is what makes message *arrival order* non-deterministic
// between independent channels — the phenomenon the paper's relaxed execution
// model exploits (§II.C) and which the PWD baselines must serialize away.
#pragma once

#include <chrono>
#include <cstdint>

#include "util/rng.h"

namespace windar::net {

struct LatencyModel {
  std::chrono::nanoseconds base{20'000};            // per-message fixed cost
  std::chrono::nanoseconds per_byte{80};            // ~100 Mb/s Ethernet-ish
  std::chrono::nanoseconds jitter{40'000};          // uniform [0, jitter)

  bool operator==(const LatencyModel&) const = default;

  /// Identically-zero model: every delay() is 0ns for every packet size.
  /// The fabric uses this to enable the sender-side cut-through fast path
  /// (no delay to model means no scheduler hop is needed).
  bool is_zero() const {
    return base.count() == 0 && per_byte.count() == 0 && jitter.count() == 0;
  }

  std::chrono::nanoseconds delay(std::size_t bytes, util::Rng& rng) const {
    auto d = base + per_byte * static_cast<std::int64_t>(bytes);
    if (jitter.count() > 0) {
      d += std::chrono::nanoseconds(
          static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(jitter.count()))));
    }
    return d;
  }

  /// A model with zero jitter — used by tests that need deterministic
  /// arrival order.
  static LatencyModel deterministic(std::chrono::nanoseconds base_ns =
                                        std::chrono::nanoseconds(5'000),
                                    std::chrono::nanoseconds per_byte_ns =
                                        std::chrono::nanoseconds(10)) {
    return LatencyModel{base_ns, per_byte_ns, std::chrono::nanoseconds(0)};
  }

  /// A fast model for large test sweeps: sub-microsecond base, heavy jitter
  /// relative to base so reordering is frequent.
  static LatencyModel turbulent(std::chrono::nanoseconds base_ns =
                                    std::chrono::nanoseconds(2'000)) {
    return LatencyModel{base_ns, std::chrono::nanoseconds(2),
                        std::chrono::nanoseconds(30'000)};
  }
};

}  // namespace windar::net
