// One result slot per rank, for test jobs that combine the values their
// rank functions return.
//
// The runtime re-runs a rank function when a kill lands after the function
// returned (say, while its last checkpoint commit drains), so under faults a
// rank may report its result more than once.  Each report overwrites the
// rank's slot, as a repeated DONE does in the multi-process launcher; a
// shared running sum would count that rank twice.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

namespace windar::ft {

template <typename T>
class RankResults {
 public:
  explicit RankResults(int n) : slots_(static_cast<std::size_t>(n)) {}

  void set(int rank, T value) {
    slots_[static_cast<std::size_t>(rank)].store(value,
                                                 std::memory_order_relaxed);
  }

  /// Sum over ranks; read it after the job returned.
  T sum() const {
    T total{};
    for (const auto& slot : slots_) {
      total += slot.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::vector<std::atomic<T>> slots_;
};

}  // namespace windar::ft
