#include "windar/metrics.h"

#include <algorithm>
#include <cstdio>

namespace windar::ft {

void Metrics::merge(const Metrics& o) {
  app_sent += o.app_sent;
  app_transmitted += o.app_transmitted;
  app_delivered += o.app_delivered;
  control_msgs += o.control_msgs;
  resent_msgs += o.resent_msgs;
  dup_dropped += o.dup_dropped;
  suppressed_sends += o.suppressed_sends;
  bad_packets += o.bad_packets;
  queue_b_peak = std::max(queue_b_peak, o.queue_b_peak);
  piggyback_idents += o.piggyback_idents;
  piggyback_bytes += o.piggyback_bytes;
  piggyback_bytes_dense += o.piggyback_bytes_dense;
  piggyback_bytes_sent += o.piggyback_bytes_sent;
  piggyback_resyncs += o.piggyback_resyncs;
  payload_bytes += o.payload_bytes;
  bytes_copied += o.bytes_copied;
  buffer_allocs += o.buffer_allocs;
  packets_recycled += o.packets_recycled;
  track_send_ns += o.track_send_ns;
  track_deliver_ns += o.track_deliver_ns;
  send_block_ns += o.send_block_ns;
  log_peak_bytes = std::max(log_peak_bytes, o.log_peak_bytes);
  log_peak_entries = std::max(log_peak_entries, o.log_peak_entries);
  log_released_entries += o.log_released_entries;
  checkpoints += o.checkpoints;
  ckpt_committed += o.ckpt_committed;
  ckpt_stall_ns += o.ckpt_stall_ns;
  ckpt_commit_ns += o.ckpt_commit_ns;
  recoveries += o.recoveries;
  rollback_broadcasts += o.rollback_broadcasts;
}

std::string Metrics::summary() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "sent=%llu delivered=%llu ctrl=%llu dup=%llu resent=%llu "
                "suppressed=%llu pb_idents/msg=%.2f pb_ratio=%.3f "
                "track_us/msg=%.3f ckpt=%llu recov=%llu",
                static_cast<unsigned long long>(app_sent),
                static_cast<unsigned long long>(app_delivered),
                static_cast<unsigned long long>(control_msgs),
                static_cast<unsigned long long>(dup_dropped),
                static_cast<unsigned long long>(resent_msgs),
                static_cast<unsigned long long>(suppressed_sends),
                avg_piggyback_idents(), piggyback_compression(),
                avg_track_us(),
                static_cast<unsigned long long>(checkpoints),
                static_cast<unsigned long long>(recoveries));
  return buf;
}

}  // namespace windar::ft
