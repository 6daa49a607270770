// Counters exported by the StorageManager (dependency-free so the
// server's metrics renderer can consume them without pulling in the
// storage implementation headers). kStorageStatsFields names each
// field once for the STATS JSON and the METRICS exposition.

#ifndef WDPT_SRC_STORAGE_STATS_H_
#define WDPT_SRC_STORAGE_STATS_H_

#include <cstdint>
#include <string>

#include "src/common/metrics.h"

namespace wdpt::storage {

/// A consistent snapshot of the manager's monotonic counters and
/// gauges; rendered as the wdpt_storage_* METRICS families and in the
/// STATS command's JSON.
struct StorageStats {
  uint64_t wal_appends = 0;       ///< Entries appended since open.
  uint64_t wal_bytes = 0;         ///< Bytes appended since open.
  uint64_t replays = 0;           ///< WAL entries replayed at open.
  uint64_t replayed_ops = 0;      ///< Ops across replayed entries.
  uint64_t truncated_bytes = 0;   ///< Torn-tail bytes dropped at open.
  uint64_t checkpoints = 0;       ///< WAL compactions into a snapshot.
  uint64_t publishes = 0;         ///< Immutable snapshots published.
  uint64_t wal_backlog_bytes = 0; ///< Current wal.log size (gauge).
  uint64_t snapshot_seq = 0;      ///< Sequence of the snapshot file.
  uint64_t snapshot_load_ns = 0;  ///< Wall time of the open-time load.

  std::string ToJson() const;
};

/// Every StorageStats field, once: its STATS key and its METRICS family
/// (null for the STATS-only open-time load timer).
inline constexpr metrics::StatField<StorageStats> kStorageStatsFields[] = {
    {"wal_appends", "wdpt_storage_wal_appends_total",
     &StorageStats::wal_appends},
    {"wal_bytes", "wdpt_storage_wal_bytes_total", &StorageStats::wal_bytes},
    {"replays", "wdpt_storage_replays_total", &StorageStats::replays},
    {"replayed_ops", "wdpt_storage_replayed_ops_total",
     &StorageStats::replayed_ops},
    {"truncated_bytes", "wdpt_storage_truncated_bytes_total",
     &StorageStats::truncated_bytes},
    {"checkpoints", "wdpt_storage_checkpoints_total",
     &StorageStats::checkpoints},
    {"publishes", "wdpt_storage_publishes_total", &StorageStats::publishes},
    {"wal_backlog_bytes", "wdpt_storage_wal_backlog_bytes",
     &StorageStats::wal_backlog_bytes},
    {"snapshot_seq", "wdpt_storage_snapshot_seq", &StorageStats::snapshot_seq},
    {"snapshot_load_ns", nullptr, &StorageStats::snapshot_load_ns},
};

inline std::string StorageStats::ToJson() const {
  return metrics::FieldsJson(*this, kStorageStatsFields);
}

}  // namespace wdpt::storage

#endif  // WDPT_SRC_STORAGE_STATS_H_
