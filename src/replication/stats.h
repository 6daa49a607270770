// Replication counters, dependency-free so the server's metrics
// renderer and STATS JSON can consume them without pulling in the hub
// or replicator implementations (the same split as storage/stats.h).
// Each struct's field table names every field once for both outputs.

#ifndef WDPT_SRC_REPLICATION_STATS_H_
#define WDPT_SRC_REPLICATION_STATS_H_

#include <cstdint>
#include <string>

#include "src/common/metrics.h"

namespace wdpt::replication {

/// Primary-side ship counters (one Hub): rendered as the
/// wdpt_replication_* families on a storage-backed server and under
/// the STATS command's "replication" key.
struct PrimaryReplicationStats {
  uint64_t role = 0;              ///< STATS "role": 0 = primary.
  uint64_t subscribers = 0;       ///< Streams currently attached (gauge).
  uint64_t batches_shipped = 0;   ///< WALSEG batches pushed to replicas.
  uint64_t bytes_shipped = 0;     ///< WALSEG frame bytes (heartbeats too).
  uint64_t snapshot_fetches = 0;  ///< SNAPSHOT-FETCH bootstraps served.
  uint64_t stale_subscribes = 0;  ///< Subscribes at a compacted position.
  uint64_t epoch = 0;             ///< Current WAL epoch (gauge).
  uint64_t head_seq = 0;          ///< Newest batch seq this epoch (gauge).

  std::string ToJson() const;
};

/// Every PrimaryReplicationStats field, once: its STATS key and its
/// METRICS family (null for STATS-only fields).
inline constexpr metrics::StatField<PrimaryReplicationStats>
    kPrimaryReplicationFields[] = {
        {"role", nullptr, &PrimaryReplicationStats::role},
        {"subscribers", "wdpt_replication_subscribers",
         &PrimaryReplicationStats::subscribers},
        {"batches_shipped", "wdpt_replication_batches_shipped_total",
         &PrimaryReplicationStats::batches_shipped},
        {"bytes_shipped", "wdpt_replication_bytes_shipped_total",
         &PrimaryReplicationStats::bytes_shipped},
        {"snapshot_fetches", "wdpt_replication_snapshot_fetches_total",
         &PrimaryReplicationStats::snapshot_fetches},
        {"stale_subscribes", "wdpt_replication_stale_subscribes_total",
         &PrimaryReplicationStats::stale_subscribes},
        {"epoch", nullptr, &PrimaryReplicationStats::epoch},
        {"head_seq", "wdpt_replication_head_seq",
         &PrimaryReplicationStats::head_seq},
};

inline std::string PrimaryReplicationStats::ToJson() const {
  return metrics::FieldsJson(*this, kPrimaryReplicationFields);
}

/// Replica-side apply counters (one Replicator, plus the serving
/// counters — redirects, lag sheds — the replica server folds in).
struct ReplicaReplicationStats {
  uint64_t role = 1;              ///< STATS "role": 1 = replica.
  uint64_t batches_applied = 0;   ///< WALSEG batches applied + published.
  uint64_t bytes_received = 0;    ///< WALSEG frame bytes received.
  uint64_t resyncs = 0;           ///< Stream re-establishments after the
                                  ///< first (torn frames, primary restarts).
  uint64_t snapshot_fetches = 0;  ///< Full bootstraps from a snapshot.
  uint64_t lag_batches = 0;       ///< head_seq - applied seq, as of the
                                  ///< last received WALSEG (gauge).
  uint64_t applied_seq = 0;       ///< Last applied batch seq (gauge).
  uint64_t head_seq = 0;          ///< Primary head as last heard (gauge).
  uint64_t epoch = 0;             ///< Epoch the replica is tracking.
  uint64_t redirects = 0;         ///< Writes answered kRedirect.
  uint64_t lag_sheds = 0;         ///< Reads shed for exceeding max lag.

  std::string ToJson() const;
};

/// Every ReplicaReplicationStats field, once. The snapshot-fetch family
/// is the one family in two tables: a process is either a primary or a
/// replica, and each side counts its own half of the bootstrap.
inline constexpr metrics::StatField<ReplicaReplicationStats>
    kReplicaReplicationFields[] = {
        {"role", nullptr, &ReplicaReplicationStats::role},
        {"batches_applied", "wdpt_replication_batches_applied_total",
         &ReplicaReplicationStats::batches_applied},
        {"bytes_received", "wdpt_replication_bytes_received_total",
         &ReplicaReplicationStats::bytes_received},
        {"resyncs", "wdpt_replication_resyncs_total",
         &ReplicaReplicationStats::resyncs},
        {"snapshot_fetches", "wdpt_replication_snapshot_fetches_total",
         &ReplicaReplicationStats::snapshot_fetches},
        {"lag_batches", "wdpt_replication_lag_batches",
         &ReplicaReplicationStats::lag_batches},
        {"applied_seq", nullptr, &ReplicaReplicationStats::applied_seq},
        {"head_seq", nullptr, &ReplicaReplicationStats::head_seq},
        {"epoch", "wdpt_replication_epoch", &ReplicaReplicationStats::epoch},
        {"redirects", "wdpt_replication_redirects_total",
         &ReplicaReplicationStats::redirects},
        {"lag_sheds", "wdpt_replication_lag_sheds_total",
         &ReplicaReplicationStats::lag_sheds},
};

inline std::string ReplicaReplicationStats::ToJson() const {
  return metrics::FieldsJson(*this, kReplicaReplicationFields);
}

}  // namespace wdpt::replication

#endif  // WDPT_SRC_REPLICATION_STATS_H_
