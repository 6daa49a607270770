// Server observability: request counters, per-stage latency histograms,
// and the Prometheus text exposition behind the METRICS command.
//
// RequestMetrics is the serving-side sink for per-request Traces
// (src/common/trace.h): every finished QUERY folds its stage spans
// into two histogram families — keyed by request mode (eval / partial /
// max) and by the plan's tractability class (l-tractable / g-tractable
// / intractable) — so tail latency can be attributed to a pipeline
// stage and to query structure without per-request logging. Recording
// is wait-free (relaxed atomics, see LatencyHistogram); rendering walks
// snapshots and never blocks a request.

#ifndef WDPT_SRC_SERVER_METRICS_H_
#define WDPT_SRC_SERVER_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/engine/stats.h"
#include "src/replication/stats.h"
#include "src/sparql/request.h"
#include "src/storage/stats.h"

namespace wdpt::server {

/// Monotonic counters exposed via the STATS and METRICS commands.
struct ServerCounters {
  uint64_t connections = 0;
  uint64_t requests = 0;         ///< Frames successfully parsed.
  uint64_t protocol_errors = 0;  ///< Frames rejected before dispatch.
  uint64_t queries = 0;
  uint64_t admitted = 0;
  uint64_t rejected_overload = 0;
  uint64_t reloads = 0;
  uint64_t ingests = 0;      ///< INGEST batches durably applied.
  uint64_t checkpoints = 0;  ///< CHECKPOINT compactions completed.
  uint64_t idle_timeouts = 0;  ///< Sessions closed by the idle timeout.
  /// Work requests that finished (response fully written) during a
  /// drain window — the graceful-shutdown acceptance signal.
  uint64_t drained_requests = 0;
  /// New work arrivals answered kOverloaded + retry hint while draining.
  uint64_t drain_rejections = 0;

  std::string ToJson() const;
};

/// Every ServerCounters field, once: its STATS key and its METRICS
/// family. drained_requests is exposed as a gauge (no `_total`): the
/// chaos run's acceptance gate reads that exact family name.
inline constexpr metrics::StatField<ServerCounters> kServerCounterFields[] = {
    {"connections", "wdpt_server_connections_total",
     &ServerCounters::connections},
    {"requests", "wdpt_server_requests_total", &ServerCounters::requests},
    {"protocol_errors", "wdpt_server_protocol_errors_total",
     &ServerCounters::protocol_errors},
    {"queries", "wdpt_server_queries_total", &ServerCounters::queries},
    {"admitted", "wdpt_server_admitted_total", &ServerCounters::admitted},
    {"rejected_overload", "wdpt_server_rejected_overload_total",
     &ServerCounters::rejected_overload},
    {"reloads", "wdpt_server_reloads_total", &ServerCounters::reloads},
    {"ingests", "wdpt_server_ingests_total", &ServerCounters::ingests},
    {"checkpoints", "wdpt_server_checkpoints_total",
     &ServerCounters::checkpoints},
    {"idle_timeouts", "wdpt_server_idle_timeouts_total",
     &ServerCounters::idle_timeouts},
    {"drained_requests", "wdpt_server_drained_requests",
     &ServerCounters::drained_requests},
    {"drain_rejections", "wdpt_server_drain_rejections_total",
     &ServerCounters::drain_rejections},
};

inline std::string ServerCounters::ToJson() const {
  return metrics::FieldsJson(*this, kServerCounterFields);
}

/// Cardinality of sparql::RequestMode (eval / partial / max).
inline constexpr size_t kRequestModeCount = 3;
/// Cardinality of StatusCode (kOk .. kRedirect).
inline constexpr size_t kStatusCodeCount = 11;

/// Aggregates per-request traces into label-keyed latency histograms.
/// Thread-safe; recording is wait-free.
class RequestMetrics {
 public:
  /// Folds one finished QUERY's trace into the histograms. Records all
  /// stages — zero-length spans land in the first bucket — so every
  /// stage histogram's count equals the number of queries served, which
  /// is the invariant the METRICS acceptance check rides on. A request
  /// that ran sharded scatter-gather (trace.shard_fanout() > 0)
  /// additionally records its fan-out into the `wdpt_shard_fanout`
  /// histogram and each shard task's wall time into
  /// `wdpt_shard_eval_duration_seconds`; unsharded requests touch
  /// neither, so those families count sharded executions only. The
  /// request's total traced wall time is also recorded into the
  /// `wdpt_answer_cache_request_duration_seconds` family keyed by the
  /// trace's cache outcome, so hit latency can be compared against miss
  /// and bypass latency directly.
  void RecordQuery(const Trace& trace, sparql::RequestMode mode,
                   StatusCode code);

  /// Folds one finished INGEST's trace into the storage histograms:
  /// total wall time into `wdpt_storage_ingest_duration_seconds` and the
  /// publish span into `wdpt_storage_publish_duration_seconds`. Ingests
  /// never enter the query stage histograms — those keep the invariant
  /// that every stage count equals the number of queries served.
  void RecordIngest(const Trace& trace, StatusCode code);

  /// The full Prometheus text exposition: one counter or gauge per
  /// family-carrying row of the server and engine field tables,
  /// in-flight / snapshot-version gauges, response-status counters, and
  /// the histogram families (cumulative `le` buckets in seconds).
  /// Series with zero observations are omitted to bound the payload.
  /// When `storage` is non-null (storage-backed servers) the
  /// kStorageStatsFields families and the ingest/publish latency
  /// histograms are appended. When `primary` / `replica` is non-null
  /// that side's replication field table is appended — docs/METRICS.md
  /// lists every family.
  std::string RenderPrometheus(
      const ServerCounters& counters, const EngineStats& engine,
      uint64_t in_flight, uint64_t snapshot_version,
      const storage::StorageStats* storage = nullptr,
      const replication::PrimaryReplicationStats* primary = nullptr,
      const replication::ReplicaReplicationStats* replica = nullptr) const;

 private:
  /// Query pipeline stages only (kQueueWait..kSerialize); the storage
  /// stages appended to TraceStage never occur in a QUERY trace.
  metrics::LatencyHistogram stage_mode_[kQueryStageCount][kRequestModeCount];
  metrics::LatencyHistogram
      stage_class_[kQueryStageCount][kTractabilityClassCount];
  /// Shard-task count per sharded request (unitless values, not ns).
  metrics::LatencyHistogram shard_fanout_;
  /// Wall time of each individual shard task of sharded requests.
  metrics::LatencyHistogram shard_eval_;
  /// Total request wall time keyed by answer-cache outcome
  /// (bypass / hit / miss).
  metrics::LatencyHistogram cache_wall_[kCacheOutcomeCount];
  /// Total INGEST wall time (wal_append + apply + publish).
  metrics::LatencyHistogram ingest_wall_;
  /// Snapshot-publication span (MakeSnapshot + hot swap) of ingests.
  metrics::LatencyHistogram publish_wall_;
  std::atomic<uint64_t> responses_by_status_[kStatusCodeCount] = {};
};

}  // namespace wdpt::server

#endif  // WDPT_SRC_SERVER_METRICS_H_
