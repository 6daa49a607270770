#include "src/server/metrics.h"

#include <cstdio>
#include <string_view>

#include "src/server/fault.h"

namespace wdpt::server {

namespace {

// Prometheus numbers: seconds with enough digits that distinct
// nanosecond bucket bounds stay distinct.
std::string Seconds(double ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", ns / 1e9);
  return std::string(buf);
}

void AppendType(std::string* out, std::string_view family, const char* kind) {
  *out += "# TYPE ";
  *out += family;
  *out += ' ';
  *out += kind;
  *out += '\n';
}

// One counter or gauge sample, typed by the family's name: `_total`
// families are counters, every other scalar family is a gauge.
void AppendScalar(std::string* out, std::string_view family, uint64_t value) {
  AppendType(out, family, family.ends_with("_total") ? "counter" : "gauge");
  *out += family;
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

// One scalar per row of a stats struct's field table that names a
// family; STATS-only rows are skipped.
template <typename Stats, size_t N>
void AppendFields(std::string* out, const Stats& stats,
                  const metrics::StatField<Stats> (&fields)[N]) {
  for (const metrics::StatField<Stats>& field : fields) {
    if (field.family != nullptr) {
      AppendScalar(out, field.family, stats.*field.member);
    }
  }
}

// Histogram recorded values are nanoseconds by default; kUnitless keeps
// bucket bounds and sums as raw integers (e.g. the shard fan-out).
enum class HistogramUnit { kSeconds, kUnitless };

// One histogram series in exposition order: cumulative non-empty
// buckets, the +Inf bucket, then _sum and _count. `labels` may be
// empty (an unlabelled family).
void AppendHistogramSeries(std::string* out, const char* family,
                           const std::string& labels,
                           const metrics::HistogramSnapshot& snap,
                           HistogramUnit unit = HistogramUnit::kSeconds) {
  auto value = [unit](double v) {
    if (unit == HistogramUnit::kSeconds) return Seconds(v);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  auto open_labels = [&labels](std::string* o, const char* trailing) {
    *o += '{';
    if (!labels.empty()) {
      *o += labels;
      if (*trailing != '\0') *o += ',';
    }
    *o += trailing;
  };
  uint64_t cumulative = 0;
  for (size_t i = 0; i + 1 < metrics::kHistogramBuckets; ++i) {
    if (snap.counts[i] == 0) continue;
    cumulative += snap.counts[i];
    *out += family;
    *out += "_bucket";
    open_labels(out, "le=\"");
    *out += value(static_cast<double>(
        metrics::LatencyHistogram::BucketUpperBound(i)));
    *out += "\"} ";
    *out += std::to_string(cumulative);
    *out += '\n';
  }
  *out += family;
  *out += "_bucket";
  open_labels(out, "le=\"+Inf\"} ");
  *out += std::to_string(snap.count);
  *out += '\n';
  *out += family;
  *out += "_sum";
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
  *out += ' ';
  *out += value(static_cast<double>(snap.sum));
  *out += '\n';
  *out += family;
  *out += "_count";
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
  *out += ' ';
  *out += std::to_string(snap.count);
  *out += '\n';
}

}  // namespace

void RequestMetrics::RecordQuery(const Trace& trace, sparql::RequestMode mode,
                                 StatusCode code) {
  size_t m = static_cast<size_t>(mode);
  size_t c = static_cast<size_t>(trace.classification());
  for (size_t s = 0; s < kQueryStageCount; ++s) {
    uint64_t ns = trace.span_ns(static_cast<TraceStage>(s));
    if (m < kRequestModeCount) stage_mode_[s][m].Record(ns);
    if (c < kTractabilityClassCount) stage_class_[s][c].Record(ns);
  }
  if (trace.shard_fanout() > 0) {
    shard_fanout_.Record(trace.shard_fanout());
    for (uint64_t ns : trace.shard_spans_ns()) shard_eval_.Record(ns);
  }
  size_t outcome = static_cast<size_t>(trace.cache_outcome());
  if (outcome < kCacheOutcomeCount) cache_wall_[outcome].Record(trace.TotalNs());
  size_t status = static_cast<size_t>(code);
  if (status < kStatusCodeCount) {
    responses_by_status_[status].fetch_add(1, std::memory_order_relaxed);
  }
}

void RequestMetrics::RecordIngest(const Trace& trace, StatusCode code) {
  ingest_wall_.Record(trace.TotalNs());
  publish_wall_.Record(trace.span_ns(TraceStage::kPublish));
  size_t status = static_cast<size_t>(code);
  if (status < kStatusCodeCount) {
    responses_by_status_[status].fetch_add(1, std::memory_order_relaxed);
  }
}

std::string RequestMetrics::RenderPrometheus(
    const ServerCounters& counters, const EngineStats& engine,
    uint64_t in_flight, uint64_t snapshot_version,
    const storage::StorageStats* storage,
    const replication::PrimaryReplicationStats* primary,
    const replication::ReplicaReplicationStats* replica) const {
  std::string out;
  out.reserve(16 * 1024);

  AppendFields(&out, counters, kServerCounterFields);

  if (const fault::Injector* injector = fault::Get()) {
    fault::Counters faults = injector->counters();
    AppendType(&out, "wdpt_fault_injections_total", "counter");
    auto fault_series = [&out](const char* kind, uint64_t n) {
      out += "wdpt_fault_injections_total{kind=\"";
      out += kind;
      out += "\"} ";
      out += std::to_string(n);
      out += '\n';
    };
    fault_series("delay", faults.delays);
    fault_series("short_write", faults.short_ops);
    fault_series("reset", faults.resets);
    fault_series("connect_fail", faults.connect_failures);
    fault_series("wal", faults.wal_failures);
  }

  AppendFields(&out, engine, kEngineStatsFields);
  AppendScalar(&out, "wdpt_server_in_flight_requests", in_flight);
  AppendScalar(&out, "wdpt_server_snapshot_version", snapshot_version);

  AppendType(&out, "wdpt_server_responses_total", "counter");
  for (size_t i = 0; i < kStatusCodeCount; ++i) {
    uint64_t n = responses_by_status_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    out += "wdpt_server_responses_total{status=\"";
    out += StatusCodeName(static_cast<StatusCode>(i));
    out += "\"} ";
    out += std::to_string(n);
    out += '\n';
  }

  AppendType(&out, "wdpt_stage_duration_seconds", "histogram");
  for (size_t s = 0; s < kQueryStageCount; ++s) {
    for (size_t m = 0; m < kRequestModeCount; ++m) {
      if (stage_mode_[s][m].count() == 0) continue;
      std::string labels = "stage=\"";
      labels += TraceStageName(static_cast<TraceStage>(s));
      labels += "\",mode=\"";
      labels += sparql::RequestModeName(static_cast<sparql::RequestMode>(m));
      labels += "\"";
      AppendHistogramSeries(&out, "wdpt_stage_duration_seconds", labels,
                            stage_mode_[s][m].Snapshot());
    }
  }

  AppendType(&out, "wdpt_shard_fanout", "histogram");
  if (shard_fanout_.count() != 0) {
    AppendHistogramSeries(&out, "wdpt_shard_fanout", "",
                          shard_fanout_.Snapshot(),
                          HistogramUnit::kUnitless);
  }
  AppendType(&out, "wdpt_shard_eval_duration_seconds", "histogram");
  if (shard_eval_.count() != 0) {
    AppendHistogramSeries(&out, "wdpt_shard_eval_duration_seconds", "",
                          shard_eval_.Snapshot());
  }

  AppendType(&out, "wdpt_answer_cache_request_duration_seconds", "histogram");
  for (size_t o = 0; o < kCacheOutcomeCount; ++o) {
    if (cache_wall_[o].count() == 0) continue;
    std::string labels = "cache=\"";
    labels += CacheOutcomeName(static_cast<CacheOutcome>(o));
    labels += "\"";
    AppendHistogramSeries(&out, "wdpt_answer_cache_request_duration_seconds",
                          labels, cache_wall_[o].Snapshot());
  }

  AppendType(&out, "wdpt_class_stage_duration_seconds", "histogram");
  for (size_t s = 0; s < kQueryStageCount; ++s) {
    for (size_t c = 0; c < kTractabilityClassCount; ++c) {
      if (stage_class_[s][c].count() == 0) continue;
      std::string labels = "stage=\"";
      labels += TraceStageName(static_cast<TraceStage>(s));
      labels += "\",class=\"";
      labels += TractabilityClassName(static_cast<TractabilityClass>(c));
      labels += "\"";
      AppendHistogramSeries(&out, "wdpt_class_stage_duration_seconds", labels,
                            stage_class_[s][c].Snapshot());
    }
  }

  if (storage != nullptr) {
    AppendFields(&out, *storage, storage::kStorageStatsFields);
    AppendType(&out, "wdpt_storage_ingest_duration_seconds", "histogram");
    if (ingest_wall_.count() != 0) {
      AppendHistogramSeries(&out, "wdpt_storage_ingest_duration_seconds", "",
                            ingest_wall_.Snapshot());
    }
    AppendType(&out, "wdpt_storage_publish_duration_seconds", "histogram");
    if (publish_wall_.count() != 0) {
      AppendHistogramSeries(&out, "wdpt_storage_publish_duration_seconds", "",
                            publish_wall_.Snapshot());
    }
  }

  if (primary != nullptr) {
    AppendFields(&out, *primary, replication::kPrimaryReplicationFields);
  }
  if (replica != nullptr) {
    AppendFields(&out, *replica, replication::kReplicaReplicationFields);
  }

  return out;
}

}  // namespace wdpt::server
