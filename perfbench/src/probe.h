// The traced run's per-layer measurements, taken from the benchmark's
// own code around calls into each layer's public entry points.
//
// ProbeLayers replays the steps of one QUERY (context copy, compile,
// plan build, evaluation, serialization) as separate calls, each under
// a span, on the workload's own snapshot. ReplayOps runs a fixed,
// seeded prefix of the workload's reads and writes sequentially through
// server::ExecuteQuery on a fresh engine and StorageManager::Ingest on a
// fresh store, so the counters it reads (EngineStats, StorageStats) are
// exact and repeat run to run.

#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <string>
#include <vector>

#include "perfbench/src/load.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workload.h"
#include "src/server/snapshot.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Times each layer call of the workload's query shapes on `snapshot`.
void ProbeLayers(const WorkloadSpec& spec, uint64_t seed,
                 const wdpt::server::Snapshot& snapshot, SpanRecorder* spans,
                 Metrics* out);

/// Replays the seeded op prefix in `dir` (a fresh directory) and reports
/// the exact counts, the storage stage timings and setup.load_s.
/// Returns false (with `error`) when a layer call fails.
bool ReplayOps(const WorkloadSpec& spec, const IngestPlan& plan,
               uint64_t seed, const std::string& dir, SpanRecorder* spans,
               Metrics* out, std::string* error);

/// Per-shape client latency, the read p99 and ingest p95 tails, the
/// server-side split of each round trip from the response stats, and the
/// tracing overhead, all from a traced closed-loop run.
void LoadLayerMetrics(const LoadResult& load, Metrics* out);

/// Self time of every span name (median, in ms).
void SelfTimeMetrics(const SpanRecorder& spans, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
