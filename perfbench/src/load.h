// The serving rig and the closed-loop load: an in-process
// storage-backed server::Server on loopback, a reader connection running
// the workload's query mix, a writer connection sending INGEST batches,
// both driven from one thread, and the checks that every answer is
// right.

#ifndef PERFBENCH_SRC_LOAD_H_
#define PERFBENCH_SRC_LOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "perfbench/src/workload.h"
#include "src/common/status.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/storage/stats.h"

namespace perfbench {

/// Server-side knobs shared by every workload: one shard, two workers,
/// the default 128-plan cache, a 32 MiB answer cache, no deadlines, WAL
/// fsync off, and a WAL size that makes auto-checkpoint fire several
/// times per run.
inline constexpr unsigned kServerWorkers = 2;
inline constexpr size_t kAnswerCacheBytes = 32u << 20;
inline constexpr uint64_t kCheckpointWalBytes = 32u << 10;

wdpt::server::ServerOptions MakeServerOptions();
wdpt::storage::StorageOptions MakeStorageOptions(const std::string& dir);

/// A started server with connected clients, ready for the first timed
/// request.
struct Rig {
  std::string dir;
  std::unique_ptr<wdpt::server::Server> server;
  std::unique_ptr<wdpt::server::Client> reader;
  std::unique_ptr<RequestStream> stream;
  std::unique_ptr<wdpt::server::Client> writer;
  /// Batches acked during set-up, and the version they left serving.
  uint64_t warmup_batches = 0;
  uint64_t initial_version = 0;
  uint64_t facts = 0;
  /// The store's counters when the rig stopped. Its snapshot sequence
  /// names the recovered version when a checkpoint followed the last
  /// acked batch.
  wdpt::storage::StorageStats final_storage;

  /// Closes the clients and stops the server.
  void Stop();
};

/// Generates the catalog, imports it into a fresh data directory `dir`,
/// starts the server, connects the clients and warms up. The caller
/// times the call as set-up.
wdpt::Result<std::unique_ptr<Rig>> SetUp(const WorkloadSpec& spec,
                                        const IngestPlan& plan, uint64_t seed,
                                        const std::string& dir);

struct QueryRecord {
  Request request;
  uint64_t latency_ns = 0;

  bool traced = false;
  bool transport_error = false;
  wdpt::StatusCode code = wdpt::StatusCode::kOk;
  uint64_t version = 0;
  uint64_t digest = 0;
  // From the response's per-request stats.
  uint64_t wall_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t stages_ns = 0;  ///< Parse through serialize.
  uint64_t serialize_ns = 0;
  uint64_t row_bytes = 0;
};

struct IngestRecord {
  uint64_t batch = 0;
  uint64_t latency_ns = 0;
  bool transport_error = false;
  wdpt::StatusCode code = wdpt::StatusCode::kOk;
  uint64_t version = 0;
  uint64_t facts = 0;
};

struct LoadResult {
  std::vector<QueryRecord> queries;
  std::vector<IngestRecord> ingests;
  double rss_peak_mb = 0;
};

/// Runs the timed closed loop for `seconds` on one thread: the spec's
/// reads per write, then one INGEST batch, over and over. One request
/// is in flight at a time, and reads and writes both span the whole
/// run. With
/// `spans`, every other read is traced: a client.query span is recorded
/// around it and counted in its latency.
LoadResult RunLoad(const WorkloadSpec& spec, const IngestPlan& plan,
                   double seconds, Rig* rig, SpanRecorder* spans);

/// Digest of a response's answer: the truncation flag and every row.
uint64_t AnswerDigest(bool truncated, const std::vector<std::string>& rows);

struct Verdict {
  uint64_t checked = 0;
  uint64_t mismatches = 0;  ///< Wrong rows, or a version no batch made.
  bool recovery_ok = false;
  std::string detail;
};

/// Checks every OK answer against local server::ExecuteQuery on an
/// uncached engine over a snapshot of the state its version names, then
/// reopens the stopped rig's data directory and checks the recovered
/// version and fact count against the last acked batch. Call after
/// Rig::Stop.
Verdict Verify(const WorkloadSpec& spec, const IngestPlan& plan,
               const Rig& rig, const LoadResult& load);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOAD_H_
