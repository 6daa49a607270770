#include "perfbench/src/load.h"

#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <map>

#include <thread>
#include <unordered_map>
#include <utility>

#include "src/engine/engine.h"
#include "src/server/exec.h"
#include "src/server/snapshot.h"
#include "src/storage/storage_manager.h"

namespace perfbench {

namespace {

using wdpt::Result;
using wdpt::Status;
using wdpt::StatusCode;
using wdpt::server::Client;
using wdpt::server::Response;

uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// An unsigned numeric field of a single-line stats JSON object.
uint64_t JsonField(const std::string& json, const char* key) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

void FillFromResponse(const Response& response, QueryRecord* record) {
  record->code = response.code;
  const std::string& stats = response.stats_json;
  record->version = JsonField(stats, "snapshot_version");
  record->wall_ns = JsonField(stats, "wall_ns");
  record->queue_ns = JsonField(stats, "queue_ns");
  record->serialize_ns = JsonField(stats, "serialize_ns");
  record->stages_ns = JsonField(stats, "parse_ns") +
                      JsonField(stats, "plan_lookup_ns") +
                      JsonField(stats, "plan_build_ns") +
                      JsonField(stats, "cache_lookup_ns") +
                      JsonField(stats, "eval_ns") + record->serialize_ns;
  for (const std::string& row : response.rows) record->row_bytes += row.size();
  record->digest = AnswerDigest(response.truncated, response.rows);
}

double RssPeakMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// One INGEST round trip of batch k, recorded.
IngestRecord SendBatch(Client* writer, const IngestPlan& plan, uint64_t k) {
  IngestRecord record;
  record.batch = k;
  std::string body = plan.BatchBody(k);
  Clock::time_point t0 = Clock::now();
  Result<Response> response = writer->Ingest(std::move(body));
  record.latency_ns = ElapsedNs(t0);
  if (!response.ok()) {
    record.transport_error = true;
    return record;
  }
  record.code = response->code;
  record.version = JsonField(response->stats_json, "version");
  record.facts = JsonField(response->stats_json, "facts");
  return record;
}

bool Acked(const IngestRecord& record) {
  return !record.transport_error && record.code == StatusCode::kOk;
}

}  // namespace

wdpt::server::ServerOptions MakeServerOptions() {
  wdpt::server::ServerOptions options;
  options.num_workers = kServerWorkers;
  options.shards = 1;
  options.answer_cache_bytes = kAnswerCacheBytes;
  return options;
}

wdpt::storage::StorageOptions MakeStorageOptions(const std::string& dir) {
  wdpt::storage::StorageOptions options;
  options.dir = dir;
  options.shards = 1;
  options.fsync_wal = false;
  options.checkpoint_wal_bytes = kCheckpointWalBytes;
  return options;
}

void Rig::Stop() {
  if (reader != nullptr) reader->Close();
  if (writer != nullptr) writer->Close();
  if (server != nullptr) {
    final_storage = server->storage()->stats();
    server->Stop();
    server.reset();
  }
}

Result<std::unique_ptr<Rig>> SetUp(const WorkloadSpec& spec,
                                   const IngestPlan& plan, uint64_t seed,
                                   const std::string& dir) {
  auto rig = std::make_unique<Rig>();
  rig->dir = dir;
  std::string triples = CatalogTriples(spec.bands) + plan.SetTriples(0);

  Result<std::unique_ptr<wdpt::storage::StorageManager>> storage =
      wdpt::storage::StorageManager::Open(MakeStorageOptions(dir));
  if (!storage.ok()) return storage.status();
  Status imported = (*storage)->ImportTriples(triples);
  if (!imported.ok()) return imported;

  rig->server = std::make_unique<wdpt::server::Server>(MakeServerOptions());
  Status started = rig->server->StartWithStorage(std::move(*storage));
  if (!started.ok()) return started;
  uint16_t port = rig->server->port();

  rig->reader = std::make_unique<Client>();
  Status reader_connected = rig->reader->Connect("127.0.0.1", port);
  if (!reader_connected.ok()) return reader_connected;
  rig->stream = std::make_unique<RequestStream>(spec, seed);
  rig->writer = std::make_unique<Client>();
  Status connected = rig->writer->Connect("127.0.0.1", port);
  if (!connected.ok()) return connected;

  // Warm-up: one full cycle of the op stream (so every term and
  // relation the writer touches has been seen) and the first requests
  // of the reader's stream, all untimed.
  for (uint64_t k = 1; k <= IngestPlan::kSets; ++k) {
    IngestRecord record = SendBatch(rig->writer.get(), plan, k);
    if (!Acked(record)) {
      return Status::Internal("warm-up ingest batch " + std::to_string(k) +
                              " failed");
    }
    rig->warmup_batches = k;
    rig->initial_version = record.version;
    rig->facts = record.facts;
  }
  for (unsigned i = 0; i < spec.warmup_requests; ++i) {
    Result<Response> response =
        rig->reader->Query(MakeCall(rig->stream->Next(), spec.cache_bypass));
    if (!response.ok() || !response->ok()) {
      return Status::Internal("warm-up query failed");
    }
  }
  return rig;
}

uint64_t AnswerDigest(bool truncated, const std::vector<std::string>& rows) {
  uint64_t h = truncated ? 0x51ed27ull : 0x2545f491ull;
  std::hash<std::string_view> hasher;
  for (const std::string& row : rows) {
    h ^= hasher(row) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
  }
  return h ^ rows.size();
}

LoadResult RunLoad(const WorkloadSpec& spec, const IngestPlan& plan,
                   double seconds, Rig* rig, SpanRecorder* spans) {
  LoadResult result;
  // One thread drives both connections, so exactly one request is in
  // flight: the run measures the code path, not how the host schedules
  // several busy threads. Reads and writes alternate through the whole
  // run, so both see the same stretch of a host whose speed drifts.
  Clock::time_point end =
      Clock::now() +
      std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  uint64_t request_id = 1;

  // Returns false when the connection is gone.
  auto read = [&] {
    QueryRecord record;
    record.request = rig->stream->Next();
    record.traced = spans != nullptr && result.queries.size() % 2 == 1;
    wdpt::server::QueryCall call = MakeCall(record.request, spec.cache_bypass);
    Clock::time_point t0 = Clock::now();
    Result<Response> response = [&] {
      if (!record.traced) return rig->reader->Query(call);
      Span span(spans, "client.query", request_id++);
      return rig->reader->Query(call);
    }();
    record.latency_ns = ElapsedNs(t0);
    record.transport_error = !response.ok();
    if (response.ok()) FillFromResponse(*response, &record);
    result.queries.push_back(std::move(record));
    return response.ok();
  };

  uint64_t next_batch = rig->warmup_batches + 1;
  bool ok = true;
  while (ok && Clock::now() < end) {
    for (unsigned r = 0; ok && r < spec.reads_per_write; ++r) ok = read();
    if (!ok) break;
    IngestRecord record = SendBatch(rig->writer.get(), plan, next_batch++);
    result.ingests.push_back(record);
    // After a failed batch the state of the stream is unknown.
    ok = Acked(record);
  }
  result.rss_peak_mb = RssPeakMb();
  return result;
}

Verdict Verify(const WorkloadSpec& spec, const IngestPlan& plan,
               const Rig& rig, const LoadResult& load) {
  Verdict verdict;
  // Which batch each served version is the state after.
  std::unordered_map<uint64_t, uint64_t> batch_of_version;
  batch_of_version[rig.initial_version] = rig.warmup_batches;
  const IngestRecord* last_ack = nullptr;
  for (const IngestRecord& record : load.ingests) {
    if (!Acked(record)) continue;
    batch_of_version[record.version] = record.batch;
    last_ack = &record;
    if (record.facts != rig.facts) {
      ++verdict.mismatches;
      verdict.detail += "batch " + std::to_string(record.batch) +
                        " acked with a changed fact count; ";
    }
  }

  // Per state: the distinct requests answered in it, and each answer
  // with the position of its request.
  struct StateAnswers {
    std::vector<Request> requests;
    std::unordered_map<uint64_t, size_t> position;
    std::vector<std::pair<size_t, const QueryRecord*>> answers;
  };
  std::map<size_t, StateAnswers> states;
  for (const QueryRecord& record : load.queries) {
    if (record.transport_error || record.code != StatusCode::kOk) continue;
    auto it = batch_of_version.find(record.version);
    if (it == batch_of_version.end()) {
      ++verdict.mismatches;
      verdict.detail += "answer served from unknown version " +
                        std::to_string(record.version) + "; ";
      continue;
    }
    StateAnswers& s = states[IngestPlan::StateOf(it->second)];
    uint64_t key = (static_cast<uint64_t>(record.request.shape) << 32) |
                   record.request.band;
    auto [pos, fresh] = s.position.emplace(key, s.requests.size());
    if (fresh) s.requests.push_back(record.request);
    s.answers.emplace_back(pos->second, &record);
  }

  std::string catalog = CatalogTriples(spec.bands);
  for (const auto& [state, s] : states) {
    const std::vector<Request>& requests = s.requests;
    Result<std::shared_ptr<const wdpt::server::Snapshot>> snapshot =
        wdpt::server::LoadSnapshot(catalog + plan.SetTriples(state),
                                   /*version=*/1);
    if (!snapshot.ok()) {
      verdict.detail += "cannot build the expected state; ";
      verdict.mismatches += s.answers.size();
      return verdict;
    }
    // Expected answers on uncached engines, a few threads wide.
    std::vector<uint64_t> expected(requests.size());
    std::vector<uint8_t> expected_ok(requests.size());
    std::atomic<size_t> next{0};
    auto work = [&] {
      wdpt::Engine engine(wdpt::EngineOptions{1, 128, 0});
      for (size_t i = next++; i < requests.size(); i = next++) {
        Response response = wdpt::server::ExecuteQuery(
            &engine, **snapshot,
            MakeCall(requests[i], spec.cache_bypass).ToRequest());
        expected_ok[i] = response.ok();
        expected[i] = AnswerDigest(response.truncated, response.rows);
      }
    };
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) workers.emplace_back(work);
    for (std::thread& t : workers) t.join();

    for (const auto& [i, record] : s.answers) {
      ++verdict.checked;
      if (!expected_ok[i] || expected[i] != record->digest) {
        ++verdict.mismatches;
        if (verdict.mismatches <= 3) {
          verdict.detail += std::string("wrong answer for ") +
                            ShapeName(record->request.shape) + " band" +
                            std::to_string(record->request.band) + "; ";
        }
      }
    }
  }

  // Recovery: the reopened directory must hold the last acked state. A
  // checkpoint after that batch re-stamps the same state as
  // (new snapshot seq << 32) | 0.
  uint64_t want_version =
      last_ack != nullptr ? last_ack->version : rig.initial_version;
  if ((want_version >> 32) != rig.final_storage.snapshot_seq) {
    want_version = rig.final_storage.snapshot_seq << 32;

  }
  Result<std::unique_ptr<wdpt::storage::StorageManager>> reopened =
      wdpt::storage::StorageManager::Open(MakeStorageOptions(rig.dir));
  if (!reopened.ok()) {
    verdict.detail += "reopen failed: " + reopened.status().ToString();
    return verdict;
  }
  std::shared_ptr<const wdpt::server::Snapshot> recovered =
      (*reopened)->CurrentSnapshot();
  verdict.recovery_ok = recovered->version == want_version &&
                        recovered->db.TotalFacts() == rig.facts;
  if (!verdict.recovery_ok) {
    verdict.detail += "recovered version " +
                      std::to_string(recovered->version) + " facts " +
                      std::to_string(recovered->db.TotalFacts()) +
                      ", want version " + std::to_string(want_version) +
                      " facts " + std::to_string(rig.facts) + "; ";
  }
  return verdict;
}

}  // namespace perfbench
