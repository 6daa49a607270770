#include "perfbench/src/probe.h"

#include <algorithm>
#include <map>
#include <optional>

#include "src/common/percentile.h"
#include "src/common/trace.h"
#include "src/engine/engine.h"
#include "src/server/exec.h"
#include "src/sparql/request.h"
#include "src/storage/storage_manager.h"
#include "src/wdpt/enumerate.h"

namespace perfbench {

namespace {

using wdpt::Result;
using wdpt::server::Snapshot;

/// Samples per probed shape: few for the scans (one `max` call takes
/// tens of milliseconds), more for the cheap keyed shapes.
constexpr int kScanSamples = 5;
constexpr int kKeyedSamples = 40;
constexpr int kProjectedSamples = 5;
constexpr int kSnapshotBuildSamples = 3;

/// Steps of the replayed op prefix; a step is the spec's reads per
/// write and one ingest batch. Few for the scan mix (one `max` call
/// takes tens of milliseconds), enough at 8,000 bands to checkpoint.
int ReplaySteps(const WorkloadSpec& spec) {
  return spec.cache_bypass ? 30 : 150;
}

double NsToMs(double ns) { return ns / 1e6; }

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Adds `name` with the median of `ns` converted by `scale`, or 0 when
/// the layer call did not run on this workload.
void AddMedian(Metrics* out, const std::string& name,
               const std::vector<uint64_t>& ns, double scale,
               const char* unit) {
  out->push_back({name, Median(ns) / scale, unit});
}

/// Records a child span laid out from a duration the program reported.
void AddPlaced(SpanRecorder* spans, const char* name, uint64_t request,
               uint64_t parent, uint64_t start_ns, uint64_t duration_ns) {
  SpanRecord record;
  record.id = spans->NextId();
  record.parent = parent;
  record.request = request;
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = start_ns + duration_ns;
  record.placed = true;
  spans->Add(record);
}

}  // namespace

void ProbeLayers(const WorkloadSpec& spec, uint64_t seed,
                 const Snapshot& snapshot, SpanRecorder* spans,
                 Metrics* out) {
  std::vector<Shape> shapes = spec.shapes;
  if (spec.cache_bypass) shapes.push_back(Shape::kPoint);
  std::mt19937_64 rng(MixSeed(seed, 99));
  Zipf zipf(spec.bands, 1.0);

  std::vector<uint64_t> by_shape[kShapeCount];
  uint64_t request = 1u << 30;  // Apart from the client.query ids.
  for (Shape shape : shapes) {
    int samples = IsKeyed(shape) ? kKeyedSamples : kScanSamples;
    for (int s = 0; s < samples; ++s, ++request) {
      Request req{shape, IsKeyed(shape) ? zipf.Sample(rng) : 0};
      wdpt::sparql::QueryRequest query =
          MakeCall(req, /*cache_bypass=*/true).ToRequest();
      // A fresh engine, so GetPlan builds the plan as a cold server does.
      wdpt::Engine engine(wdpt::EngineOptions{1, 128, 0});

      Span root(spans, "server.execute", request);
      std::optional<wdpt::RdfContext> ctx;
      {
        Span span(spans, "server.context_clone", request, root.id());
        ctx.emplace(snapshot.ctx);
      }
      Result<wdpt::sparql::CompiledRequest> compiled = [&] {
        Span span(spans, "sparql.compile", request, root.id());
        return wdpt::sparql::CompileRequest(query, &*ctx);
      }();
      if (!compiled.ok()) continue;
      wdpt::CallOptions options = compiled->options;
      {
        Span span(spans, "engine.get_plan", request, root.id());
        (void)engine.GetPlan(compiled->tree,
                             wdpt::PlanOptions{options.width_bound,
                                               options.algorithm});
      }
      std::vector<std::string> rows;
      if (compiled->check) {
        Span span(spans, "engine.eval", request, root.id());
        Result<bool> verdict = engine.Eval(compiled->tree, snapshot.db,
                                           compiled->candidate, options);
        span.End();
        by_shape[static_cast<size_t>(shape)].push_back(span.duration_ns());
        Span serialize(spans, "server.serialize", request, root.id());
        if (verdict.ok()) rows.push_back(*verdict ? "true" : "false");
      } else {
        Span span(spans, "engine.enumerate", request, root.id());
        Result<std::vector<wdpt::Mapping>> answers =
            engine.Enumerate(compiled->tree, snapshot.db, options);
        span.End();
        by_shape[static_cast<size_t>(shape)].push_back(span.duration_ns());
        Span serialize(spans, "server.serialize", request, root.id());
        if (answers.ok()) {
          size_t keep = answers->size();
          if (compiled->max_results != 0) {
            keep = std::min<size_t>(keep, compiled->max_results);
          }
          for (size_t i = 0; i < keep; ++i) {
            rows.push_back((*answers)[i].ToString(ctx->vocab()));
          }
        }
      }
    }
  }

  // EvaluateWdptProjected directly on the base query, below the engine.
  wdpt::RdfContext ctx = snapshot.ctx;
  Result<wdpt::sparql::CompiledRequest> base = wdpt::sparql::CompileRequest(
      MakeCall(Request{Shape::kStd, 0}, true).ToRequest(), &ctx);
  std::vector<uint64_t> projected;
  if (base.ok()) {
    for (int s = 0; s < kProjectedSamples; ++s, ++request) {
      Span span(spans, "wdpt.projected", request);
      (void)wdpt::EvaluateWdptProjected(base->tree, snapshot.db);
      span.End();
      projected.push_back(span.duration_ns());
    }
  }

  std::map<std::string, std::vector<uint64_t>> durations =
      spans->DurationsByName();
  AddMedian(out, "server.context_clone_ms", durations["server.context_clone"],
            1e6, "ms");
  AddMedian(out, "sparql.compile_us", durations["sparql.compile"], 1e3, "us");
  AddMedian(out, "engine.plan_build_us", durations["engine.get_plan"], 1e3,
            "us");
  for (Shape shape : {Shape::kStd, Shape::kMax, Shape::kLim10, Shape::kFig1,
                      Shape::kPoint}) {
    AddMedian(out, std::string("engine.enumerate_ms.") + ShapeName(shape),
              by_shape[static_cast<size_t>(shape)], 1e6, "ms");
  }
  for (Shape shape : {Shape::kCand, Shape::kPcand, Shape::kPartial}) {
    AddMedian(out, std::string("engine.eval_us.") + ShapeName(shape),
              by_shape[static_cast<size_t>(shape)], 1e3, "us");
  }
  // p(D) and p_m(D) of the base query are the same answer set here, so
  // the difference is the maximality filter alone.
  double filter_ns = 0;
  if (!by_shape[static_cast<size_t>(Shape::kMax)].empty()) {
    filter_ns = Median(by_shape[static_cast<size_t>(Shape::kMax)]) -
                Median(by_shape[static_cast<size_t>(Shape::kStd)]);
  }
  out->push_back({"wdpt.maximal_filter_ms", NsToMs(filter_ns), "ms"});
  AddMedian(out, "wdpt.projected_ms", projected, 1e6, "ms");
}

bool ReplayOps(const WorkloadSpec& spec, const IngestPlan& plan,
               uint64_t seed, const std::string& dir, SpanRecorder* spans,
               Metrics* out, std::string* error) {
  wdpt::storage::StorageOptions storage_options = MakeStorageOptions(dir);
  storage_options.checkpoint_wal_bytes = 0;  // Checkpoints are explicit.
  uint64_t request = 1u << 31;

  std::unique_ptr<wdpt::storage::StorageManager> store;
  {
    Span span(spans, "setup.load", request++);
    Result<std::unique_ptr<wdpt::storage::StorageManager>> opened =
        wdpt::storage::StorageManager::Open(storage_options);
    if (!opened.ok()) {
      *error = opened.status().ToString();
      return false;
    }
    store = std::move(*opened);
    wdpt::Status imported = store->ImportTriples(
        CatalogTriples(spec.bands) + plan.SetTriples(0));
    if (!imported.ok()) {
      *error = imported.ToString();
      return false;
    }
    span.End();
    out->push_back({"setup.load_s",
                    static_cast<double>(span.duration_ns()) / 1e9, "s"});
  }

  {
    std::shared_ptr<const Snapshot> current = store->CurrentSnapshot();
    std::vector<uint64_t> builds;
    for (int s = 0; s < kSnapshotBuildSamples; ++s) {
      Span span(spans, "storage.snapshot_build", request++);
      (void)wdpt::server::MakeSnapshot(current->ctx, current->db, 1);
      span.End();
      builds.push_back(span.duration_ns());
    }
    AddMedian(out, "storage.snapshot_build_ms", builds, 1e6, "ms");
  }

  // The server's engine configuration, fresh, so every count below
  // starts from zero.
  wdpt::server::ServerOptions server_options = MakeServerOptions();
  wdpt::EngineOptions engine_options = server_options.engine;
  engine_options.answer_cache_bytes = server_options.answer_cache_bytes;
  wdpt::Engine engine(engine_options);
  wdpt::storage::StorageStats storage_before = store->stats();

  RequestStream stream(spec, seed);
  std::vector<uint64_t> ingest_ns, wal_ns, apply_ns, publish_ns,
      checkpoint_ns;
  uint64_t queries = 0, batches = 0;

  auto read = [&] {
    wdpt::server::Response response = wdpt::server::ExecuteQuery(
        &engine, *store->CurrentSnapshot(),
        MakeCall(stream.Next(), spec.cache_bypass).ToRequest());
    ++queries;
    if (!response.ok()) *error = "replayed query failed: " + response.message;
    return response.ok();
  };
  auto write = [&] {
    uint64_t k = ++batches;
    Result<std::vector<wdpt::storage::TripleOp>> ops =
        wdpt::storage::ParseIngestBody(plan.BatchBody(k));
    if (!ops.ok()) {
      *error = ops.status().ToString();
      return false;
    }
    wdpt::Trace trace;
    Span span(spans, "storage.ingest", request);
    Result<wdpt::storage::IngestResult> applied = store->Ingest(*ops, &trace);
    span.End();
    if (!applied.ok()) {
      *error = applied.status().ToString();
      return false;
    }
    // Ingest runs append, apply and publish back to back under its lock.
    uint64_t at = span.start_ns();
    const std::pair<const char*, wdpt::TraceStage> stages[] = {
        {"storage.wal_append", wdpt::TraceStage::kWalAppend},
        {"storage.apply", wdpt::TraceStage::kApply},
        {"storage.publish", wdpt::TraceStage::kPublish}};
    for (const auto& [name, stage] : stages) {
      AddPlaced(spans, name, request, span.id(), at, trace.span_ns(stage));
      at += trace.span_ns(stage);
    }
    ingest_ns.push_back(span.duration_ns());
    wal_ns.push_back(trace.span_ns(wdpt::TraceStage::kWalAppend));
    apply_ns.push_back(trace.span_ns(wdpt::TraceStage::kApply));
    publish_ns.push_back(trace.span_ns(wdpt::TraceStage::kPublish));
    ++request;
    // The server's auto-checkpoint rule, made explicit so the checkpoint
    // gets its own span instead of hiding in the batch's publish stage.
    if (store->stats().wal_backlog_bytes >= kCheckpointWalBytes) {
      wdpt::Trace checkpoint_trace;
      Span checkpoint(spans, "storage.checkpoint", request++);
      Result<wdpt::storage::CheckpointResult> done =
          store->Checkpoint(&checkpoint_trace);
      checkpoint.End();
      if (!done.ok()) {
        *error = done.status().ToString();
        return false;
      }
      checkpoint_ns.push_back(checkpoint.duration_ns());
    }
    return true;
  };

  // The load's order: the reads of a step, then its batch.
  for (int step = 0; step < ReplaySteps(spec); ++step) {
    for (unsigned r = 0; r < spec.reads_per_write; ++r) {
      if (!read()) return false;
    }
    if (!write()) return false;
  }

  wdpt::EngineStats e = engine.stats();
  wdpt::storage::StorageStats s = store->stats();
  uint64_t answer_lookups = e.answer_cache_hits + e.answer_cache_misses;
  uint64_t ops = batches * IngestPlan::kOpsPerBatch;
  out->push_back({"count.queries", static_cast<double>(queries), "count"});
  out->push_back({"engine.plan_cache_lookups",
                  static_cast<double>(e.plan_cache_lookups), "count"});
  out->push_back({"engine.plan_cache_hit_ratio",
                  Ratio(e.plan_cache_hits, e.plan_cache_lookups), "ratio"});
  out->push_back(
      {"engine.plans_built", static_cast<double>(e.plans_built), "count"});
  out->push_back({"engine.answer_cache_lookups",
                  static_cast<double>(answer_lookups), "count"});
  out->push_back({"engine.answer_cache_hit_ratio",
                  Ratio(e.answer_cache_hits, answer_lookups), "ratio"});
  out->push_back({"engine.answer_cache_evictions",
                  static_cast<double>(e.answer_cache_evictions), "count"});
  out->push_back({"engine.answer_cache_entries",
                  static_cast<double>(e.answer_cache_entries), "count"});
  out->push_back({"engine.answer_cache_bytes",
                  static_cast<double>(e.answer_cache_bytes), "bytes"});
  out->push_back({"cq.homomorphism_calls_per_query",
                  Ratio(e.homomorphism_calls, queries), "count"});
  out->push_back({"relational.csr_probes_per_query",
                  Ratio(e.csr_probes, queries), "count"});
  out->push_back({"relational.gallop_intersections_per_query",
                  Ratio(e.gallop_intersections, queries), "count"});
  out->push_back({"storage.ops", static_cast<double>(ops), "count"});
  out->push_back({"storage.wal_bytes_per_op",
                  Ratio(s.wal_bytes - storage_before.wal_bytes, ops),
                  "bytes"});
  out->push_back({"storage.publishes",
                  static_cast<double>(s.publishes - storage_before.publishes),
                  "count"});
  out->push_back(
      {"storage.checkpoints",
       static_cast<double>(s.checkpoints - storage_before.checkpoints),
       "count"});
  AddMedian(out, "storage.ingest_ms", ingest_ns, 1e6, "ms");
  AddMedian(out, "storage.wal_append_us", wal_ns, 1e3, "us");
  AddMedian(out, "storage.apply_us", apply_ns, 1e3, "us");
  AddMedian(out, "storage.publish_ms", publish_ns, 1e6, "ms");
  AddMedian(out, "storage.checkpoint_ms", checkpoint_ns, 1e6, "ms");
  return true;
}

void LoadLayerMetrics(const LoadResult& load, Metrics* out) {
  std::vector<uint64_t> by_shape[kShapeCount];
  std::vector<uint64_t> traced, untraced, wire, queue, exec, unattributed,
      serialize;
  uint64_t bytes = 0, answered = 0;
  for (const QueryRecord& q : load.queries) {
    if (q.transport_error || q.code != wdpt::StatusCode::kOk) {
      continue;
    }
    (q.traced ? traced : untraced).push_back(q.latency_ns);
    if (q.traced) continue;
    by_shape[static_cast<size_t>(q.request.shape)].push_back(q.latency_ns);
    uint64_t server_ns = q.wall_ns + q.queue_ns;
    wire.push_back(q.latency_ns > server_ns ? q.latency_ns - server_ns : 0);
    queue.push_back(q.queue_ns);
    exec.push_back(q.wall_ns);
    unattributed.push_back(q.wall_ns > q.stages_ns ? q.wall_ns - q.stages_ns
                                                   : 0);
    serialize.push_back(q.serialize_ns);
    bytes += q.row_bytes;
    ++answered;
  }
  for (size_t s = 0; s < kShapeCount; ++s) {
    AddMedian(out,
              std::string("client.p50_ms.") +
                  ShapeName(static_cast<Shape>(s)),
              by_shape[s], 1e6, "ms");
  }
  // The tails that are too noisy on a shared host to carry a bound.
  out->push_back(
      {"client.p99_ms", wdpt::PercentileMs(untraced, 0.99), "ms"});
  std::vector<uint64_t> ingest;
  for (const IngestRecord& r : load.ingests) ingest.push_back(r.latency_ns);
  out->push_back(
      {"client.ingest_p95_ms", wdpt::PercentileMs(ingest, 0.95), "ms"});
  AddMedian(out, "server.wire_ms", wire, 1e6, "ms");
  AddMedian(out, "server.queue_wait_ms", queue, 1e6, "ms");
  AddMedian(out, "server.exec_ms", exec, 1e6, "ms");
  AddMedian(out, "server.exec_unattributed_ms", unattributed, 1e6, "ms");
  AddMedian(out, "server.serialize_ms", serialize, 1e6, "ms");
  out->push_back({"server.response_bytes", Ratio(bytes, answered), "bytes"});
  out->push_back({"trace.overhead_ms",
                  NsToMs(Median(traced) - Median(untraced)), "ms"});
}

void SelfTimeMetrics(const SpanRecorder& spans, Metrics* out) {
  // Every span name the traced run can record, so each run reports the
  // same metric set (0 for a call the workload does not make).
  static const char* const kSpanNames[] = {
      "client.query",        "server.execute",     "server.context_clone",
      "sparql.compile",      "engine.get_plan",    "engine.enumerate",
      "engine.eval",         "server.serialize",   "wdpt.projected",
      "storage.ingest",      "storage.wal_append", "storage.apply",
      "storage.publish",     "storage.checkpoint", "storage.snapshot_build",
      "setup.load"};
  std::map<std::string, std::vector<uint64_t>> self = spans.SelfTimesByName();
  for (const char* name : kSpanNames) {
    AddMedian(out, std::string("self_ms.") + name, self[name], 1e6, "ms");
  }
}

}  // namespace perfbench
