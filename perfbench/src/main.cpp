// wdpt_perfbench: the end-to-end benchmark of the WDPT query server.
//
// Usage:
//   wdpt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//
// Sets up an in-process storage-backed server::Server over loopback,
// drives it with a reader and a writer server::Client from one thread
// in a closed loop for S seconds on the named workload (scan-mix or
// ingest-read; see perfbench/README.md), checks every answer, and
// prints the metrics as one JSON object on the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same load
// with every other request traced, then the per-layer probes, and
// reports the per-layer metrics. A readable table goes to stderr. The
// exit code is 0 only when every answer was right.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>

#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "perfbench/src/load.h"
#include "perfbench/src/probe.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workload.h"
#include "src/common/percentile.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

int Usage(const char* argv0) {
  std::string names;
  for (const std::string& name : WorkloadNames()) names += " " + name;
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\nworkloads:%s\n",
               argv0, names.c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double ElapsedS(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The p-quantile in ms of latencies where a failure counts as infinite.
double QuantileMs(std::vector<uint64_t> ns, double p) {
  if (ns.empty()) return 0;
  uint64_t v = wdpt::PercentileValue(ns, p);
  return v == std::numeric_limits<uint64_t>::max()
             ? std::numeric_limits<double>::infinity()
             : static_cast<double>(v) / 1e6;
}

/// How many samples lie beyond the p-quantile's rank.
size_t Beyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(n - 1));
  return n - idx - 1;
}

std::string JsonNumber(double v) {
  // A failed request makes a percentile infinite; JSON has no infinity.
  if (v > std::numeric_limits<double>::max()) {
    v = std::numeric_limits<double>::max();
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) return Usage(argv[0]);

  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  fs::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  const IngestPlan plan(spec->bands, args.seed);
  std::vector<uint64_t> setup_ns;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    if (rig != nullptr) {
      rig->Stop();
      fs::remove_all(rig->dir, ec);
      rig.reset();
      // Hand the torn-down rig's memory back, so rss_peak_mb measures
      // one serving rig and not the allocator's leftovers from the last.
      malloc_trim(0);
    }
    Clock::time_point start = Clock::now();
    wdpt::Result<std::unique_ptr<Rig>> made =
        SetUp(*spec, plan, args.seed,
              args.work_dir + "/data" + std::to_string(i));
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup_ns.push_back(static_cast<uint64_t>(ElapsedS(start) * 1e9));
    rig = std::move(*made);
  }

  SpanRecorder spans;
  LoadResult load = RunLoad(*spec, plan, args.seconds, rig.get(),
                            args.trace ? &spans : nullptr);
  rig->Stop();
  Clock::time_point verify_start = Clock::now();
  Verdict verdict = Verify(*spec, plan, *rig, load);
  double verify_s = ElapsedS(verify_start);

  uint64_t transport = 0, status = 0, ok_queries = 0, acked = 0;
  std::vector<uint64_t> query_ns, ingest_ns;
  // Time the connection spent waiting on each kind of call; with one
  // request in flight, the rates below are per second of that time.
  double query_s = 0, ingest_s = 0;
  constexpr uint64_t kFailed = std::numeric_limits<uint64_t>::max();
  for (const QueryRecord& q : load.queries) {
    bool ok = !q.transport_error && q.code == wdpt::StatusCode::kOk;
    transport += q.transport_error;
    status += !q.transport_error && !ok;
    ok_queries += ok;
    query_ns.push_back(ok ? q.latency_ns : kFailed);
    query_s += static_cast<double>(q.latency_ns) / 1e9;
  }
  for (const IngestRecord& r : load.ingests) {
    bool ok = !r.transport_error && r.code == wdpt::StatusCode::kOk;
    transport += r.transport_error;
    status += !r.transport_error && !ok;
    acked += ok;
    ingest_ns.push_back(ok ? r.latency_ns : kFailed);
    ingest_s += static_cast<double>(r.latency_ns) / 1e9;
  }
  uint64_t attempted = load.queries.size() + load.ingests.size();
  uint64_t failed = transport + status + verdict.mismatches +
                    (verdict.recovery_ok ? 0 : 1);
  bool correct = failed == 0 && ok_queries > 0 && acked > 0;

  std::fprintf(stderr,
               "workload=%s seed=%llu seconds=%g trace=%d bands=%u\n",
               spec->name, static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0, spec->bands);
  std::fprintf(stderr,
               "queries=%zu (p95 has %zu beyond) ingest_batches=%zu (p95 has "
               "%zu beyond) checkpoints=%llu checked=%llu verify_s=%.2f\n",
               query_ns.size(), Beyond(query_ns.size(), 0.95),
               ingest_ns.size(), Beyond(ingest_ns.size(), 0.95),
               static_cast<unsigned long long>(rig->final_storage.checkpoints),
               static_cast<unsigned long long>(verdict.checked), verify_s);
  std::fprintf(stderr,
               "error_rate=%g (transport=%llu status=%llu mismatches=%llu "
               "recovery=%s) of %llu operations %s\n",
               attempted ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0,
               static_cast<unsigned long long>(transport),
               static_cast<unsigned long long>(status),
               static_cast<unsigned long long>(verdict.mismatches),
               verdict.recovery_ok ? "ok" : "FAILED",
               static_cast<unsigned long long>(attempted),
               verdict.detail.c_str());

  Metrics metrics;
  if (!args.trace) {
    metrics = {
        {"query_p50_ms", QuantileMs(query_ns, 0.50), "ms"},
        {"query_p95_ms", QuantileMs(query_ns, 0.95), "ms"},
        {"query_rps", static_cast<double>(ok_queries) / query_s, "1/s"},
        {"ingest_p50_ms", QuantileMs(ingest_ns, 0.50), "ms"},
        {"ingest_ops_s",
         static_cast<double>(acked * IngestPlan::kOpsPerBatch) / ingest_s,
         "1/s"},
        {"setup_s", Median(setup_ns) / 1e9, "s"},
        {"rss_peak_mb", load.rss_peak_mb, "MB"},
    };
  } else {
    Clock::time_point probe_start = Clock::now();
    wdpt::Result<std::shared_ptr<const wdpt::server::Snapshot>> snapshot =
        wdpt::server::LoadSnapshot(
            CatalogTriples(spec->bands) + plan.SetTriples(0), 1);
    std::string error;
    if (!snapshot.ok()) {
      error = snapshot.status().ToString();
    } else {
      ProbeLayers(*spec, args.seed, **snapshot, &spans, &metrics);
      snapshot->reset();
      if (!ReplayOps(*spec, plan, args.seed, args.work_dir + "/replay",
                     &spans, &metrics, &error)) {
        correct = false;
      }
    }
    if (!error.empty()) {
      std::fprintf(stderr, "layer probe failed: %s\n", error.c_str());
      correct = false;
      ++failed;
    }
    LoadLayerMetrics(load, &metrics);
    SelfTimeMetrics(spans, &metrics);
    fs::path traces = fs::path(args.work_dir).parent_path() / "traces";
    fs::create_directories(traces, ec);
    std::string path = (traces / (args.workload + "-seed" +
                                  std::to_string(args.seed) + ".jsonl"))
                           .string();
    if (spans.WriteJsonLines(path)) {
      std::fprintf(stderr, "wrote %zu spans to %s\n", spans.size(),
                   path.c_str());
    }
    std::fprintf(stderr, "probes took %.2fs\n", ElapsedS(probe_start));
  }
  fs::remove_all(args.work_dir, ec);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(stderr, "  %-44s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
