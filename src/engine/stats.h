// Engine observability: counters and phase timers.
//
// A StatsCollector lives inside the Engine and is bumped from any
// thread; stats() snapshots it into the plain EngineStats struct that
// the CLI prints and the benches assert on. kEngineStatsFields names
// each field once for the STATS JSON and the METRICS exposition. Kernel-level counters
// (homomorphism calls, semijoin passes) come from src/common/metrics.h:
// the collector records the process-wide values at construction/reset
// and reports deltas since then.
//
// The plan-cache group (lookups, hits, misses, built, build time) obeys
// cross-counter invariants — lookups == hits + misses and
// plans_built <= misses — so its updates and its snapshot are guarded
// by a mutex: a snapshot taken under concurrent traffic can never be
// torn (e.g. report hits + misses != lookups). The remaining counters
// carry no cross-field invariant and stay relaxed atomics on the hot
// paths.

#ifndef WDPT_SRC_ENGINE_STATS_H_
#define WDPT_SRC_ENGINE_STATS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/common/metrics.h"

namespace wdpt {

/// A point-in-time snapshot of an Engine's activity. Within one
/// snapshot, plan_cache_lookups == plan_cache_hits + plan_cache_misses
/// and plans_built <= plan_cache_misses always hold.
struct EngineStats {
  // Plan cache (consistent group).
  uint64_t plan_cache_lookups = 0;  ///< Hits + misses, by construction.
  uint64_t plans_built = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;

  // Work items.
  uint64_t eval_calls = 0;        ///< Single-mapping Eval calls.
  uint64_t batch_calls = 0;       ///< EvalBatch invocations.
  uint64_t batch_tasks = 0;       ///< Mappings fanned out across batches.
  uint64_t enumerate_calls = 0;   ///< Enumerate invocations.

  // Scatter-gather enumeration (CallOptions::shards > 1).
  uint64_t sharded_enumerate_calls = 0;  ///< Enumerate calls with shards > 1.
  uint64_t sharded_fallbacks = 0;  ///< Of those, run plain (no seed atom).
  uint64_t shard_tasks = 0;        ///< Scatter tasks executed.

  // Answer cache (src/engine/answer_cache.h); all zero when the engine
  // has no cache configured. Filled by Engine::stats() from the cache's
  // own counters, not accumulated in StatsCollector.
  uint64_t answer_cache_hits = 0;
  uint64_t answer_cache_misses = 0;
  uint64_t answer_cache_bypasses = 0;
  uint64_t answer_cache_inflight_waits = 0;
  uint64_t answer_cache_evictions = 0;
  uint64_t answer_cache_inserts = 0;
  uint64_t answer_cache_bytes = 0;    ///< Currently resident value bytes.
  uint64_t answer_cache_entries = 0;  ///< Currently resident entries.

  // Early terminations.
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;

  // Kernel work since construction / the last ResetStats.
  uint64_t homomorphism_calls = 0;
  uint64_t semijoin_passes = 0;
  uint64_t csr_probes = 0;            ///< CSR column-index probes.
  uint64_t gallop_intersections = 0;  ///< Galloped posting-list intersects.

  // High-water mark of the kernel scratch arenas (process-wide gauge,
  // not delta-based: the peak since process start).
  uint64_t arena_bytes_peak = 0;

  // Wall time per phase, nanoseconds.
  uint64_t plan_build_ns = 0;
  uint64_t eval_ns = 0;       ///< Includes batch task execution.
  uint64_t enumerate_ns = 0;

  /// Single-line JSON object with every row of kEngineStatsFields as a
  /// numeric field (snake_case, times in nanoseconds). Shared by
  /// `wdpt_query --stats` and the server's STATS response so external
  /// tooling sees one schema.
  std::string ToJson() const;
};

/// Every EngineStats field, once: its STATS key and its METRICS family
/// (null for the STATS-only batch counters and phase timers).
inline constexpr metrics::StatField<EngineStats> kEngineStatsFields[] = {
    {"plan_cache_lookups", "wdpt_engine_plan_cache_lookups_total",
     &EngineStats::plan_cache_lookups},
    {"plans_built", "wdpt_engine_plans_built_total",
     &EngineStats::plans_built},
    {"plan_cache_hits", "wdpt_engine_plan_cache_hits_total",
     &EngineStats::plan_cache_hits},
    {"plan_cache_misses", "wdpt_engine_plan_cache_misses_total",
     &EngineStats::plan_cache_misses},
    {"eval_calls", "wdpt_engine_eval_calls_total", &EngineStats::eval_calls},
    {"batch_calls", nullptr, &EngineStats::batch_calls},
    {"batch_tasks", nullptr, &EngineStats::batch_tasks},
    {"enumerate_calls", "wdpt_engine_enumerate_calls_total",
     &EngineStats::enumerate_calls},
    {"sharded_enumerate_calls", "wdpt_engine_sharded_enumerate_calls_total",
     &EngineStats::sharded_enumerate_calls},
    {"sharded_fallbacks", "wdpt_engine_sharded_fallbacks_total",
     &EngineStats::sharded_fallbacks},
    {"shard_tasks", "wdpt_engine_shard_tasks_total", &EngineStats::shard_tasks},
    {"answer_cache_hits", "wdpt_answer_cache_hits_total",
     &EngineStats::answer_cache_hits},
    {"answer_cache_misses", "wdpt_answer_cache_misses_total",
     &EngineStats::answer_cache_misses},
    {"answer_cache_bypasses", "wdpt_answer_cache_bypasses_total",
     &EngineStats::answer_cache_bypasses},
    {"answer_cache_inflight_waits", "wdpt_answer_cache_inflight_waits_total",
     &EngineStats::answer_cache_inflight_waits},
    {"answer_cache_evictions", "wdpt_answer_cache_evictions_total",
     &EngineStats::answer_cache_evictions},
    {"answer_cache_inserts", "wdpt_answer_cache_inserts_total",
     &EngineStats::answer_cache_inserts},
    {"answer_cache_bytes", "wdpt_answer_cache_bytes",
     &EngineStats::answer_cache_bytes},
    {"answer_cache_entries", "wdpt_answer_cache_entries",
     &EngineStats::answer_cache_entries},
    {"deadline_exceeded", "wdpt_engine_deadline_exceeded_total",
     &EngineStats::deadline_exceeded},
    {"cancelled", "wdpt_engine_cancelled_total", &EngineStats::cancelled},
    {"homomorphism_calls", "wdpt_engine_homomorphism_calls_total",
     &EngineStats::homomorphism_calls},
    {"semijoin_passes", "wdpt_engine_semijoin_passes_total",
     &EngineStats::semijoin_passes},
    {"csr_probes", "wdpt_engine_csr_probes_total", &EngineStats::csr_probes},
    {"gallop_intersections", "wdpt_engine_gallop_intersections_total",
     &EngineStats::gallop_intersections},
    {"arena_bytes_peak", "wdpt_engine_arena_bytes_peak",
     &EngineStats::arena_bytes_peak},
    {"plan_build_ns", nullptr, &EngineStats::plan_build_ns},
    {"eval_ns", nullptr, &EngineStats::eval_ns},
    {"enumerate_ns", nullptr, &EngineStats::enumerate_ns},
};

inline std::string EngineStats::ToJson() const {
  return metrics::FieldsJson(*this, kEngineStatsFields);
}

/// Thread-safe accumulator behind EngineStats.
class StatsCollector {
 public:
  StatsCollector() { Reset(); }

  void Reset() {
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      plan_cache_lookups_ = 0;
      plans_built_ = 0;
      plan_cache_hits_ = 0;
      plan_cache_misses_ = 0;
      plan_build_ns_ = 0;
    }
    eval_calls.store(0, std::memory_order_relaxed);
    batch_calls.store(0, std::memory_order_relaxed);
    batch_tasks.store(0, std::memory_order_relaxed);
    enumerate_calls.store(0, std::memory_order_relaxed);
    sharded_enumerate_calls.store(0, std::memory_order_relaxed);
    sharded_fallbacks.store(0, std::memory_order_relaxed);
    shard_tasks.store(0, std::memory_order_relaxed);
    deadline_exceeded.store(0, std::memory_order_relaxed);
    cancelled.store(0, std::memory_order_relaxed);
    eval_ns.store(0, std::memory_order_relaxed);
    enumerate_ns.store(0, std::memory_order_relaxed);
    hom_calls_base = metrics::Load(metrics::HomomorphismCalls());
    semijoin_base = metrics::Load(metrics::SemijoinPasses());
    csr_probes_base = metrics::Load(metrics::CsrProbes());
    gallop_base = metrics::Load(metrics::GallopIntersections());
  }

  /// One plan-cache lookup that found a cached plan.
  void RecordPlanCacheHit() {
    std::lock_guard<std::mutex> lock(plan_mu_);
    ++plan_cache_lookups_;
    ++plan_cache_hits_;
  }

  /// One plan-cache lookup that missed (a build attempt follows).
  void RecordPlanCacheMiss() {
    std::lock_guard<std::mutex> lock(plan_mu_);
    ++plan_cache_lookups_;
    ++plan_cache_misses_;
  }

  /// The build following a miss: wall time always, built count only on
  /// success.
  void RecordPlanBuild(uint64_t ns, bool ok) {
    std::lock_guard<std::mutex> lock(plan_mu_);
    plan_build_ns_ += ns;
    if (ok) ++plans_built_;
  }

  EngineStats Snapshot() const {
    EngineStats s;
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      s.plan_cache_lookups = plan_cache_lookups_;
      s.plans_built = plans_built_;
      s.plan_cache_hits = plan_cache_hits_;
      s.plan_cache_misses = plan_cache_misses_;
      s.plan_build_ns = plan_build_ns_;
    }
    s.eval_calls = eval_calls.load(std::memory_order_relaxed);
    s.batch_calls = batch_calls.load(std::memory_order_relaxed);
    s.batch_tasks = batch_tasks.load(std::memory_order_relaxed);
    s.enumerate_calls = enumerate_calls.load(std::memory_order_relaxed);
    s.sharded_enumerate_calls =
        sharded_enumerate_calls.load(std::memory_order_relaxed);
    s.sharded_fallbacks = sharded_fallbacks.load(std::memory_order_relaxed);
    s.shard_tasks = shard_tasks.load(std::memory_order_relaxed);
    s.deadline_exceeded = deadline_exceeded.load(std::memory_order_relaxed);
    s.cancelled = cancelled.load(std::memory_order_relaxed);
    s.homomorphism_calls =
        metrics::Load(metrics::HomomorphismCalls()) - hom_calls_base;
    s.semijoin_passes = metrics::Load(metrics::SemijoinPasses()) - semijoin_base;
    s.csr_probes = metrics::Load(metrics::CsrProbes()) - csr_probes_base;
    s.gallop_intersections =
        metrics::Load(metrics::GallopIntersections()) - gallop_base;
    s.arena_bytes_peak = metrics::Load(metrics::ArenaBytesPeak());
    s.eval_ns = eval_ns.load(std::memory_order_relaxed);
    s.enumerate_ns = enumerate_ns.load(std::memory_order_relaxed);
    return s;
  }

  static void Bump(std::atomic<uint64_t>& counter, uint64_t delta = 1) {
    counter.fetch_add(delta, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> eval_calls{0};
  std::atomic<uint64_t> batch_calls{0};
  std::atomic<uint64_t> batch_tasks{0};
  std::atomic<uint64_t> enumerate_calls{0};
  std::atomic<uint64_t> sharded_enumerate_calls{0};
  std::atomic<uint64_t> sharded_fallbacks{0};
  std::atomic<uint64_t> shard_tasks{0};
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> cancelled{0};
  std::atomic<uint64_t> eval_ns{0};
  std::atomic<uint64_t> enumerate_ns{0};

 private:
  mutable std::mutex plan_mu_;
  uint64_t plan_cache_lookups_ = 0;
  uint64_t plans_built_ = 0;
  uint64_t plan_cache_hits_ = 0;
  uint64_t plan_cache_misses_ = 0;
  uint64_t plan_build_ns_ = 0;

  uint64_t hom_calls_base = 0;
  uint64_t semijoin_base = 0;
  uint64_t csr_probes_base = 0;
  uint64_t gallop_base = 0;
};

}  // namespace wdpt

#endif  // WDPT_SRC_ENGINE_STATS_H_
