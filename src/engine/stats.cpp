#include "src/engine/stats.h"

namespace wdpt {

std::string EngineStats::ToJson() const {
  std::string out = "{";
  bool first = true;
  auto field = [&](const char* name, uint64_t value) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += name;
    out += "\":";
    out += std::to_string(value);
  };
  field("plan_cache_lookups", plan_cache_lookups);
  field("plans_built", plans_built);
  field("plan_cache_hits", plan_cache_hits);
  field("plan_cache_misses", plan_cache_misses);
  field("eval_calls", eval_calls);
  field("batch_calls", batch_calls);
  field("batch_tasks", batch_tasks);
  field("enumerate_calls", enumerate_calls);
  field("sharded_enumerate_calls", sharded_enumerate_calls);
  field("sharded_fallbacks", sharded_fallbacks);
  field("shard_tasks", shard_tasks);
  field("answer_cache_hits", answer_cache_hits);
  field("answer_cache_misses", answer_cache_misses);
  field("answer_cache_bypasses", answer_cache_bypasses);
  field("answer_cache_inflight_waits", answer_cache_inflight_waits);
  field("answer_cache_evictions", answer_cache_evictions);
  field("answer_cache_inserts", answer_cache_inserts);
  field("answer_cache_bytes", answer_cache_bytes);
  field("answer_cache_entries", answer_cache_entries);
  field("deadline_exceeded", deadline_exceeded);
  field("cancelled", cancelled);
  field("homomorphism_calls", homomorphism_calls);
  field("semijoin_passes", semijoin_passes);
  field("csr_probes", csr_probes);
  field("gallop_intersections", gallop_intersections);
  field("arena_bytes_peak", arena_bytes_peak);
  field("plan_build_ns", plan_build_ns);
  field("eval_ns", eval_ns);
  field("enumerate_ns", enumerate_ns);
  out += "}";
  return out;
}

}  // namespace wdpt
