// The evaluation engine: single public entry point for WDPT evaluation.
//
// Engine unifies the five evaluation routines (EvalNaive, EvalTractable,
// EvalProjectionFree, PartialEval, MaxEval) behind one call,
//
//   engine.Eval(tree, db, h, {.semantics = EvalSemantics::kStandard});
//
// chooses the algorithm from the tree's cached classification (kAuto),
// fans batches of candidate mappings across a fixed thread pool
// (EvalBatch), runs answer enumeration (Enumerate), and enforces
// deadlines / cooperative cancellation end to end: when a deadline
// expires the engine returns kDeadlineExceeded — never a partial answer.
//
// Plans (classification + the committed algorithm) are cached per
// canonical tree; see plan.h and docs/ENGINE.md for the lifecycle.

#ifndef WDPT_SRC_ENGINE_ENGINE_H_
#define WDPT_SRC_ENGINE_ENGINE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/engine/answer_cache.h"
#include "src/engine/plan.h"
#include "src/engine/stats.h"
#include "src/engine/thread_pool.h"
#include "src/relational/database.h"
#include "src/relational/mapping.h"
#include "src/wdpt/enumerate.h"
#include "src/wdpt/pattern_tree.h"

namespace wdpt {

/// Which answer relation a query runs against.
enum class EvalSemantics {
  kStandard,  ///< h in p(D)         (EVAL, Section 3.1/3.2).
  kPartial,   ///< h partial answer  (PARTIAL-EVAL, Section 3.3).
  kMaximal,   ///< h in p_m(D)       (MAX-EVAL, Section 3.4).
};

/// The one per-call option surface, accepted by every Engine entry
/// point (Eval, EvalBatch, Enumerate). Fields irrelevant to a given call
/// are simply ignored (e.g. `limits` by Eval, `algorithm` by Enumerate).
/// The CQ substrate under Eval always runs its kAuto strategy ladder
/// (src/cq/evaluation.h) with the engine's effective token; no field
/// steers it.
struct CallOptions {
  /// Which answer relation the call runs against. For Enumerate,
  /// kStandard enumerates p(D) and kMaximal enumerates p_m(D);
  /// kPartial is a membership-only semantics and is rejected there.
  EvalSemantics semantics = EvalSemantics::kStandard;
  /// kAuto resolves from the plan's classification. Partial/maximal
  /// semantics have a single algorithm each; this field only steers
  /// kStandard. Eval-only.
  EvalAlgorithm algorithm = EvalAlgorithm::kAuto;
  /// Treewidth bound for classification (cache-key part).
  int width_bound = 1;
  /// Enumeration caps; its `cancel` field is overwritten by the
  /// engine's effective token. Enumerate-only.
  EnumerationLimits limits;
  /// Per-call (per-task in EvalBatch) deadline, relative to call start.
  std::optional<std::chrono::nanoseconds> deadline;
  /// Caller-owned cancellation; combined with the deadline via a child
  /// token, so the caller's token is never mutated.
  CancelToken cancel;
  /// Optional per-request trace: the engine records plan-lookup /
  /// plan-build / cache-lookup / eval spans, the plan's tractability
  /// class, and the answer-cache outcome into it. Must outlive the
  /// call; never alters results. For EvalBatch the eval span is the
  /// batch wall time, not a per-task breakdown.
  Trace* trace = nullptr;
  /// Answer-cache participation (src/engine/answer_cache.h). The call
  /// consults the cache only when the engine has one configured, the
  /// mode is kDefault, and `cache.generation` is non-zero (the server
  /// stamps it with the snapshot version).
  CachePolicy cache;
  /// Scatter tasks for Enumerate (docs/ENGINE.md, "Sharded
  /// evaluation"); 0 and 1 both mean one plain, unsharded run. Answers
  /// are bit-identical for every value. Enumerate-only.
  size_t shards = 1;
};

/// Engine construction knobs.
struct EngineOptions {
  /// Worker threads for EvalBatch; 0 = hardware concurrency.
  unsigned num_threads = 0;
  /// LRU capacity of the plan cache (plans retired least-recently-used).
  size_t plan_cache_capacity = 128;
  /// Byte budget for the answer cache; 0 (the default) disables it.
  size_t answer_cache_bytes = 0;
};

class Engine {
 public:
  explicit Engine(const EngineOptions& options = EngineOptions());

  /// EVAL / PARTIAL-EVAL / MAX-EVAL of a single candidate mapping,
  /// through the cached plan. Returns kDeadlineExceeded / kCancelled when
  /// the effective token fires before a definite answer.
  Result<bool> Eval(const PatternTree& tree, const Database& db,
                    const Mapping& h,
                    const CallOptions& options = CallOptions());

  /// Evaluates every mapping of `hs` against the same (tree, db) on the
  /// thread pool. Results are positionally aligned with `hs` and
  /// bit-identical to sequential Eval calls. If any task fails (including
  /// by deadline), the first failure in index order is returned and the
  /// batch yields no partial answers.
  Result<std::vector<bool>> EvalBatch(
      const PatternTree& tree, const Database& db,
      const std::vector<Mapping>& hs,
      const CallOptions& options = CallOptions());

  /// p(D) (or p_m(D) with options.semantics == kMaximal) via the
  /// projection-aware enumerator, with engine-level deadline /
  /// cancellation handling. Answers come back in the canonical sorted
  /// order (Mapping's operator<).
  ///
  /// With options.shards > 1 the call scatters: one root-label seed
  /// atom is matched once against `db`, the matches are split into
  /// min(shards, |matches|) contiguous chunks, each chunk is completed
  /// against the whole of `db`, and the parts are merged with
  /// deduplication — bit-identical to the unsharded run (asserted in
  /// tests/sharded_test.cpp). It falls back to the plain run, counted
  /// as a sharded fallback, for an unvalidated tree or a root label with
  /// no seed atom (empty, or only nullary relations). A run with one
  /// task stays on the calling thread; more tasks go to the engine pool,
  /// each with its own copy of options.limits, so a scattering call must
  /// not be made from within an engine pool task (the gather barrier
  /// would deadlock the pool).
  Result<std::vector<Mapping>> Enumerate(
      const PatternTree& tree, const Database& db,
      const CallOptions& options = CallOptions());

  /// The cached (or freshly built) plan for a tree. Exposed for the CLI's
  /// --classify path and for tests; Eval/EvalBatch call this internally.
  /// With a trace, records the kPlanLookup / kPlanBuild spans and stamps
  /// the plan's tractability class.
  Result<std::shared_ptr<const Plan>> GetPlan(const PatternTree& tree,
                                              const PlanOptions& options,
                                              Trace* trace = nullptr);

  /// Snapshot of the engine's counters and timers, including the
  /// answer-cache group (all zero when no cache is configured).
  EngineStats stats() const;
  void ResetStats() { stats_.Reset(); }

  unsigned num_threads() const { return pool_.num_threads(); }

  /// The configured answer cache, or nullptr when disabled.
  const AnswerCache* answer_cache() const { return answer_cache_.get(); }

 private:
  /// Combines the caller token and the per-call deadline. Null when
  /// neither is set (polling stays free).
  static CancelToken EffectiveToken(const CancelToken& caller,
                                    std::optional<std::chrono::nanoseconds>
                                        deadline);

  /// True when this call participates in the answer cache: a cache is
  /// configured, the policy mode is kDefault, and a snapshot generation
  /// is set. Bumps the bypass counter when a configured cache is
  /// skipped by policy.
  bool CacheParticipates(const CallOptions& options) const;

  /// The one answer-cache path shared by Eval, EvalBatch and Enumerate.
  /// Refuses an already-fired `token`; when the call participates in
  /// the cache, acquires the single-flight lease on `cache_key()`: a hit
  /// is served, the owner runs `evaluate` and publishes a success, and a
  /// parked waiter returns its own fired token's status or, when the
  /// owner abandoned, runs `evaluate` itself. Otherwise runs `evaluate`
  /// directly. Counts a deadline / cancellation outcome exactly once.
  /// `trace` is passed explicitly (nullptr from EvalBatch tasks, which
  /// must not touch the caller's single-owner trace).
  Result<AnswerCache::Value> RunThroughCache(
      const CallOptions& options, const CancelToken& token, Trace* trace,
      const std::function<std::string()>& cache_key,
      const std::function<Result<AnswerCache::Value>()>& evaluate);

  /// One membership check through the answer cache: dispatch on
  /// (semantics, plan.algorithm()) with `token` as the CQ options'
  /// cancel token; a fired token becomes its status.
  Result<bool> EvalWithPlan(const Plan& plan, const Database& db,
                            const Mapping& h, const CallOptions& options,
                            const CancelToken& token, Trace* trace);

  /// The one uncached enumeration core (see Enumerate): without a
  /// `seed_atom`, one task over the empty seed. The caller turns a fired
  /// token into its status.
  Result<std::vector<Mapping>> EnumerateCore(const PatternTree& tree,
                                             const Database& db,
                                             std::optional<size_t> seed_atom,
                                             const CallOptions& options,
                                             const CancelToken& token);

  /// Records a terminal status in the early-termination counters.
  void NoteStatus(const Status& status);

  ThreadPool pool_;
  PlanCache plan_cache_;
  std::unique_ptr<AnswerCache> answer_cache_;
  StatsCollector stats_;
};

}  // namespace wdpt

#endif  // WDPT_SRC_ENGINE_ENGINE_H_
