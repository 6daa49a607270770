#include "src/engine/engine.h"

#include <algorithm>
#include <span>
#include <thread>
#include <unordered_set>
#include <utility>

#include "src/cq/homomorphism.h"
#include "src/wdpt/eval_max.h"
#include "src/wdpt/eval_naive.h"
#include "src/wdpt/eval_partial.h"
#include "src/wdpt/eval_projection_free.h"
#include "src/wdpt/eval_tractable.h"

namespace wdpt {

namespace {

using Clock = std::chrono::steady_clock;

unsigned ResolveThreads(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

// Picks the root-label atom to scatter by: the one whose relation holds
// the most facts (its matches split into the most even chunks), ties
// broken by label position. Nullary atoms are skipped: one has at most
// one match, which no split can spread. Ground atoms of arity >= 1 are
// fine. Returns nullopt when no atom qualifies.
std::optional<size_t> PickSeedAtom(const PatternTree& tree,
                                   const Database& db) {
  const std::vector<Atom>& label = tree.label(PatternTree::kRoot);
  auto facts = [&](size_t i) { return db.relation(label[i].relation).size(); };
  std::optional<size_t> best;
  for (size_t i = 0; i < label.size(); ++i) {
    if (db.schema().Arity(label[i].relation) == 0) continue;
    if (!best.has_value() || facts(i) > facts(*best)) best = i;
  }
  return best;
}

}  // namespace

Engine::Engine(const EngineOptions& options)
    : pool_(ResolveThreads(options.num_threads)),
      plan_cache_(options.plan_cache_capacity) {
  if (options.answer_cache_bytes > 0) {
    answer_cache_ = std::make_unique<AnswerCache>(options.answer_cache_bytes);
  }
}

CancelToken Engine::EffectiveToken(
    const CancelToken& caller,
    std::optional<std::chrono::nanoseconds> deadline) {
  if (!deadline.has_value()) return caller;
  CancelToken token = CancelToken::Child(caller);
  token.SetDeadline(Clock::now() + *deadline);
  return token;
}

bool Engine::CacheParticipates(const CallOptions& options) const {
  if (answer_cache_ == nullptr) return false;
  if (options.cache.mode == CacheMode::kBypass ||
      options.cache.generation == 0) {
    answer_cache_->NoteBypass();
    return false;
  }
  return true;
}

Result<std::shared_ptr<const Plan>> Engine::GetPlan(
    const PatternTree& tree, const PlanOptions& options, Trace* trace) {
  Clock::time_point lookup_start = Clock::now();
  std::string key = CanonicalPlanKey(tree, options);
  std::shared_ptr<const Plan> cached = plan_cache_.Find(key);
  if (trace != nullptr) {
    trace->Record(TraceStage::kPlanLookup, ElapsedNs(lookup_start));
  }
  if (cached != nullptr) {
    stats_.RecordPlanCacheHit();
    if (trace != nullptr) trace->set_classification(cached->tractability());
    return cached;
  }
  stats_.RecordPlanCacheMiss();
  Clock::time_point start = Clock::now();
  Result<std::shared_ptr<const Plan>> plan = Plan::Build(tree, options);
  uint64_t build_ns = ElapsedNs(start);
  stats_.RecordPlanBuild(build_ns, plan.ok());
  if (trace != nullptr) trace->Record(TraceStage::kPlanBuild, build_ns);
  if (!plan.ok()) return plan.status();
  if (trace != nullptr) trace->set_classification((*plan)->tractability());
  plan_cache_.Insert(key, *plan);
  return plan;
}

Result<AnswerCache::Value> Engine::RunThroughCache(
    const CallOptions& options, const CancelToken& token, Trace* trace,
    const std::function<std::string()>& cache_key,
    const std::function<Result<AnswerCache::Value>()>& evaluate) {
  Result<AnswerCache::Value> result =
      Status::Internal("unreachable cache lease state");
  // An already-fired token (e.g. a zero deadline) never starts work and
  // is never served from the cache.
  Status token_status = StatusFromToken(token);
  if (!token_status.ok()) {
    result = token_status;
  } else if (!CacheParticipates(options)) {
    result = evaluate();
  } else {
    AnswerCache::Lease lease = [&] {
      Trace::Span span(trace, TraceStage::kCacheLookup);
      return answer_cache_->Acquire(cache_key(), token);
    }();
    switch (lease.state()) {
      case AnswerCache::Lease::State::kHit:
        if (trace != nullptr) trace->set_cache_outcome(CacheOutcome::kHit);
        result = *lease.value();
        break;
      case AnswerCache::Lease::State::kOwner:
        if (trace != nullptr) trace->set_cache_outcome(CacheOutcome::kMiss);
        result = evaluate();
        // On failure the lease destructor abandons the flight: errors are
        // never cached and parked waiters evaluate for themselves.
        if (result.ok()) lease.Publish(*result);
        break;
      case AnswerCache::Lease::State::kMiss:
        if (!lease.wait_status().ok()) {
          // Our own token fired while parked behind the in-flight owner.
          result = lease.wait_status();
        } else {
          // The owner abandoned its flight: evaluate without re-entering
          // the cache, so a failing query cannot loop a stampede.
          if (trace != nullptr) trace->set_cache_outcome(CacheOutcome::kMiss);
          result = evaluate();
        }
        break;
    }
  }
  // The one place a call's deadline / cancellation is counted.
  if (!result.ok()) NoteStatus(result.status());
  return result;
}

Result<bool> Engine::EvalWithPlan(const Plan& plan, const Database& db,
                                  const Mapping& h,
                                  const CallOptions& options,
                                  const CancelToken& token, Trace* trace) {
  auto cache_key = [&] {
    return EvalCacheKey(plan.tree(), static_cast<uint8_t>(options.semantics),
                        h, options.cache.generation);
  };
  auto evaluate = [&]() -> Result<AnswerCache::Value> {
    CqEvalOptions cq;
    cq.cancel = token;
    Result<bool> verdict = false;
    switch (options.semantics) {
      case EvalSemantics::kStandard:
        switch (plan.algorithm()) {
          case EvalAlgorithm::kNaive:
            verdict = EvalNaive(plan.tree(), db, h, cq);
            break;
          case EvalAlgorithm::kTractableDP:
            verdict = EvalTractable(plan.tree(), db, h, cq);
            break;
          case EvalAlgorithm::kProjectionFree:
            verdict = EvalProjectionFree(plan.tree(), db, h, cq);
            break;
          case EvalAlgorithm::kAuto:
            return Status::Internal("plan retains kAuto algorithm");
        }
        break;
      case EvalSemantics::kPartial:
        verdict = PartialEval(plan.tree(), db, h, cq);
        break;
      case EvalSemantics::kMaximal:
        verdict = MaxEval(plan.tree(), db, h, cq);
        break;
    }
    // A fired token invalidates whatever the wound-down computation
    // returned: surface the terminal status instead of a partial answer.
    Status token_status = StatusFromToken(token);
    if (!token_status.ok()) return token_status;
    if (!verdict.ok()) return verdict.status();
    AnswerCache::Value value;
    value.is_verdict = true;
    value.verdict = *verdict;
    return value;
  };
  Result<AnswerCache::Value> value =
      RunThroughCache(options, token, trace, cache_key, evaluate);
  if (!value.ok()) return value.status();
  return value->verdict;
}

void Engine::NoteStatus(const Status& status) {
  if (status.code() == StatusCode::kDeadlineExceeded) {
    StatsCollector::Bump(stats_.deadline_exceeded);
  } else if (status.code() == StatusCode::kCancelled) {
    StatsCollector::Bump(stats_.cancelled);
  }
}

Result<bool> Engine::Eval(const PatternTree& tree, const Database& db,
                          const Mapping& h, const CallOptions& options) {
  StatsCollector::Bump(stats_.eval_calls);
  PlanOptions plan_options{options.width_bound, options.algorithm};
  Result<std::shared_ptr<const Plan>> plan =
      GetPlan(tree, plan_options, options.trace);
  if (!plan.ok()) return plan.status();
  CancelToken token = EffectiveToken(options.cancel, options.deadline);
  Clock::time_point start = Clock::now();
  Result<bool> result =
      EvalWithPlan(**plan, db, h, options, token, options.trace);
  uint64_t eval_ns = ElapsedNs(start);
  StatsCollector::Bump(stats_.eval_ns, eval_ns);
  if (options.trace != nullptr) {
    options.trace->Record(TraceStage::kEval, eval_ns);
  }
  return result;
}

Result<std::vector<bool>> Engine::EvalBatch(const PatternTree& tree,
                                            const Database& db,
                                            const std::vector<Mapping>& hs,
                                            const CallOptions& options) {
  StatsCollector::Bump(stats_.batch_calls);
  StatsCollector::Bump(stats_.batch_tasks, hs.size());
  PlanOptions plan_options{options.width_bound, options.algorithm};
  Result<std::shared_ptr<const Plan>> plan =
      GetPlan(tree, plan_options, options.trace);
  if (!plan.ok()) return plan.status();
  if (hs.empty()) return std::vector<bool>();

  // Per-column indexes are built lazily on first probe; warm them now so
  // the concurrent tasks only ever read the database.
  db.WarmColumnIndexes();

  std::shared_ptr<const Plan> shared_plan = *plan;
  // vector<bool> is bit-packed (concurrent element writes race), so the
  // workers fill a byte buffer.
  std::vector<uint8_t> values(hs.size(), 0);
  std::vector<Status> statuses(hs.size(), Status::Ok());
  BatchLatch latch(hs.size());

  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < hs.size(); ++i) {
    pool_.Submit([this, &db, &hs, &options, shared_plan, &values, &statuses,
                  &latch, i] {
      // Each task gets its own deadline window, measured from task start.
      // Tasks pass a null trace: the caller's trace is single-owner. A
      // parked single-flight waiter is safe here — the flight's owner is
      // always an already-running thread, never a queued task.
      CancelToken token = EffectiveToken(options.cancel, options.deadline);
      Result<bool> r =
          EvalWithPlan(*shared_plan, db, hs[i], options, token, nullptr);
      if (r.ok()) {
        values[i] = *r ? 1 : 0;
      } else {
        statuses[i] = r.status();
      }
      latch.CountDown();
    });
  }
  latch.Wait();
  uint64_t batch_ns = ElapsedNs(start);
  StatsCollector::Bump(stats_.eval_ns, batch_ns);
  if (options.trace != nullptr) {
    options.trace->Record(TraceStage::kEval, batch_ns);
  }

  // Deterministic error reporting: first failure in index order wins.
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  std::vector<bool> results(hs.size());
  for (size_t i = 0; i < hs.size(); ++i) results[i] = values[i] != 0;
  return results;
}

Result<std::vector<Mapping>> Engine::Enumerate(
    const PatternTree& tree, const Database& db,
    const CallOptions& options) {
  StatsCollector::Bump(stats_.enumerate_calls);
  if (options.semantics == EvalSemantics::kPartial) {
    return Status::InvalidArgument(
        "Enumerate: kPartial is a membership-only semantics; use Eval with "
        "a candidate");
  }
  std::optional<size_t> seed_atom;
  if (options.shards > 1) {
    StatsCollector::Bump(stats_.sharded_enumerate_calls);
    if (tree.validated()) seed_atom = PickSeedAtom(tree, db);
    if (!seed_atom.has_value()) StatsCollector::Bump(stats_.sharded_fallbacks);
  }
  if (options.trace != nullptr) {
    // Enumeration itself needs no plan; resolve the (cached) plan only to
    // stamp the tractability class on the trace. Failure leaves the class
    // unknown and never fails the enumeration.
    (void)GetPlan(tree, PlanOptions{}, options.trace);
  }
  CancelToken token = EffectiveToken(options.cancel, options.deadline);
  // Scattered and plain runs share one cache key: their answers are
  // bit-identical, so whichever fills the entry first serves both.
  auto cache_key = [&] {
    return EnumerateCacheKey(tree, static_cast<uint8_t>(options.semantics),
                             options.limits, options.cache.generation);
  };
  auto evaluate = [&]() -> Result<AnswerCache::Value> {
    Result<std::vector<Mapping>> answers =
        EnumerateCore(tree, db, seed_atom, options, token);
    // As in EvalWithPlan: a token that fired after the last poll (the
    // maximality filter's included) still turns the answer into its
    // status, so a late or partial answer is neither returned nor
    // cached.
    Status token_status = StatusFromToken(token);
    if (!token_status.ok()) return token_status;
    if (!answers.ok()) return answers.status();
    AnswerCache::Value value;
    value.answers = std::move(*answers);
    return value;
  };
  Clock::time_point start = Clock::now();
  Result<AnswerCache::Value> value =
      RunThroughCache(options, token, options.trace, cache_key, evaluate);
  uint64_t enumerate_ns = ElapsedNs(start);
  StatsCollector::Bump(stats_.enumerate_ns, enumerate_ns);
  if (options.trace != nullptr) {
    options.trace->Record(TraceStage::kEval, enumerate_ns);
  }
  if (!value.ok()) return value.status();
  return std::move(value->answers);
}

Result<std::vector<Mapping>> Engine::EnumerateCore(
    const PatternTree& tree, const Database& db,
    std::optional<size_t> seed_atom, const CallOptions& options,
    const CancelToken& token) {
  EnumerationLimits limits = options.limits;
  limits.cancel = token;
  // A plain run is one task over the one empty seed.
  std::vector<Mapping> seeds(1);
  size_t tasks = 1;
  if (seed_atom.has_value()) {
    // Scatter: every maximal homomorphism extends exactly one match of
    // the seed atom (Definition 2), so splitting the matches splits the
    // work; each task still completes its seeds against all of `db`,
    // where the joins and the maximality condition live.
    seeds.clear();
    HomSearchLimits hom_limits;
    hom_limits.cancel = token;
    bool complete = ForEachHomomorphism(
        {tree.label(PatternTree::kRoot)[*seed_atom]}, db, Mapping(),
        [&seeds](const Mapping& m) {
          seeds.push_back(m);
          return true;
        },
        hom_limits);
    if (!complete) {
      Status stopped = StatusFromToken(token);
      return stopped.ok() ? Status::Internal("sharded seed scan aborted")
                          : stopped;
    }
    tasks = std::min(options.shards, seeds.size());
    StatsCollector::Bump(stats_.shard_tasks, tasks);
    if (options.trace != nullptr) {
      options.trace->set_shard_fanout(static_cast<uint32_t>(tasks));
    }
  }

  std::vector<Result<std::vector<Mapping>>> parts(tasks,
                                                  std::vector<Mapping>());
  std::vector<uint64_t> task_ns(tasks, 0);
  // Task t completes the contiguous chunk
  // [t*|seeds|/tasks, (t+1)*|seeds|/tasks).
  auto run_task = [&](size_t t) {
    Clock::time_point task_start = Clock::now();
    std::span<const Mapping> chunk(seeds.data() + t * seeds.size() / tasks,
                                   seeds.data() +
                                       (t + 1) * seeds.size() / tasks);
    parts[t] = EvaluateWdptProjectedSeeded(tree, db, chunk, limits);
    task_ns[t] = ElapsedNs(task_start);
  };
  if (tasks == 1) {
    run_task(0);
  } else if (tasks > 1) {
    // Tasks only ever read the database once the lazy per-column indexes
    // exist.
    db.WarmColumnIndexes();
    BatchLatch latch(tasks);
    for (size_t t = 0; t < tasks; ++t) {
      pool_.Submit([&run_task, &latch, t] {
        run_task(t);
        latch.CountDown();
      });
    }
    latch.Wait();
  }
  if (seed_atom.has_value() && options.trace != nullptr) {
    for (uint64_t ns : task_ns) options.trace->RecordShard(ns);
  }
  // Deterministic error reporting: first failure in task order wins,
  // and a failed gather yields no partial answers.
  for (const Result<std::vector<Mapping>>& part : parts) {
    if (!part.ok()) return part.status();
  }

  // Gather: one part is already sorted and distinct; several are united
  // with dedup (distinct root seeds can project to the same answer) and
  // put in the canonical order.
  std::vector<Mapping> answers;
  if (tasks == 1) {
    answers = std::move(*parts[0]);
  } else {
    std::unordered_set<Mapping, MappingHash> seen;
    for (Result<std::vector<Mapping>>& part : parts) {
      for (Mapping& m : *part) {
        if (seen.insert(m).second) answers.push_back(std::move(m));
      }
    }
    std::sort(answers.begin(), answers.end());
  }
  // p_m(D) is a global property of p(D), so maximality is filtered after
  // the gather.
  if (options.semantics == EvalSemantics::kMaximal) {
    answers = MaximalMappings(answers, token);
  }
  return answers;
}

EngineStats Engine::stats() const {
  EngineStats s = stats_.Snapshot();
  if (answer_cache_ != nullptr) {
    AnswerCache::Stats cs = answer_cache_->stats();
    s.answer_cache_hits = cs.hits;
    s.answer_cache_misses = cs.misses;
    s.answer_cache_bypasses = cs.bypasses;
    s.answer_cache_inflight_waits = cs.inflight_waits;
    s.answer_cache_evictions = cs.evictions;
    s.answer_cache_inserts = cs.inserts;
    s.answer_cache_bytes = cs.bytes;
    s.answer_cache_entries = cs.entries;
  }
  return s;
}

}  // namespace wdpt
