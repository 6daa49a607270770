// Tests for the wdpt::Engine: batched evaluation agrees bit-for-bit
// with sequential evaluation (Figure 1 and randomized instances), the
// plan cache hits on repeated queries, and deadlines/cancellation
// produce kDeadlineExceeded/kCancelled — never a partial answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/engine/engine.h"
#include "src/gen/db_gen.h"
#include "src/gen/wdpt_gen.h"
#include "src/relational/rdf.h"
#include "src/wdpt/enumerate.h"

namespace wdpt {
namespace {

// Figure 1 WDPT with full projection dropped to {x, y, z}.
PatternTree MakeFigure1Tree(RdfContext* ctx) {
  PatternTree tree;
  tree.AddAtom(PatternTree::kRoot,
               ctx->TriplePattern("?x", "recorded_by", "?y"));
  tree.AddAtom(PatternTree::kRoot,
               ctx->TriplePattern("?x", "published", "after_2010"));
  tree.AddChild(PatternTree::kRoot,
                {ctx->TriplePattern("?x", "NME_rating", "?z")});
  tree.AddChild(PatternTree::kRoot,
                {ctx->TriplePattern("?y", "formed_in", "?z2")});
  tree.SetFreeVariables({ctx->vocab().Variable("x").variable_id(),
                         ctx->vocab().Variable("y").variable_id(),
                         ctx->vocab().Variable("z").variable_id()});
  WDPT_CHECK(tree.Validate().ok());
  return tree;
}

Database MakeExample2Db(RdfContext* ctx) {
  Database db = ctx->MakeDatabase();
  ctx->AddTriple(&db, "Our_love", "recorded_by", "Caribou");
  ctx->AddTriple(&db, "Our_love", "published", "after_2010");
  ctx->AddTriple(&db, "Swim", "recorded_by", "Caribou");
  ctx->AddTriple(&db, "Swim", "published", "after_2010");
  ctx->AddTriple(&db, "Swim", "NME_rating", "2");
  return db;
}

// Candidates that exercise both answers and non-answers: up to eight
// distinct answers of p(D) (collected with an early stop — full
// enumeration can blow up combinatorially on the random instances),
// every prefix of the first answer (partial mappings), and a mutated
// mapping that binds a wrong constant.
std::vector<Mapping> MakeCandidates(const PatternTree& tree,
                                    const Database& db) {
  std::vector<Mapping> answers;
  Status status = ForEachMaximalHomomorphism(tree, db, [&](const Mapping& m) {
    Mapping projected = m.RestrictTo(tree.free_vars());
    if (std::find(answers.begin(), answers.end(), projected) ==
        answers.end()) {
      answers.push_back(projected);
    }
    return answers.size() < 8;
  });
  WDPT_CHECK(status.ok());
  std::vector<Mapping> hs = answers;
  if (!answers.empty()) {
    std::vector<Mapping::Entry> entries = answers[0].entries();
    for (size_t keep = 0; keep < entries.size(); ++keep) {
      std::vector<Mapping::Entry> prefix(entries.begin(),
                                         entries.begin() + keep);
      hs.push_back(Mapping(prefix));
    }
    if (!entries.empty()) {
      entries[0].second = entries[0].second + 12345;  // Unused constant id.
      hs.push_back(Mapping(entries));
    }
  }
  return hs;
}

// Runs EvalBatch on a >= 4-thread engine and checks the result vector
// positionally against sequential Eval with identical options.
void ExpectBatchMatchesSequential(const PatternTree& tree, const Database& db,
                                  const std::vector<Mapping>& hs,
                                  const CallOptions& options) {
  EngineOptions eopts;
  eopts.num_threads = 4;
  Engine engine(eopts);
  ASSERT_GE(engine.num_threads(), 4u);
  Result<std::vector<bool>> batch = engine.EvalBatch(tree, db, hs, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), hs.size());
  for (size_t i = 0; i < hs.size(); ++i) {
    Result<bool> sequential = engine.Eval(tree, db, hs[i], options);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    EXPECT_EQ(*sequential, (*batch)[i]) << "candidate " << i;
  }
}

TEST(EngineBatch, Figure1AllSemanticsAndAlgorithms) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);
  std::vector<Mapping> hs = MakeCandidates(tree, db);
  ASSERT_GE(hs.size(), 4u);

  for (EvalAlgorithm algorithm :
       {EvalAlgorithm::kAuto, EvalAlgorithm::kNaive,
        EvalAlgorithm::kTractableDP}) {
    CallOptions options;
    options.algorithm = algorithm;
    ExpectBatchMatchesSequential(tree, db, hs, options);
  }
  for (EvalSemantics semantics :
       {EvalSemantics::kPartial, EvalSemantics::kMaximal}) {
    CallOptions options;
    options.semantics = semantics;
    ExpectBatchMatchesSequential(tree, db, hs, options);
  }
}

TEST(EngineBatch, RandomizedInstancesMatchSequential) {
  for (uint64_t seed : {3u, 17u, 29u}) {
    Schema schema;
    Vocabulary vocab;
    gen::RandomWdptOptions topts;
    topts.depth = 2;
    topts.branching = 2;
    topts.atoms_per_node = 2;
    topts.interface_size = 1;
    topts.free_fraction = 0.4;
    topts.seed = seed;
    PatternTree tree = gen::MakeRandomChainWdpt(&schema, &vocab, topts);
    gen::RandomGraphOptions gopts;
    gopts.num_vertices = 16;
    gopts.num_edges = 48;
    gopts.seed = seed * 7 + 1;
    RelationId e;
    Database db(&schema);
    db = gen::MakeRandomGraphDb(&schema, &vocab, gopts, &e);
    std::vector<Mapping> hs = MakeCandidates(tree, db);
    if (hs.empty()) continue;

    for (EvalSemantics semantics :
         {EvalSemantics::kStandard, EvalSemantics::kPartial,
          EvalSemantics::kMaximal}) {
      CallOptions options;
      options.semantics = semantics;
      ExpectBatchMatchesSequential(tree, db, hs, options);
    }
    CallOptions naive;
    naive.algorithm = EvalAlgorithm::kNaive;
    ExpectBatchMatchesSequential(tree, db, hs, naive);
  }
}

TEST(EnginePlanCache, SecondIdenticalQueryHits) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);
  Mapping empty;

  Engine engine;
  ASSERT_TRUE(engine.Eval(tree, db, empty).ok());
  EngineStats after_first = engine.stats();
  EXPECT_EQ(after_first.plans_built, 1u);
  EXPECT_EQ(after_first.plan_cache_misses, 1u);
  EXPECT_EQ(after_first.plan_cache_hits, 0u);

  ASSERT_TRUE(engine.Eval(tree, db, empty).ok());
  EngineStats after_second = engine.stats();
  EXPECT_EQ(after_second.plans_built, 1u);
  EXPECT_GE(after_second.plan_cache_hits, 1u);

  // A different width bound is a different canonical key: builds anew.
  CallOptions wider;
  wider.width_bound = 2;
  ASSERT_TRUE(engine.Eval(tree, db, empty, wider).ok());
  EXPECT_EQ(engine.stats().plans_built, 2u);
}

TEST(EnginePlanCache, StructurallyIdenticalTreesShareAPlan) {
  RdfContext ctx;
  PatternTree a = MakeFigure1Tree(&ctx);
  PatternTree b = MakeFigure1Tree(&ctx);  // Distinct object, same structure.
  Engine engine;
  PlanOptions popts;
  ASSERT_TRUE(engine.GetPlan(a, popts).ok());
  ASSERT_TRUE(engine.GetPlan(b, popts).ok());
  EXPECT_EQ(engine.stats().plans_built, 1u);
  EXPECT_GE(engine.stats().plan_cache_hits, 1u);
}

TEST(EngineDeadline, ExpiredDeadlineIsDeadlineExceededNotAPartialAnswer) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);

  Engine engine;
  CallOptions options;
  options.deadline = std::chrono::nanoseconds(0);
  Result<bool> r = engine.Eval(tree, db, Mapping());
  ASSERT_TRUE(r.ok());  // Sanity: the query itself succeeds without one.
  Result<bool> expired = engine.Eval(tree, db, Mapping(), options);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  CallOptions eopts;
  eopts.deadline = std::chrono::nanoseconds(0);
  Result<std::vector<Mapping>> answers = engine.Enumerate(tree, db, eopts);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kDeadlineExceeded);

  EXPECT_GE(engine.stats().deadline_exceeded, 2u);
}

TEST(EngineDeadline, BatchReportsFirstFailureInIndexOrder) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);
  std::vector<Mapping> hs = MakeCandidates(tree, db);
  ASSERT_FALSE(hs.empty());

  EngineOptions eng_opts;
  eng_opts.num_threads = 4;
  Engine engine(eng_opts);
  CallOptions options;
  options.deadline = std::chrono::nanoseconds(0);
  Result<std::vector<bool>> batch = engine.EvalBatch(tree, db, hs, options);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(EngineDeadline, MaximalFilterHonorsDeadline) {
  // Fig. 1 at 4,000 bands has ~12,800 answers: p(D) takes ~60-80 ms
  // (x86-64, RelWithDebInfo), the all-pairs maximality filter ~1.6 s.
  // A 400 ms deadline therefore fires inside the filter and must yield
  // kDeadlineExceeded — not the complete answer delivered late, and
  // nothing cached. (Slower builds may fire during p(D) instead; the
  // outcome is the same.)
  bench::Fig1Instance inst(/*num_bands=*/4000);
  EngineOptions eng_opts;
  eng_opts.answer_cache_bytes = 64 << 20;
  Engine engine(eng_opts);
  CallOptions options;
  options.semantics = EvalSemantics::kMaximal;
  options.deadline = std::chrono::milliseconds(400);
  options.cache.generation = 1;
  for (size_t shards : {1u, 4u}) {
    options.shards = shards;
    Result<std::vector<Mapping>> answers =
        engine.Enumerate(inst.tree, inst.db, options);
    ASSERT_FALSE(answers.ok()) << "shards=" << shards << ": "
                               << answers->size() << " answers";
    EXPECT_EQ(answers.status().code(), StatusCode::kDeadlineExceeded);
  }
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.deadline_exceeded, 2u);
  EXPECT_EQ(stats.answer_cache_inserts, 0u);
}

TEST(EngineCancellation, PreCancelledTokenReturnsCancelled) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);

  CancelToken token = CancelToken::Create();
  token.RequestCancel();

  Engine engine;
  CallOptions options;
  options.cancel = token;
  Result<bool> r = engine.Eval(tree, db, Mapping(), options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  CallOptions eopts;
  eopts.cancel = token;
  Result<std::vector<Mapping>> answers = engine.Enumerate(tree, db, eopts);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kCancelled);
  EXPECT_GE(engine.stats().cancelled, 2u);
}

TEST(EngineEnumerate, MatchesDirectEvaluators) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);
  Engine engine;

  Result<std::vector<Mapping>> via_engine = engine.Enumerate(tree, db);
  Result<std::vector<Mapping>> direct = EvaluateWdpt(tree, db);
  ASSERT_TRUE(via_engine.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*via_engine, *direct);

  CallOptions maximal;
  maximal.semantics = EvalSemantics::kMaximal;
  Result<std::vector<Mapping>> via_engine_max =
      engine.Enumerate(tree, db, maximal);
  Result<std::vector<Mapping>> direct_max = EvaluateWdptMaximal(tree, db);
  ASSERT_TRUE(via_engine_max.ok());
  ASSERT_TRUE(direct_max.ok());
  EXPECT_EQ(*via_engine_max, *direct_max);
}

TEST(EnginePlan, ForcedProjectionFreeOnProjectingTreeIsAnError) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);  // Projects z2 away.
  Engine engine;
  PlanOptions popts;
  popts.algorithm = EvalAlgorithm::kProjectionFree;
  Result<std::shared_ptr<const Plan>> plan = engine.GetPlan(tree, popts);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineStatsConsistency, SnapshotsNeverTearUnderConcurrentLookups) {
  // Two structurally different trees share a capacity-1 cache, so
  // concurrent GetPlan calls keep evicting each other: a steady mix of
  // hits, misses, and builds. Any snapshot taken meanwhile must satisfy
  // lookups == hits + misses and built <= misses — the invariants a
  // torn (field-by-field atomic) snapshot violates.
  RdfContext ctx;
  PatternTree a = MakeFigure1Tree(&ctx);
  PatternTree b;
  b.AddAtom(PatternTree::kRoot, ctx.TriplePattern("?x", "recorded_by", "?y"));
  b.SetFreeVariables({ctx.vocab().Variable("x").variable_id(),
                      ctx.vocab().Variable("y").variable_id()});
  ASSERT_TRUE(b.Validate().ok());

  EngineOptions eopts;
  eopts.plan_cache_capacity = 1;
  Engine engine(eopts);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      PlanOptions popts;
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_TRUE(engine.GetPlan(t % 2 == 0 ? a : b, popts).ok());
      }
    });
  }
  // Snapshot continuously until the workers have produced a healthy
  // mix — thread startup can lag the first snapshots, so a fixed
  // iteration count alone could finish before any lookup happens.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (uint64_t snapshots = 0;; ++snapshots) {
    EngineStats s = engine.stats();
    ASSERT_EQ(s.plan_cache_lookups, s.plan_cache_hits + s.plan_cache_misses)
        << "torn snapshot at iteration " << snapshots;
    ASSERT_LE(s.plans_built, s.plan_cache_misses);
    if (snapshots >= 2000 && s.plan_cache_lookups >= 100) break;
    if (std::chrono::steady_clock::now() > deadline) break;
  }
  stop.store(true);
  for (std::thread& t : workers) t.join();
  EngineStats last = engine.stats();
  EXPECT_EQ(last.plan_cache_lookups,
            last.plan_cache_hits + last.plan_cache_misses);
  EXPECT_GT(last.plan_cache_lookups, 0u);
}

TEST(EngineTrace, EvalRecordsSpansAndClassification) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);

  Engine engine;
  Trace trace(7);
  CallOptions options;
  options.trace = &trace;
  ASSERT_TRUE(engine.Eval(tree, db, Mapping(), options).ok());
  EXPECT_NE(trace.classification(), TractabilityClass::kUnknown);
  EXPECT_GT(trace.span_ns(TraceStage::kEval), 0u);
  // First evaluation builds the plan, so the build span is real time.
  EXPECT_GT(trace.span_ns(TraceStage::kPlanBuild), 0u);

  // A second traced call hits the cache: no further build time accrues.
  Trace second;
  options.trace = &second;
  ASSERT_TRUE(engine.Eval(tree, db, Mapping(), options).ok());
  EXPECT_EQ(second.span_ns(TraceStage::kPlanBuild), 0u);
  EXPECT_EQ(second.classification(), trace.classification());
}

TEST(EngineTrace, EnumerateStampsClassificationWithoutFailing) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Database db = MakeExample2Db(&ctx);

  Engine engine;
  Trace trace;
  CallOptions options;
  options.trace = &trace;
  Result<std::vector<Mapping>> untraced = engine.Enumerate(tree, db);
  Result<std::vector<Mapping>> traced = engine.Enumerate(tree, db, options);
  ASSERT_TRUE(untraced.ok());
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(untraced->size(), traced->size());  // Tracing never alters rows.
  EXPECT_NE(trace.classification(), TractabilityClass::kUnknown);
  EXPECT_GT(trace.span_ns(TraceStage::kEval), 0u);
}

}  // namespace
}  // namespace wdpt
