// Differential tests for sharded scatter-gather enumeration: for every
// workload and shard count, Engine::Enumerate with CallOptions::shards
// must return a vector bit-identical to unsharded enumeration — the
// soundness contract documented in docs/ENGINE.md ("Sharded
// evaluation"). Workloads cover the Figure 1 running example, generated
// music catalogs, random chain WDPTs over random graphs, and the
// Proposition 3 three-colorability reduction; edge cases cover the empty
// database, an empty seed relation, more shards than seed matches, the
// 0/1 shard counts that take the plain path, Eval/EvalBatch (which
// ignore the field), and a token that fires during the seed scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "src/cq/homomorphism.h"
#include "src/engine/engine.h"
#include "src/gen/db_gen.h"
#include "src/gen/reductions.h"
#include "src/gen/wdpt_gen.h"
#include "src/relational/rdf.h"
#include "src/wdpt/enumerate.h"

namespace wdpt {
namespace {

// Figure 1 WDPT with projection dropped to {x, y, z}.
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

CallOptions WithShards(size_t shards) {
  CallOptions options;
  options.shards = shards;
  return options;
}

// Asserts the core contract on one instance: sharded == unsharded,
// bit-for-bit, under both p(D) and p_m(D), for each shard count.
void ExpectShardedMatchesUnsharded(const PatternTree& tree,
                                   const Database& db,
                                   std::vector<size_t> shard_counts = {
                                       1, 2, 3, 4, 7}) {
  Engine engine;
  for (bool maximal : {false, true}) {
    CallOptions options;
    options.semantics =
        maximal ? EvalSemantics::kMaximal : EvalSemantics::kStandard;
    options.shards = 1;
    Result<std::vector<Mapping>> unsharded =
        engine.Enumerate(tree, db, options);
    ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
    for (size_t n : shard_counts) {
      options.shards = n;
      Result<std::vector<Mapping>> answers =
          engine.Enumerate(tree, db, options);
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      EXPECT_EQ(*answers, *unsharded)
          << "shards=" << n << " maximal=" << maximal;
    }
  }
}

TEST(ShardedEnumerate, Figure1ExampleMatchesUnsharded) {
  RdfContext ctx;
  Database db = ctx.MakeDatabase();
  ctx.AddTriple(&db, "Our_love", "recorded_by", "Caribou");
  ctx.AddTriple(&db, "Our_love", "published", "after_2010");
  ctx.AddTriple(&db, "Swim", "recorded_by", "Caribou");
  ctx.AddTriple(&db, "Swim", "published", "after_2010");
  ctx.AddTriple(&db, "Swim", "NME_rating", "2");
  PatternTree tree = MakeFigure1Tree(&ctx);
  ExpectShardedMatchesUnsharded(tree, db);
}

TEST(ShardedEnumerate, MusicCatalogMatchesUnsharded) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    RdfContext ctx;
    gen::MusicCatalogOptions options;
    options.num_bands = 30;
    options.seed = seed;
    Database db = gen::MakeMusicCatalog(&ctx, options);
    PatternTree tree = MakeFigure1Tree(&ctx);
    ExpectShardedMatchesUnsharded(tree, db);
  }
}

TEST(ShardedEnumerate, RandomChainWdptsMatchUnsharded) {
  // Kept deliberately small: maximal-homomorphism counts on random
  // graph instances grow combinatorially with graph size and tree
  // width, and this test enumerates the full answer set per (seed,
  // shard count, semantics) combination.
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    Schema schema;
    Vocabulary vocab;
    RelationId edge_rel = 0;
    gen::RandomGraphOptions graph;
    graph.num_vertices = 10;
    graph.num_edges = 18;
    graph.seed = seed;
    Database db = gen::MakeRandomGraphDb(&schema, &vocab, graph, &edge_rel);
    gen::RandomWdptOptions shape;
    shape.depth = 2;
    shape.branching = 1;
    shape.atoms_per_node = 2;
    shape.seed = seed;
    PatternTree tree = gen::MakeRandomChainWdpt(&schema, &vocab, shape);
    ExpectShardedMatchesUnsharded(tree, db, {1, 3, 4});
  }
}

TEST(ShardedEnumerate, ThreeColReductionMatchesUnsharded) {
  // Proposition 3 instances: a 3-colorable cycle (answers exist) and
  // K4 (not 3-colorable). The reduction's tree is root-heavy, so the
  // seed scatter runs over the color-assignment atoms.
  Schema schema;
  Vocabulary vocab;
  gen::ThreeColInstance yes = gen::MakeThreeColInstance(
      gen::MakeCycleGraph(5), &schema, &vocab, /*tag=*/1);
  ExpectShardedMatchesUnsharded(yes.tree, yes.db, {1, 2, 4});
  gen::ThreeColInstance no = gen::MakeThreeColInstance(
      gen::MakeCompleteGraph(4), &schema, &vocab, /*tag=*/2);
  ExpectShardedMatchesUnsharded(no.tree, no.db, {1, 2, 4});
}

TEST(ShardedEnumerate, EmptyDatabaseAndEmptyShards) {
  RdfContext ctx;
  Database empty = ctx.MakeDatabase();
  PatternTree tree = MakeFigure1Tree(&ctx);
  // Empty database: no seeds anywhere, empty answer set.
  ExpectShardedMatchesUnsharded(tree, empty, {1, 2, 4});

  // More shards than seed matches: the run caps its tasks at the one
  // seed match and still returns exactly the plain answers.
  Database tiny = ctx.MakeDatabase();
  ctx.AddTriple(&tiny, "Swim", "recorded_by", "Caribou");
  ctx.AddTriple(&tiny, "Swim", "published", "after_2010");
  ExpectShardedMatchesUnsharded(tree, tiny, {1, 8, 64});
}

TEST(ShardedEnumerate, MoreTasksThanSeedMatches) {
  RdfContext ctx;
  PatternTree tree = MakeFigure1Tree(&ctx);
  Engine engine;

  // Two seed matches, eight shards: one task per seed match runs (no
  // task gets an empty chunk) and the gather still returns exactly the
  // plain answers.
  Database two = ctx.MakeDatabase();
  for (const char* rec : {"Swim", "Our_love"}) {
    ctx.AddTriple(&two, rec, "recorded_by", "Caribou");
    ctx.AddTriple(&two, rec, "published", "after_2010");
  }
  ctx.AddTriple(&two, "Swim", "NME_rating", "2");
  Result<std::vector<Mapping>> plain = engine.Enumerate(tree, two);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->size(), 2u);
  engine.ResetStats();
  Result<std::vector<Mapping>> scattered =
      engine.Enumerate(tree, two, WithShards(8));
  ASSERT_TRUE(scattered.ok()) << scattered.status().ToString();
  EXPECT_EQ(*scattered, *plain);
  EXPECT_EQ(engine.stats().shard_tasks, 2u);
  EXPECT_EQ(engine.stats().sharded_fallbacks, 0u);

  // An empty seed relation next to non-empty ones: the seed scan finds
  // nothing, no task runs, and the answer set is empty.
  Database no_roots = ctx.MakeDatabase();
  ctx.AddTriple(&no_roots, "Swim", "NME_rating", "2");
  ctx.AddTriple(&no_roots, "Caribou", "formed_in", "2000");
  engine.ResetStats();
  for (EvalSemantics semantics :
       {EvalSemantics::kStandard, EvalSemantics::kMaximal}) {
    CallOptions options = WithShards(4);
    options.semantics = semantics;
    Result<std::vector<Mapping>> none =
        engine.Enumerate(tree, no_roots, options);
    ASSERT_TRUE(none.ok()) << none.status().ToString();
    EXPECT_TRUE(none->empty());
  }
  EXPECT_EQ(engine.stats().shard_tasks, 0u);
}

TEST(ShardedEnumerate, ZeroShardsClampsToOne) {
  // shards = 0 means one plain run, exactly like shards = 1: same
  // answers, and no sharded counter moves.
  RdfContext ctx;
  gen::MusicCatalogOptions options;
  options.num_bands = 10;
  Database db = gen::MakeMusicCatalog(&ctx, options);
  PatternTree tree = MakeFigure1Tree(&ctx);
  Engine engine;
  Result<std::vector<Mapping>> one = engine.Enumerate(tree, db, WithShards(1));
  Result<std::vector<Mapping>> zero =
      engine.Enumerate(tree, db, WithShards(0));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero, *one);
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.enumerate_calls, 2u);
  EXPECT_EQ(stats.sharded_enumerate_calls, 0u);
  EXPECT_EQ(stats.sharded_fallbacks, 0u);
  EXPECT_EQ(stats.shard_tasks, 0u);
}

TEST(ShardedEnumerate, SingleShardUsesFallbackPath) {
  RdfContext ctx;
  gen::MusicCatalogOptions options;
  options.num_bands = 10;
  Database db = gen::MakeMusicCatalog(&ctx, options);
  PatternTree tree = MakeFigure1Tree(&ctx);
  Engine engine;
  // One shard is the plain run, not a sharded call.
  Result<std::vector<Mapping>> answers =
      engine.Enumerate(tree, db, WithShards(1));
  ASSERT_TRUE(answers.ok());
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.sharded_enumerate_calls, 0u);
  EXPECT_EQ(stats.sharded_fallbacks, 0u);
  EXPECT_EQ(stats.shard_tasks, 0u);

  // A real fan-out records one task per shard and no fallback.
  engine.ResetStats();
  answers = engine.Enumerate(tree, db, WithShards(4));
  ASSERT_TRUE(answers.ok());
  stats = engine.stats();
  EXPECT_EQ(stats.sharded_enumerate_calls, 1u);
  EXPECT_EQ(stats.sharded_fallbacks, 0u);
  EXPECT_EQ(stats.shard_tasks, 4u);

  // A root label with no seed atom (here: empty) runs plain, counted as
  // a fallback.
  PatternTree no_root_atoms;
  no_root_atoms.AddChild(PatternTree::kRoot,
                         {ctx.TriplePattern("?x", "NME_rating", "?z")});
  ASSERT_TRUE(no_root_atoms.Validate().ok());
  engine.ResetStats();
  Result<std::vector<Mapping>> plain = engine.Enumerate(no_root_atoms, db);
  Result<std::vector<Mapping>> fallback =
      engine.Enumerate(no_root_atoms, db, WithShards(4));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*fallback, *plain);
  stats = engine.stats();
  EXPECT_EQ(stats.sharded_enumerate_calls, 1u);
  EXPECT_EQ(stats.sharded_fallbacks, 1u);
  EXPECT_EQ(stats.shard_tasks, 0u);
}

TEST(ShardedEnumerate, EvalAndBatchRouteToFullView) {
  // Eval and EvalBatch ignore CallOptions::shards: a candidate check is
  // one global homomorphism problem, and a batch already fans out
  // across candidates.
  RdfContext ctx;
  gen::MusicCatalogOptions options;
  options.num_bands = 10;
  Database db = gen::MakeMusicCatalog(&ctx, options);
  PatternTree tree = MakeFigure1Tree(&ctx);
  Engine engine;
  Result<std::vector<Mapping>> answers = engine.Enumerate(tree, db);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  const Mapping& h = answers->front();
  engine.ResetStats();
  Result<bool> direct = engine.Eval(tree, db, h);
  Result<bool> with_shards = engine.Eval(tree, db, h, WithShards(3));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(with_shards.ok());
  EXPECT_EQ(*direct, *with_shards);
  Result<std::vector<bool>> batch =
      engine.EvalBatch(tree, db, *answers, WithShards(3));
  ASSERT_TRUE(batch.ok());
  for (bool b : *batch) EXPECT_TRUE(b);
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.sharded_enumerate_calls, 0u);
  EXPECT_EQ(stats.sharded_fallbacks, 0u);
  EXPECT_EQ(stats.shard_tasks, 0u);
}

TEST(ShardedEnumerate, TraceRecordsFanoutAndShardSpans) {
  RdfContext ctx;
  gen::MusicCatalogOptions options;
  options.num_bands = 10;
  Database db = gen::MakeMusicCatalog(&ctx, options);
  PatternTree tree = MakeFigure1Tree(&ctx);
  Engine engine;
  Trace trace(/*request_id=*/42);
  CallOptions opts = WithShards(3);
  opts.trace = &trace;
  ASSERT_TRUE(engine.Enumerate(tree, db, opts).ok());
  EXPECT_EQ(trace.shard_fanout(), 3u);
  EXPECT_EQ(trace.shard_spans_ns().size(), 3u);

  // The unsharded path leaves the shard fields untouched.
  Trace unsharded_trace;
  opts.trace = &unsharded_trace;
  opts.shards = 1;
  ASSERT_TRUE(engine.Enumerate(tree, db, opts).ok());
  EXPECT_EQ(unsharded_trace.shard_fanout(), 0u);
  EXPECT_TRUE(unsharded_trace.shard_spans_ns().empty());
}

TEST(ShardedEnumerate, TokenFiringDuringSeedScanYieldsNoAnswer) {
  // A seed relation large enough that matching it outlasts a 1 ms
  // deadline: the scan stops at its next poll and the call reports
  // kDeadlineExceeded with no task started — never a partial answer.
  // (On a slow host the deadline may already fire before the scan;
  // the outcome asserted here is the same either way.)
  Schema schema;
  Vocabulary vocab;
  RelationId edge_rel = 0;
  gen::RandomGraphOptions graph;
  graph.num_vertices = 2000;
  graph.num_edges = 200000;
  graph.seed = 5;
  Database db = gen::MakeRandomGraphDb(&schema, &vocab, graph, &edge_rel);
  db.WarmColumnIndexes();
  gen::RandomWdptOptions shape;
  shape.depth = 2;
  shape.branching = 1;
  shape.atoms_per_node = 2;
  shape.seed = 5;
  PatternTree tree = gen::MakeRandomChainWdpt(&schema, &vocab, shape);

  Engine engine;
  CallOptions options = WithShards(4);
  options.deadline = std::chrono::milliseconds(1);
  Result<std::vector<Mapping>> answers = engine.Enumerate(tree, db, options);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kDeadlineExceeded);
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.shard_tasks, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
}

TEST(ShardedEnumerate, SeededEvaluatorUnionEqualsFullEvaluation) {
  // The building block underneath the engine: the root-atom matches,
  // split into contiguous chunks and fed through
  // EvaluateWdptProjectedSeeded, union (after dedup) to exactly
  // EvaluateWdptProjected on the same database — for every chunk count.
  RdfContext ctx;
  gen::MusicCatalogOptions options;
  options.num_bands = 20;
  Database db = gen::MakeMusicCatalog(&ctx, options);
  PatternTree tree = MakeFigure1Tree(&ctx);
  Result<std::vector<Mapping>> expected = EvaluateWdptProjected(tree, db);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected->empty());
  // An empty seed set contributes nothing.
  Result<std::vector<Mapping>> none =
      EvaluateWdptProjectedSeeded(tree, db, {});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  std::vector<Mapping> seeds;
  ASSERT_TRUE(ForEachHomomorphism({tree.label(PatternTree::kRoot)[0]}, db,
                                  Mapping(), [&seeds](const Mapping& m) {
                                    seeds.push_back(m);
                                    return true;
                                  }));
  ASSERT_FALSE(seeds.empty());
  for (size_t chunks : {1u, 2u, 5u}) {
    std::unordered_set<Mapping, MappingHash> merged;
    for (size_t c = 0; c < chunks; ++c) {
      std::span<const Mapping> chunk(
          seeds.data() + c * seeds.size() / chunks,
          seeds.data() + (c + 1) * seeds.size() / chunks);
      Result<std::vector<Mapping>> part =
          EvaluateWdptProjectedSeeded(tree, db, chunk);
      ASSERT_TRUE(part.ok()) << part.status().ToString();
      merged.insert(part->begin(), part->end());
    }
    std::vector<Mapping> got(merged.begin(), merged.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, *expected) << "chunks=" << chunks;
  }
}

}  // namespace
}  // namespace wdpt
