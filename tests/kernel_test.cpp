// Tests for the columnar join kernel: the flat hash tables and arena,
// CSR column indexes (against naive scans), galloping intersection, the
// stale-flag / Freeze index lifecycle, and randomized differentials
// against reference oracles that follow the definitions directly: CQ
// answers against the backtracking strategy, the homomorphism search
// against a brute force over the active domain, and Engine::Enumerate
// (every semantics, sharded and cached) against p(D) by full
// maximal-homomorphism enumeration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/algo.h"
#include "src/common/arena.h"
#include "src/common/flat_table.h"
#include "src/common/metrics.h"
#include "src/cq/cq.h"
#include "src/cq/evaluation.h"
#include "src/cq/homomorphism.h"
#include "src/engine/engine.h"
#include "src/gen/cq_gen.h"
#include "src/gen/db_gen.h"
#include "src/gen/wdpt_gen.h"
#include "src/relational/database.h"
#include "src/wdpt/enumerate.h"

namespace wdpt {
namespace {

// ---------------------------------------------------------------------
// Flat hash tables
// ---------------------------------------------------------------------

TEST(FlatTupleSetTest, InsertFindDedup) {
  FlatTupleSet set;
  set.Init(2, nullptr);
  ConstantId a[2] = {1, 2};
  ConstantId b[2] = {2, 1};
  bool inserted = false;
  uint32_t id_a = set.InsertOrFind(a, &inserted);
  EXPECT_TRUE(inserted);
  uint32_t id_b = set.InsertOrFind(b, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(set.InsertOrFind(a, &inserted), id_a);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.Find(a), id_a);
  EXPECT_EQ(set.Find(b), id_b);
  ConstantId c[2] = {1, 3};
  EXPECT_EQ(set.Find(c), FlatTupleSet::kNoId);
}

TEST(FlatTupleSetTest, GrowthKeepsEveryKey) {
  // Far past the minimum capacity: every rehash must preserve all keys
  // and their dense ids.
  FlatTupleSet set;
  set.Init(2, nullptr);
  std::mt19937_64 rng(7);
  std::vector<std::array<ConstantId, 2>> keys;
  std::set<uint64_t> seen;
  while (keys.size() < 20000) {
    std::array<ConstantId, 2> k = {static_cast<ConstantId>(rng() % 100000),
                                   static_cast<ConstantId>(rng() % 100000)};
    if (!seen.insert((uint64_t{k[0]} << 32) | k[1]).second) continue;
    keys.push_back(k);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(set.InsertOrFind(keys[i].data()), i);
  }
  EXPECT_EQ(set.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(set.Find(keys[i].data()), i);
  }
}

TEST(FlatTupleSetTest, CollidingKeysStayDistinct) {
  // Keys equal modulo any power-of-two table size collide into the same
  // bucket chain unless the hash mixes the high bits; either way the
  // table must keep them distinct.
  FlatTupleSet set;
  set.Init(1, nullptr);
  std::vector<ConstantId> keys;
  for (uint32_t i = 0; i < 512; ++i) keys.push_back(i << 16);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(set.InsertOrFind(&keys[i]), i);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(set.Find(&keys[i]), i);
  }
}

TEST(FlatTupleSetTest, TombstonesAndReinsert) {
  FlatTupleSet set;
  set.Init(1, nullptr);
  for (ConstantId k = 0; k < 1000; ++k) set.InsertOrFind(&k);
  for (ConstantId k = 0; k < 1000; k += 2) {
    EXPECT_TRUE(set.Erase(&k));
    EXPECT_FALSE(set.Erase(&k)) << "double erase must report absent";
  }
  EXPECT_EQ(set.size(), 500u);
  for (ConstantId k = 0; k < 1000; ++k) {
    if (k % 2 == 0) {
      ASSERT_EQ(set.Find(&k), FlatTupleSet::kNoId);
    } else {
      ASSERT_NE(set.Find(&k), FlatTupleSet::kNoId);
    }
  }
  // Reinserting erased keys mints fresh ids; lookups see them again.
  for (ConstantId k = 0; k < 1000; k += 2) {
    bool inserted = false;
    set.InsertOrFind(&k, &inserted);
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(set.size(), 1000u);
  // Insert/erase churn on one key accumulates tombstones; the table must
  // stay correct through the cleanup rehashes this forces.
  for (int round = 0; round < 5000; ++round) {
    ConstantId k = 5000 + static_cast<ConstantId>(round % 7);
    set.InsertOrFind(&k);
    EXPECT_TRUE(set.Erase(&k));
  }
  EXPECT_EQ(set.size(), 1000u);
}

TEST(FlatTupleSetTest, WideTuplesSpillToArena) {
  Arena arena;
  FlatTupleSet set;
  set.Init(4, &arena);
  std::mt19937_64 rng(11);
  std::vector<std::array<ConstantId, 4>> keys;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back({static_cast<ConstantId>(rng() % 50),
                    static_cast<ConstantId>(rng() % 50),
                    static_cast<ConstantId>(rng() % 50),
                    static_cast<ConstantId>(rng() % 50)});
  }
  std::map<std::array<ConstantId, 4>, uint32_t> reference;
  for (const auto& k : keys) {
    uint32_t id = set.InsertOrFind(k.data());
    auto [it, inserted] = reference.emplace(k, id);
    EXPECT_EQ(it->second, id);
  }
  EXPECT_EQ(set.size(), reference.size());
  for (const auto& [k, id] : reference) {
    ASSERT_EQ(set.Find(k.data()), id);
  }
  // A tuple differing only in the last constant must miss (the wide
  // path compares full contents, not just the 64-bit hash).
  std::array<ConstantId, 4> near = keys[0];
  near[3] = static_cast<ConstantId>(near[3] + 1000);
  EXPECT_EQ(set.Find(near.data()), FlatTupleSet::kNoId);
}

TEST(FlatTupleMapTest, ValuesFollowDenseIds) {
  FlatTupleMap<int> map;
  map.Init(2, nullptr);
  ConstantId a[2] = {3, 4};
  ConstantId b[2] = {4, 3};
  map.InsertOrFind(a, 10) += 1;
  map.InsertOrFind(b, 20) += 2;
  map.InsertOrFind(a, 999) += 100;  // Existing: init value ignored.
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(a), nullptr);
  EXPECT_EQ(*map.Find(a), 111);
  ASSERT_NE(map.Find(b), nullptr);
  EXPECT_EQ(*map.Find(b), 22);
  ConstantId c[2] = {9, 9};
  EXPECT_EQ(map.Find(c), nullptr);
}

TEST(ArenaTest, ResetReusesMemoryAndInitClearsTables) {
  Arena arena;
  FlatTupleSet set;
  for (int round = 0; round < 3; ++round) {
    set.Init(3, &arena);
    EXPECT_EQ(set.size(), 0u);
    std::array<ConstantId, 3> t;
    for (ConstantId i = 0; i < 500; ++i) {
      t = {i, i, static_cast<ConstantId>(round)};
      set.InsertOrFind(t.data());
    }
    EXPECT_EQ(set.size(), 500u);
    t = {0, 0, static_cast<ConstantId>(round)};
    EXPECT_NE(set.Find(t.data()), FlatTupleSet::kNoId);
    arena.Reset();  // Invalidates spilled tuples; next Init re-arms.
  }
}

// ---------------------------------------------------------------------
// Galloping intersection
// ---------------------------------------------------------------------

std::vector<uint32_t> ReferenceIntersect(const std::vector<uint32_t>& a,
                                         const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(GallopIntersectTest, EdgeCases) {
  std::vector<uint32_t> out;
  auto run = [&](std::vector<uint32_t> a, std::vector<uint32_t> b) {
    out.clear();
    GallopIntersect(std::span<const uint32_t>(a),
                    std::span<const uint32_t>(b), &out);
    EXPECT_EQ(out, ReferenceIntersect(a, b));
  };
  run({}, {});
  run({}, {1, 2, 3});
  run({5}, {1, 2, 3});
  run({2}, {1, 2, 3});
  run({1, 2, 3}, {1, 2, 3});
  run({1, 3, 5, 7}, {2, 4, 6, 8});          // Disjoint, interleaved.
  run({100}, {1, 2, 3, 99, 100, 101});      // Singleton in long list.
  run({0, 1000000}, {0, 5, 1000000});       // Wide gaps.
}

TEST(GallopIntersectTest, RandomizedAgainstSetIntersection) {
  std::mt19937_64 rng(23);
  for (int round = 0; round < 200; ++round) {
    size_t small_n = rng() % 20;
    size_t large_n = rng() % 2000;
    std::set<uint32_t> sa, sb;
    while (sa.size() < small_n) sa.insert(static_cast<uint32_t>(rng() % 3000));
    while (sb.size() < large_n) sb.insert(static_cast<uint32_t>(rng() % 3000));
    std::vector<uint32_t> a(sa.begin(), sa.end()), b(sb.begin(), sb.end());
    std::vector<uint32_t> out;
    GallopIntersect(std::span<const uint32_t>(a),
                    std::span<const uint32_t>(b), &out);
    ASSERT_EQ(out, ReferenceIntersect(a, b)) << "round " << round;
  }
}

// ---------------------------------------------------------------------
// CSR column indexes
// ---------------------------------------------------------------------

class CsrFixture : public ::testing::Test {
 protected:
  Schema schema_;
  Vocabulary vocab_;

  // A random ternary relation with small value domains (dense posting
  // lists) in a fresh database.
  Database MakeRandomDb(RelationId* rel_out, uint64_t seed,
                        size_t tuples = 2000) {
    Result<RelationId> rel = schema_.AddRelation("T" + std::to_string(seed), 3);
    WDPT_CHECK(rel.ok());
    *rel_out = *rel;
    Database db(&schema_);
    std::mt19937_64 rng(seed);
    for (size_t i = 0; i < tuples; ++i) {
      ConstantId t[3] = {static_cast<ConstantId>(rng() % 37),
                         static_cast<ConstantId>(rng() % 101),
                         static_cast<ConstantId>(rng() % 7)};
      db.AddFact(*rel_out, t).ok();
    }
    return db;
  }

  static std::vector<uint32_t> NaiveScan(const Relation& rel, uint32_t col,
                                         ConstantId value) {
    std::vector<uint32_t> rows;
    for (uint32_t row = 0; row < rel.size(); ++row) {
      if (rel.Tuple(row)[col] == value) rows.push_back(row);
    }
    return rows;
  }
};

TEST_F(CsrFixture, RowsMatchingEqualsNaiveScan) {
  RelationId rel_id;
  Database db = MakeRandomDb(&rel_id, 3);
  const Relation& rel = db.relation(rel_id);
  for (uint32_t col = 0; col < 3; ++col) {
    for (ConstantId value = 0; value < 120; ++value) {
      std::span<const uint32_t> got = rel.RowsMatching(col, value);
      std::vector<uint32_t> expected = NaiveScan(rel, col, value);
      ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()), expected)
          << "col " << col << " value " << value;
      // Row ids within a posting list are ascending (gallop relies on it).
      ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
    }
  }
}

TEST_F(CsrFixture, ColumnStatsMatchTrueCounts) {
  RelationId rel_id;
  Database db = MakeRandomDb(&rel_id, 4);
  const Relation& rel = db.relation(rel_id);
  for (uint32_t col = 0; col < 3; ++col) {
    std::map<ConstantId, uint32_t> counts;
    for (uint32_t row = 0; row < rel.size(); ++row) {
      ++counts[rel.Tuple(row)[col]];
    }
    uint32_t max_fanout = 0;
    for (const auto& [v, n] : counts) max_fanout = std::max(max_fanout, n);
    const auto& stats = rel.column_stats(col);
    EXPECT_EQ(stats.distinct_values, counts.size());
    EXPECT_EQ(stats.max_fanout, max_fanout);
  }
}

TEST_F(CsrFixture, MutationsBatchInvalidate) {
  RelationId rel_id;
  Database db = MakeRandomDb(&rel_id, 5, /*tuples=*/300);
  const Relation& rel = db.relation(rel_id);
  db.WarmColumnIndexes();
  EXPECT_TRUE(rel.warmed());

  // A burst of removes: each one just flips the stale flag — the
  // relation stays unwarmed with no rebuild until the next read.
  std::vector<std::vector<ConstantId>> victims;
  for (uint32_t row = 0; row < 50; ++row) {
    auto t = rel.Tuple(row * 3);
    victims.emplace_back(t.begin(), t.end());
  }
  for (const auto& t : victims) db.RemoveFact(rel_id, t);
  EXPECT_FALSE(rel.warmed());

  // First probe after the burst rebuilds once; results match a scan.
  for (uint32_t col = 0; col < 3; ++col) {
    for (ConstantId value = 0; value < 120; ++value) {
      std::span<const uint32_t> got = rel.RowsMatching(col, value);
      ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
                NaiveScan(rel, col, value));
    }
  }
  EXPECT_TRUE(rel.warmed());

  // Inserts invalidate the same way.
  ConstantId fresh[3] = {1000, 1000, 1000};
  db.AddFact(rel_id, fresh).ok();
  EXPECT_FALSE(rel.warmed());
  std::span<const uint32_t> got = rel.RowsMatching(0, 1000);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(rel.warmed());
}

TEST_F(CsrFixture, FreezePublishesAndCloneUnfreezes) {
  RelationId rel_id;
  Database db = MakeRandomDb(&rel_id, 6, /*tuples=*/100);
  db.Freeze();  // Warms then publishes.
  EXPECT_TRUE(db.warmed());
  EXPECT_TRUE(db.relation(rel_id).frozen());
  // Reads are served without any rebuild.
  EXPECT_EQ(db.relation(rel_id).RowsMatching(2, 3).size(),
            NaiveScan(db.relation(rel_id), 2, 3).size());
  // A clone is a private copy again: mutable, lazily re-indexed.
  Database clone = db.CloneWithSchema(&schema_);
  EXPECT_FALSE(clone.relation(rel_id).frozen());
  ConstantId fresh[3] = {2000, 2000, 2000};
  EXPECT_TRUE(clone.AddFact(rel_id, fresh).ok());
  EXPECT_EQ(clone.relation(rel_id).RowsMatching(0, 2000).size(), 1u);
  // The frozen original is untouched.
  EXPECT_EQ(db.relation(rel_id).RowsMatching(0, 2000).size(), 0u);
}

// ---------------------------------------------------------------------
// Differential: the join kernel and the homomorphism search against
// reference oracles that follow the definitions directly
// ---------------------------------------------------------------------

std::vector<Mapping> Sorted(std::vector<Mapping> ms) {
  std::sort(ms.begin(), ms.end());
  return ms;
}

// q(D) by the backtracking strategy: one homomorphism search per answer,
// no bag joins, no semijoins.
std::vector<Mapping> BacktrackingAnswers(const ConjunctiveQuery& q,
                                         const Database& db) {
  CqEvalOptions options;
  options.strategy = CqEvalStrategy::kBacktracking;
  return Sorted(EvaluateCq(q, db, options));
}

class DifferentialFixture : public ::testing::Test {
 protected:
  Schema schema_;
  Vocabulary vocab_;

  Database MakeGraph(uint32_t vertices, uint64_t edges, uint64_t seed,
                     RelationId* edge_rel) {
    gen::RandomGraphOptions options;
    options.num_vertices = vertices;
    options.num_edges = edges;
    options.seed = seed;
    return gen::MakeRandomGraphDb(&schema_, &vocab_, options, edge_rel);
  }

  // Path CQ with both endpoints free.
  ConjunctiveQuery PathQuery(uint32_t len, const std::string& prefix) {
    ConjunctiveQuery q = gen::MakePathCq(&schema_, &vocab_, len, prefix);
    q.free_vars = {q.atoms.front().terms[0].variable_id(),
                   q.atoms.back().terms[1].variable_id()};
    q.Normalize();
    return q;
  }
};

TEST_F(DifferentialFixture, AcyclicEvaluationIdenticalAnswerSets) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    RelationId edge_rel;
    Database db = MakeGraph(60, 200, seed, &edge_rel);
    for (uint32_t len : {2u, 3u, 4u}) {
      ConjunctiveQuery q =
          PathQuery(len, "s" + std::to_string(seed) + "l" + std::to_string(len));
      std::optional<std::vector<Mapping>> kernel = EvaluateAcyclic(q, db);
      ASSERT_TRUE(kernel.has_value());
      std::vector<Mapping> oracle = BacktrackingAnswers(q, db);
      ASSERT_FALSE(oracle.empty());
      ASSERT_EQ(Sorted(*kernel), oracle) << "seed " << seed << " len " << len;
    }
  }
}

TEST_F(DifferentialFixture, DecompositionEvaluationIdenticalAnswerSets) {
  // Cycles are not acyclic: this exercises EvaluateWithDecomposition
  // (GHD of width 2).
  RelationId edge_rel;
  Database db = MakeGraph(40, 160, 9, &edge_rel);
  for (uint32_t len : {3u, 4u, 5u}) {
    ConjunctiveQuery q =
        gen::MakeCycleCq(&schema_, &vocab_, len, "c" + std::to_string(len));
    q.free_vars = {q.atoms.front().terms[0].variable_id()};
    q.Normalize();
    CqEvalOptions options;
    options.strategy = CqEvalStrategy::kDecomposition;
    std::vector<Mapping> oracle = BacktrackingAnswers(q, db);
    ASSERT_FALSE(oracle.empty()) << "cycle length " << len;
    ASSERT_EQ(Sorted(EvaluateCq(q, db, options)), oracle)
        << "cycle length " << len;
  }
}

TEST_F(DifferentialFixture, HomSearchMatchesBruteForce) {
  // Triangle query: once two variables are bound, the third atom has two
  // bound columns, so the search takes the galloping path.
  RelationId edge_rel;
  Database db = MakeGraph(50, 300, 31, &edge_rel);
  ConjunctiveQuery q = gen::MakeCycleCq(&schema_, &vocab_, 3, "t");
  uint64_t gallops_before = metrics::Load(metrics::GallopIntersections());
  std::vector<Mapping> found;
  ASSERT_TRUE(ForEachHomomorphism(q.atoms, db, Mapping(),
                                  [&](const Mapping& m) {
                                    found.push_back(m);
                                    return true;
                                  }));
  EXPECT_GT(metrics::Load(metrics::GallopIntersections()), gallops_before)
      << "the search never galloped on a triangle";

  // Brute force: every assignment of the query's variables over the
  // active domain, kept when each atom's image is a fact of db.
  std::vector<VariableId> vars = VariablesOf(q.atoms);
  std::vector<ConstantId> domain = db.ActiveDomain();
  ASSERT_FALSE(domain.empty());
  std::vector<Mapping> brute;
  std::vector<size_t> digits(vars.size(), 0);
  while (true) {
    std::vector<Mapping::Entry> entries;
    for (size_t i = 0; i < vars.size(); ++i) {
      entries.emplace_back(vars[i], domain[digits[i]]);
    }
    Mapping h(std::move(entries));
    bool all_facts = true;
    for (const Atom& atom : SubstituteMapping(q.atoms, h)) {
      std::vector<ConstantId> tuple;
      for (Term t : atom.terms) tuple.push_back(t.constant_id());
      if (!db.ContainsFact(atom.relation, tuple)) {
        all_facts = false;
        break;
      }
    }
    if (all_facts) brute.push_back(std::move(h));
    size_t pos = 0;
    while (pos < digits.size() && ++digits[pos] == domain.size()) {
      digits[pos++] = 0;
    }
    if (pos == digits.size()) break;
  }
  ASSERT_FALSE(brute.empty());
  ASSERT_EQ(Sorted(std::move(found)), Sorted(std::move(brute)));
}

TEST_F(DifferentialFixture, RandomCqsAgreeUnderAutoStrategy) {
  RelationId edge_rel;
  Database db = MakeGraph(30, 120, 77, &edge_rel);
  for (uint64_t seed = 0; seed < 8; ++seed) {
    ConjunctiveQuery q = gen::MakeRandomCq(&schema_, &vocab_, /*num_atoms=*/4,
                                           /*num_vars=*/4, seed,
                                           "r" + std::to_string(seed));
    q.free_vars = q.AllVariables();
    q.Normalize();
    ASSERT_EQ(Sorted(EvaluateCq(q, db)), BacktrackingAnswers(q, db))
        << "random CQ seed " << seed;
  }
}

TEST_F(DifferentialFixture, WideQueryEvaluatesOverDecomposition) {
  // A 7-clique with a pendant path has generalized hypertree width 4,
  // above the ladder's GHD probe bound of 3. Under kDecomposition both
  // EvaluateCq and DecideNonEmpty still evaluate over a decomposition
  // (EvaluateCq over the min-fill tree decomposition, so semijoin passes
  // move) and agree with backtracking. A 7-clique planted in a sparse
  // random graph keeps the oracle non-empty.
  RelationId edge_rel;
  Database db = MakeGraph(40, 60, 43, &edge_rel);
  auto node = [&](uint32_t i) {
    return vocab_.ConstantIdOf("n" + std::to_string(i));
  };
  for (uint32_t i = 0; i < 7; ++i) {
    for (uint32_t j = 0; j < 7; ++j) {
      if (i == j) continue;
      ConstantId edge[2] = {node(i), node(j)};
      ASSERT_TRUE(db.AddFact(edge_rel, edge).ok());
    }
  }
  ConjunctiveQuery q = gen::MakeCliqueCq(&schema_, &vocab_, 7, "w");
  Term hop1 = vocab_.Variable("w_hop1");
  Term hop2 = vocab_.Variable("w_hop2");
  q.atoms.emplace_back(edge_rel,
                       std::vector<Term>{vocab_.Variable("w6"), hop1});
  q.atoms.emplace_back(edge_rel, std::vector<Term>{hop1, hop2});
  VariableId w0 = vocab_.Variable("w0").variable_id();
  q.free_vars = {w0, hop2.variable_id()};
  q.Normalize();

  std::vector<Mapping> oracle = BacktrackingAnswers(q, db);
  ASSERT_FALSE(oracle.empty());
  CqEvalOptions decomposition;
  decomposition.strategy = CqEvalStrategy::kDecomposition;
  uint64_t passes_before = metrics::Load(metrics::SemijoinPasses());
  EXPECT_EQ(Sorted(EvaluateCq(q, db, decomposition)), oracle);
  EXPECT_GT(metrics::Load(metrics::SemijoinPasses()), passes_before)
      << "EvaluateCq fell back to backtracking on a wide query";

  // Candidates with w0 inside the planted clique (answers) and outside
  // it (non-answers): the deciders agree on each.
  CqEvalOptions backtracking;
  backtracking.strategy = CqEvalStrategy::kBacktracking;
  size_t accepted = 0;
  size_t rejected = 0;
  for (uint32_t a : {0u, 1u, 7u, 8u}) {
    for (uint32_t b : {0u, 1u, 2u}) {
      Mapping seed({{w0, node(a)}, {hop2.variable_id(), node(b)}});
      bool expected = DecideNonEmpty(q.atoms, db, seed, backtracking);
      EXPECT_EQ(DecideNonEmpty(q.atoms, db, seed, decomposition), expected)
          << "w0 = n" << a << ", w_hop2 = n" << b;
      ++(expected ? accepted : rejected);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// Engine::Enumerate (projection-aware enumerator, sharded scatter-gather,
// answer cache) against p(D) by full maximal-homomorphism enumeration,
// with p_m(D) as MaximalMappings of it. Grid: semantics x shard count x
// cache on/off.
using EngineOracleParam = std::tuple<EvalSemantics, size_t, bool>;

class EngineOracleTest : public ::testing::TestWithParam<EngineOracleParam> {
 protected:
  void ExpectMatchesOracle(const PatternTree& tree, const Database& db,
                           const std::string& label) {
    const auto [semantics, shards, cache] = GetParam();
    Result<std::vector<Mapping>> oracle =
        EvaluateWdptByFullEnumeration(tree, db);
    ASSERT_TRUE(oracle.ok()) << label << ": " << oracle.status().ToString();
    std::vector<Mapping> expected = semantics == EvalSemantics::kMaximal
                                        ? Sorted(MaximalMappings(*oracle))
                                        : Sorted(*oracle);
    ASSERT_FALSE(expected.empty()) << label;

    EngineOptions engine_options;
    if (cache) engine_options.answer_cache_bytes = 4 << 20;
    Engine engine(engine_options);
    CallOptions options;
    options.semantics = semantics;
    if (cache) options.cache.generation = 1;
    options.shards = shards;
    // With the cache on, the second round is served from it.
    for (int round = 0; round < 2; ++round) {
      Result<std::vector<Mapping>> got = engine.Enumerate(tree, db, options);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      // Enumerate's contract is the canonical sorted order, so equality
      // here is bit-identity, not just same-set.
      ASSERT_EQ(*got, expected) << label << " round " << round;
    }
    if (cache) {
      EXPECT_GE(engine.stats().answer_cache_hits, 1u) << label;
    }
  }
};

TEST_P(EngineOracleTest, EnumerateMatchesFullEnumeration) {
  // Kept small: the oracle enumerates every maximal homomorphism.
  for (uint64_t seed : {21u, 22u, 23u, 24u}) {
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
    ExpectMatchesOracle(tree, db, "chain seed " + std::to_string(seed));
  }
  bench::Fig1Instance fig1(/*num_bands=*/40);
  ExpectMatchesOracle(fig1.tree, fig1.db, "Fig. 1");
}

TEST(WdptDifferentialTest, Fig1AnswersIdenticalAcrossKernels) {
  // End-to-end WDPT evaluation (Figure 1 catalog): the projection-aware
  // enumerator over the flat kernel, the sharded engine, and p(D) by
  // full maximal-homomorphism enumeration must produce the bit-identical
  // canonical answer vector.
  bench::Fig1Instance instance(/*num_bands=*/60);
  Result<std::vector<Mapping>> oracle =
      EvaluateWdptByFullEnumeration(instance.tree, instance.db);
  Result<std::vector<Mapping>> direct =
      EvaluateWdpt(instance.tree, instance.db);
  Engine engine;
  CallOptions sharded;
  sharded.shards = 4;
  Result<std::vector<Mapping>> engine_answers =
      engine.Enumerate(instance.tree, instance.db, sharded);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(engine_answers.ok()) << engine_answers.status().ToString();
  ASSERT_FALSE(direct->empty());
  // EvaluateWdpt's and Enumerate's contract is the canonical sorted
  // order, so equality here is bit-identity, not just same-set.
  ASSERT_EQ(*direct, Sorted(*oracle));
  ASSERT_EQ(*engine_answers, *direct);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineOracleTest,
    ::testing::Combine(::testing::Values(EvalSemantics::kStandard,
                                         EvalSemantics::kMaximal),
                       ::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<EngineOracleParam>& info) {
      return std::string(std::get<0>(info.param) == EvalSemantics::kMaximal
                             ? "Maximal"
                             : "Standard") +
             "_" + std::to_string(std::get<1>(info.param)) + "Shard" +
             (std::get<2>(info.param) ? "_Cache" : "_NoCache");
    });

}  // namespace
}  // namespace wdpt
