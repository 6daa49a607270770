// Primary→replica WAL-shipping tests (ctest label `replication`): a
// replica bootstrapped from the primary's snapshot and fed its WAL
// stream must serve answers bit-identical to local sequential
// evaluation of the same cumulative state — during live ingest, across
// torn streams (deterministic every-Nth-send resets), across a
// checkpoint that compacts the stream position away mid-subscription,
// and across a primary hard-kill + same-port restart. Also covered:
// writes against a replica answer kRedirect naming the primary, an
// empty primary bootstraps a working (empty) replica, and a replica
// held past --max-replica-lag sheds reads kOverloaded until it catches
// up, and on both sides every row of each stats field table reaches the
// STATS JSON and the METRICS text. See docs/REPLICATION.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/server/client.h"
#include "src/server/exec.h"
#include "src/server/fault.h"
#include "src/server/server.h"
#include "src/server/snapshot.h"
#include "src/sparql/request.h"
#include "src/storage/storage_manager.h"

namespace wdpt::server {
namespace {

constexpr const char* kFig1Triples =
    "Our_love recorded_by Caribou\n"
    "Our_love published after_2010\n"
    "Swim recorded_by Caribou\n"
    "Swim published after_2010\n"
    "Swim NME_rating 2\n"
    "Caribou formed_in 2007\n";

constexpr const char* kFig1Query =
    "SELECT ?rec ?band ?rating WHERE "
    "(((?rec, recorded_by, ?band) AND (?rec, published, after_2010)) "
    "OPT (?rec, NME_rating, ?rating))";

// The reference rows: the shared execution path run locally on an
// identical snapshot, no servers and no replication in the way.
std::vector<std::string> ExpectedRows(std::string_view triples,
                                      const std::string& query) {
  Engine engine(EngineOptions{1, 16});
  Result<std::shared_ptr<const Snapshot>> snapshot =
      LoadSnapshot(triples, /*version=*/1);
  WDPT_CHECK(snapshot.ok());
  sparql::QueryRequest request;
  request.query = query;
  Response response = ExecuteQuery(&engine, **snapshot, request);
  WDPT_CHECK(response.code == StatusCode::kOk);
  return response.rows;
}

// The k-th live batch, in triples form (for the expected-state text)
// and in INGEST ops form.
std::string BatchTriples(uint64_t k) {
  std::string rec = "live" + std::to_string(k);
  return rec + " recorded_by Caribou\n" + rec + " published after_2010\n";
}

std::string BatchOps(uint64_t k) {
  std::string rec = "live" + std::to_string(k);
  return "add " + rec + " recorded_by Caribou\nadd " + rec +
         " published after_2010\n";
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/wdpt_replication_test.XXXXXX";
    char* made = mkdtemp(tmpl);
    ASSERT_NE(made, nullptr);
    dir_ = made;
  }

  void TearDown() override {
    fault::Uninstall();
    std::string cmd = "rm -rf '" + dir_ + "'";
    std::system(cmd.c_str());
  }

  // A storage-backed primary over this test's data directory, seeded
  // from `triples` when the directory is still empty. port 0 =
  // ephemeral; a concrete port restarts a killed primary in place.
  std::unique_ptr<Server> StartPrimary(std::string_view triples,
                                       uint16_t port = 0) {
    storage::StorageOptions storage_options;
    storage_options.dir = dir_;
    Result<std::unique_ptr<storage::StorageManager>> manager =
        storage::StorageManager::Open(storage_options);
    WDPT_CHECK(manager.ok());
    if (!triples.empty() &&
        (*manager)->CurrentSnapshot()->db.TotalFacts() == 0) {
      WDPT_CHECK((*manager)->ImportTriples(triples).ok());
    }
    ServerOptions options;
    options.num_workers = 2;
    options.port = port;
    auto srv = std::make_unique<Server>(options);
    // A same-port restart can race the old listener's teardown.
    for (int attempt = 0; attempt < 50; ++attempt) {
      Status started = srv->StartWithStorage(std::move(*manager));
      if (started.ok()) return srv;
      WDPT_CHECK(port != 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      srv = std::make_unique<Server>(options);
      manager = storage::StorageManager::Open(storage_options);
      WDPT_CHECK(manager.ok());
    }
    WDPT_CHECK(false);
    return nullptr;
  }

  std::unique_ptr<Server> StartReplica(
      uint16_t primary_port, uint64_t max_lag_batches = 0,
      uint64_t apply_delay_ms = 0) {
    replication::ReplicatorOptions ropts;
    ropts.primary_host = "127.0.0.1";
    ropts.primary_port = primary_port;
    ropts.max_lag_batches = max_lag_batches;
    ropts.apply_delay_ms = apply_delay_ms;
    ropts.retry.max_attempts = 10;
    ServerOptions options;
    options.num_workers = 2;
    auto srv = std::make_unique<Server>(options);
    WDPT_CHECK(srv->StartReplica(ropts).ok());
    return srv;
  }

  std::string dir_;
};

// Polls until the replica publishes at least `version`; the stream is
// asynchronous, so every catch-up assertion goes through here.
bool WaitForVersion(const Server& replica, uint64_t version,
                    uint64_t timeout_ms = 10000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (replica.CurrentSnapshot()->version >= version) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

std::vector<std::string> QueryRows(uint16_t port, const std::string& query,
                                   StatusCode* code = nullptr) {
  Client client;
  WDPT_CHECK(client.Connect("127.0.0.1", port).ok());
  QueryCall call(query);
  Result<Response> response = client.Query(call);
  WDPT_CHECK(response.ok());
  if (code != nullptr) *code = response->code;
  return response->rows;
}

Result<Response> IngestOn(uint16_t port, const std::string& ops) {
  Client client;
  WDPT_CHECK(client.Connect("127.0.0.1", port).ok());
  return client.Ingest(ops);
}

TEST_F(ReplicationTest, BootstrapServesSeededDataBitIdentical) {
  std::unique_ptr<Server> primary = StartPrimary(kFig1Triples);
  std::unique_ptr<Server> replica = StartReplica(primary->port());
  std::vector<std::string> expected = ExpectedRows(kFig1Triples, kFig1Query);
  EXPECT_EQ(QueryRows(replica->port(), kFig1Query), expected);
  EXPECT_EQ(QueryRows(primary->port(), kFig1Query), expected);
  // The replica publishes the primary's exact version formula, so the
  // cluster agrees on answer-cache generations.
  EXPECT_EQ(replica->CurrentSnapshot()->version,
            primary->CurrentSnapshot()->version);
}

TEST_F(ReplicationTest, LiveIngestConvergesBitIdentical) {
  std::unique_ptr<Server> primary = StartPrimary(kFig1Triples);
  std::unique_ptr<Server> replica = StartReplica(primary->port());
  std::string cumulative = kFig1Triples;
  for (uint64_t k = 1; k <= 5; ++k) {
    Result<Response> applied = IngestOn(primary->port(), BatchOps(k));
    ASSERT_TRUE(applied.ok());
    ASSERT_EQ(applied->code, StatusCode::kOk);
    cumulative += BatchTriples(k);
  }
  ASSERT_TRUE(WaitForVersion(*replica, primary->CurrentSnapshot()->version));
  EXPECT_EQ(QueryRows(replica->port(), kFig1Query),
            ExpectedRows(cumulative, kFig1Query));
  replication::ReplicaReplicationStats stats = replica->replicator()->stats();
  EXPECT_EQ(stats.batches_applied, 5u);
  EXPECT_EQ(stats.lag_batches, 0u);
}

TEST_F(ReplicationTest, WritesRedirectToPrimary) {
  std::unique_ptr<Server> primary = StartPrimary(kFig1Triples);
  std::unique_ptr<Server> replica = StartReplica(primary->port());
  std::string primary_address =
      "127.0.0.1:" + std::to_string(primary->port());

  Result<Response> ingest = IngestOn(replica->port(), BatchOps(1));
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(ingest->code, StatusCode::kRedirect);
  EXPECT_EQ(ingest->primary, primary_address);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", replica->port()).ok());
  Result<Response> checkpoint = client.Checkpoint();
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint->code, StatusCode::kRedirect);
  Result<Response> reload = client.Reload("x y z\n");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->code, StatusCode::kRedirect);

  // The redirected write never forked the replica: it still serves the
  // primary's state, and the primary never saw batch 1.
  EXPECT_EQ(QueryRows(replica->port(), kFig1Query),
            ExpectedRows(kFig1Triples, kFig1Query));
}

TEST_F(ReplicationTest, EmptyPrimaryBootstrapsAndStreams) {
  std::unique_ptr<Server> primary = StartPrimary("");
  std::unique_ptr<Server> replica = StartReplica(primary->port());
  EXPECT_EQ(replica->CurrentSnapshot()->db.TotalFacts(), 0u);
  ASSERT_EQ(IngestOn(primary->port(), BatchOps(1))->code, StatusCode::kOk);
  ASSERT_TRUE(WaitForVersion(*replica, primary->CurrentSnapshot()->version));
  EXPECT_EQ(QueryRows(replica->port(), kFig1Query),
            ExpectedRows(BatchTriples(1), kFig1Query));
}

// The flat object under `"section":{` in a STATS reply; empty when the
// section is absent. Sections hold numbers only, so the first '}'
// closes it.
std::string StatsSection(const std::string& stats_json,
                         const std::string& section) {
  size_t at = stats_json.find("\"" + section + "\":{");
  if (at == std::string::npos) return "";
  size_t open = stats_json.find('{', at);
  return stats_json.substr(open, stats_json.find('}', open) - open + 1);
}

// Every row of `fields` is rendered: its key once in the STATS section,
// and its family (if any) as a typed METRICS sample.
template <typename Stats, size_t N>
void ExpectFieldsRendered(const std::string& stats_json,
                          const std::string& section,
                          const std::string& metrics_text,
                          const metrics::StatField<Stats> (&fields)[N]) {
  std::string object = StatsSection(stats_json, section);
  ASSERT_FALSE(object.empty()) << "no \"" << section << "\" in "
                               << stats_json;
  EXPECT_EQ(static_cast<size_t>(
                std::count(object.begin(), object.end(), ':')),
            N)
      << object;
  for (const metrics::StatField<Stats>& field : fields) {
    EXPECT_NE(object.find("\"" + std::string(field.key) + "\":"),
              std::string::npos)
        << section << " lacks " << field.key << ": " << object;
    if (field.family == nullptr) continue;
    std::string family = field.family;
    std::string kind = family.ends_with("_total") ? "counter" : "gauge";
    EXPECT_NE(metrics_text.find("# TYPE " + family + " " + kind + "\n" +
                                family + " "),
              std::string::npos)
        << family << " missing from METRICS";
  }
}

TEST_F(ReplicationTest, EveryFieldTableRowReachesStatsAndMetrics) {
  std::unique_ptr<Server> primary = StartPrimary(kFig1Triples);
  std::unique_ptr<Server> replica = StartReplica(primary->port());
  ASSERT_EQ(IngestOn(primary->port(), BatchOps(1))->code, StatusCode::kOk);
  ASSERT_TRUE(WaitForVersion(*replica, primary->CurrentSnapshot()->version));

  for (Server* srv : {primary.get(), replica.get()}) {
    bool is_primary = srv == primary.get();
    SCOPED_TRACE(is_primary ? "primary" : "replica");
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
    Result<Response> stats = client.Stats();
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->code, StatusCode::kOk);
    std::string text = srv->MetricsText();
    ExpectFieldsRendered(stats->stats_json, "engine", text,
                         kEngineStatsFields);
    ExpectFieldsRendered(stats->stats_json, "server", text,
                         kServerCounterFields);
    if (is_primary) {
      ExpectFieldsRendered(stats->stats_json, "storage", text,
                           storage::kStorageStatsFields);
      ExpectFieldsRendered(stats->stats_json, "replication", text,
                           replication::kPrimaryReplicationFields);
      EXPECT_NE(stats->stats_json.find("\"replication\":{\"role\":0,"),
                std::string::npos);
    } else {
      EXPECT_EQ(StatsSection(stats->stats_json, "storage"), "");
      ExpectFieldsRendered(stats->stats_json, "replication", text,
                           replication::kReplicaReplicationFields);
      EXPECT_NE(stats->stats_json.find("\"replication\":{\"role\":1,"),
                std::string::npos);
    }
  }
}

TEST_F(ReplicationTest, CheckpointMidStreamForcesSnapshotResync) {
  std::unique_ptr<Server> primary = StartPrimary(kFig1Triples);
  std::unique_ptr<Server> replica = StartReplica(primary->port());
  ASSERT_EQ(IngestOn(primary->port(), BatchOps(1))->code, StatusCode::kOk);
  ASSERT_TRUE(WaitForVersion(*replica, primary->CurrentSnapshot()->version));
  uint64_t fetches_before = replica->replicator()->stats().snapshot_fetches;

  // CHECKPOINT advances the epoch and clears the hub's backlog: the
  // live subscription is now unservable and must re-bootstrap.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary->port()).ok());
  ASSERT_EQ(client.Checkpoint()->code, StatusCode::kOk);
  ASSERT_EQ(IngestOn(primary->port(), BatchOps(2))->code, StatusCode::kOk);

  ASSERT_TRUE(WaitForVersion(*replica, primary->CurrentSnapshot()->version));
  std::string cumulative =
      std::string(kFig1Triples) + BatchTriples(1) + BatchTriples(2);
  EXPECT_EQ(QueryRows(replica->port(), kFig1Query),
            ExpectedRows(cumulative, kFig1Query));
  replication::ReplicaReplicationStats stats = replica->replicator()->stats();
  EXPECT_GE(stats.resyncs, 1u);
  EXPECT_GT(stats.snapshot_fetches, fetches_before);
  EXPECT_EQ(stats.epoch, 2u);
}

TEST_F(ReplicationTest, TornStreamResyncsToAckedPrefixAndConverges) {
  std::unique_ptr<Server> primary = StartPrimary(kFig1Triples);
  std::unique_ptr<Server> replica = StartReplica(primary->port());
  ASSERT_TRUE(WaitForVersion(*replica, primary->CurrentSnapshot()->version));

  // Tear every 4th send, deterministically: WALSEG frames, heartbeats,
  // and ingest acks all get shredded, and the replica must resubscribe
  // from its last applied offset each time.
  fault::Options faults;
  faults.seed = 7;
  faults.reset_send_every = 4;
  fault::Install(faults);

  // INGEST is never auto-retried; under injected resets the ack may
  // tear after the WAL append, so resolve each batch's fate via the
  // primary's durable version before moving on. Fresh connection per
  // attempt: a torn one stays dead.
  std::string cumulative = kFig1Triples;
  auto ingest_batch = [&](uint64_t k) {
    uint64_t want_version = primary->CurrentSnapshot()->version + 1;
    for (int attempt = 0; attempt < 20; ++attempt) {
      Client writer;
      writer.Connect("127.0.0.1", primary->port());
      Result<Response> applied = writer.Ingest(BatchOps(k));
      if (applied.ok() && applied->code == StatusCode::kOk) break;
      if (primary->CurrentSnapshot()->version >= want_version) break;
    }
    ASSERT_GE(primary->CurrentSnapshot()->version, want_version);
    cumulative += BatchTriples(k);
  };
  for (uint64_t k = 1; k <= 4; ++k) ingest_batch(k);

  // The tear schedule keeps consuming send slots through the stream's
  // 250ms heartbeats, so within a few seconds some WALSEG or heartbeat
  // send is torn mid-frame and the replica must resync.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (replica->replicator()->stats().resyncs == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(replica->replicator()->stats().resyncs, 1u);

  // Post-resync ingest must flow down the re-established stream.
  for (uint64_t k = 5; k <= 8; ++k) ingest_batch(k);

  // Convergence is checked in-process: the client path is also faulted
  // while the injector is installed.
  ASSERT_TRUE(WaitForVersion(*replica, primary->CurrentSnapshot()->version));
  EXPECT_EQ(replica->replicator()->stats().lag_batches, 0u);

  fault::Uninstall();
  EXPECT_EQ(QueryRows(replica->port(), kFig1Query),
            ExpectedRows(cumulative, kFig1Query));
  EXPECT_EQ(QueryRows(replica->port(), kFig1Query),
            QueryRows(primary->port(), kFig1Query));
}

TEST_F(ReplicationTest, PrimaryRestartStreamRejoins) {
  std::unique_ptr<Server> primary = StartPrimary(kFig1Triples);
  uint16_t primary_port = primary->port();
  std::unique_ptr<Server> replica = StartReplica(primary_port);
  ASSERT_EQ(IngestOn(primary_port, BatchOps(1))->code, StatusCode::kOk);
  ASSERT_TRUE(WaitForVersion(*replica, primary->CurrentSnapshot()->version));

  // Hard kill (no drain) and restart on the same port: the storage
  // manager replays its WAL and republishes the identical epoch and
  // offsets, so the replica's re-subscription picks up where it left
  // off — no snapshot fetch needed.
  uint64_t fetches_before = replica->replicator()->stats().snapshot_fetches;
  primary->Stop();
  primary.reset();
  primary = StartPrimary(kFig1Triples, primary_port);
  ASSERT_EQ(IngestOn(primary_port, BatchOps(2))->code, StatusCode::kOk);

  ASSERT_TRUE(WaitForVersion(*replica, primary->CurrentSnapshot()->version));
  std::string cumulative =
      std::string(kFig1Triples) + BatchTriples(1) + BatchTriples(2);
  EXPECT_EQ(QueryRows(replica->port(), kFig1Query),
            ExpectedRows(cumulative, kFig1Query));
  replication::ReplicaReplicationStats stats = replica->replicator()->stats();
  EXPECT_GE(stats.resyncs, 1u);
  EXPECT_EQ(stats.snapshot_fetches, fetches_before);
}

TEST_F(ReplicationTest, LaggingReplicaShedsReadsUntilCaughtUp) {
  std::unique_ptr<Server> primary = StartPrimary(kFig1Triples);
  // Every apply stalls 150ms and reads shed once more than one batch
  // is waiting, so a quick burst of ingests reliably trips the bound.
  std::unique_ptr<Server> replica =
      StartReplica(primary->port(), /*max_lag_batches=*/1,
                   /*apply_delay_ms=*/150);
  std::string cumulative = kFig1Triples;
  for (uint64_t k = 1; k <= 6; ++k) {
    ASSERT_EQ(IngestOn(primary->port(), BatchOps(k))->code, StatusCode::kOk);
    cumulative += BatchTriples(k);
  }

  // Lag builds as the stamped head sequence runs ahead of the stalled
  // apply loop; poll until the shed fires (the apply tail is ~900ms,
  // so a shed window is guaranteed well before the deadline).
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", replica->port()).ok());
  QueryCall call(kFig1Query);
  bool shed_seen = false;
  for (int i = 0; i < 100 && !shed_seen; ++i) {
    Result<Response> response = client.Query(call);
    ASSERT_TRUE(response.ok());
    if (response->code == StatusCode::kOverloaded) {
      shed_seen = true;
      EXPECT_GT(response->retry_after_ms, 0u);
      EXPECT_NE(response->message.find("lagging"), std::string::npos);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(shed_seen);

  // Once the stream drains the shed lifts and the answers are current.
  ASSERT_TRUE(WaitForVersion(*replica, primary->CurrentSnapshot()->version));
  Result<Response> served = client.Query(call);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->code, StatusCode::kOk);
  EXPECT_EQ(served->rows, ExpectedRows(cumulative, kFig1Query));
  EXPECT_GE(replica->lag_sheds(), 1u);
}

}  // namespace
}  // namespace wdpt::server
