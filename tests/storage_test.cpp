// Tests for the durable storage subsystem (ctest label `storage`):
// binary snapshot round-trips and checksum rejection, WAL append /
// replay / torn-tail truncation, StorageManager open-ingest-checkpoint-
// recover differentials (recovered answers must be bit-identical to a
// reference built from the acked writes alone), a fork+SIGKILL crash
// test that kills the process mid-ingest stream, wire-level INGEST /
// CHECKPOINT through a storage-backed server, and CHECKPOINT under live
// query traffic (no torn reads; runs under tsan).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/server/client.h"
#include "src/server/exec.h"
#include "src/server/server.h"
#include "src/server/snapshot.h"
#include "src/storage/checksum.h"
#include "src/storage/snapshot_file.h"
#include "src/storage/storage_manager.h"
#include "src/storage/wal.h"

namespace wdpt::storage {
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

// A fresh temp directory per test; recursively removed on teardown.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/wdpt_storage_test.XXXXXX";
    char* made = mkdtemp(tmpl);
    ASSERT_NE(made, nullptr);
    dir_ = made;
  }

  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    std::system(cmd.c_str());
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

std::string ReadFileBytes(const std::string& path) {
  std::string out;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// The answer rows a snapshot produces for `query` — the differential
// oracle used throughout: two stores are "the same" iff their rows are
// bit-identical.
std::vector<std::string> RowsFor(const server::Snapshot& snapshot,
                                 const std::string& query) {
  Engine engine(EngineOptions{1, 16});
  sparql::QueryRequest request;
  request.query = query;
  server::Response response = server::ExecuteQuery(&engine, snapshot, request);
  EXPECT_EQ(response.code, StatusCode::kOk) << response.message;
  return response.rows;
}

TEST(Checksum, MatchesKnownProperties) {
  // Self-consistency: stable across calls, sensitive to every byte and
  // to the seed.
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint64_t h = Checksum64(data);
  EXPECT_EQ(h, Checksum64(data));
  EXPECT_NE(h, Checksum64(data, 1));
  std::string flipped = data;
  flipped[7] ^= 1;
  EXPECT_NE(h, Checksum64(flipped));
  EXPECT_NE(Checksum64(""), Checksum64("\0", 1));
}

TEST_F(StorageTest, SnapshotFileRoundTripIsBitIdenticalUnderQuery) {
  Result<std::shared_ptr<const server::Snapshot>> original =
      server::LoadSnapshot(kFig1Triples, /*version=*/1);
  ASSERT_TRUE(original.ok());

  SnapshotFileInfo written;
  ASSERT_TRUE(WriteSnapshotFile(Path("snap.wdpt"), (*original)->ctx,
                                (*original)->db, &written)
                  .ok());
  EXPECT_EQ(written.facts, 6u);
  EXPECT_GT(written.file_bytes, 40u);

  RdfContext ctx;
  Database db = ctx.MakeDatabase();
  SnapshotFileInfo read;
  ASSERT_TRUE(ReadSnapshotFile(Path("snap.wdpt"), &ctx, &db, &read).ok());
  EXPECT_EQ(read.facts, written.facts);
  EXPECT_EQ(db.TotalFacts(), 6u);

  Result<std::shared_ptr<const server::Snapshot>> reloaded =
      server::MakeSnapshot(ctx, db, /*version=*/1);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(RowsFor(**reloaded, kFig1Query), RowsFor(**original, kFig1Query));
}

TEST_F(StorageTest, MissingSnapshotFileIsNotFound) {
  RdfContext ctx;
  Database db = ctx.MakeDatabase();
  Status status = ReadSnapshotFile(Path("absent.wdpt"), &ctx, &db);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, CorruptSnapshotBytesAreRejectedWithClearError) {
  Result<std::shared_ptr<const server::Snapshot>> original =
      server::LoadSnapshot(kFig1Triples, /*version=*/1);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(WriteSnapshotFile(Path("snap.wdpt"), (*original)->ctx,
                                (*original)->db)
                  .ok());
  std::string bytes = ReadFileBytes(Path("snap.wdpt"));
  ASSERT_GT(bytes.size(), 48u);

  // Flip one body byte: the checksum check must catch it.
  std::string body_flip = bytes;
  body_flip[44] ^= 0x40;
  WriteFileBytes(Path("flip.wdpt"), body_flip);
  RdfContext ctx1;
  Database db1 = ctx1.MakeDatabase();
  Status corrupt = ReadSnapshotFile(Path("flip.wdpt"), &ctx1, &db1);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.code(), StatusCode::kParseError);
  EXPECT_NE(corrupt.ToString().find("checksum"), std::string::npos)
      << corrupt.ToString();
  EXPECT_NE(corrupt.ToString().find("flip.wdpt"), std::string::npos);

  // Wrong magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteFileBytes(Path("magic.wdpt"), bad_magic);
  RdfContext ctx2;
  Database db2 = ctx2.MakeDatabase();
  Status magic = ReadSnapshotFile(Path("magic.wdpt"), &ctx2, &db2);
  ASSERT_FALSE(magic.ok());
  EXPECT_EQ(magic.code(), StatusCode::kParseError);

  // Truncated mid-body.
  WriteFileBytes(Path("short.wdpt"), bytes.substr(0, bytes.size() - 5));
  RdfContext ctx3;
  Database db3 = ctx3.MakeDatabase();
  EXPECT_EQ(ReadSnapshotFile(Path("short.wdpt"), &ctx3, &db3).code(),
            StatusCode::kParseError);
}

TEST(IngestBody, ParsesOpsAndRejectsMalformedLines) {
  Result<std::vector<TripleOp>> ops = ParseIngestBody(
      "add a p b\n"
      "# comment\n"
      "\n"
      "remove c q d\n");
  ASSERT_TRUE(ops.ok());
  ASSERT_EQ(ops->size(), 2u);
  EXPECT_EQ((*ops)[0].kind, TripleOpKind::kAdd);
  EXPECT_EQ((*ops)[0].s, "a");
  EXPECT_EQ((*ops)[1].kind, TripleOpKind::kRemove);
  EXPECT_EQ((*ops)[1].o, "d");

  EXPECT_FALSE(ParseIngestBody("frob a p b\n").ok());
  EXPECT_FALSE(ParseIngestBody("add a p\n").ok());
  EXPECT_FALSE(ParseIngestBody("add a p b extra\n").ok());
  EXPECT_FALSE(ParseIngestBody("").ok());  // No-op batches are rejected.
}

TEST_F(StorageTest, WalAppendReplayRoundTrip) {
  std::vector<TripleOp> batch1 = {{TripleOpKind::kAdd, "a", "p", "b"},
                                  {TripleOpKind::kAdd, "c", "p", "d"}};
  std::vector<TripleOp> batch2 = {{TripleOpKind::kRemove, "a", "p", "b"}};
  {
    Result<std::unique_ptr<WalWriter>> wal =
        WalWriter::Open(Path("wal.log"), /*fsync_on_append=*/false);
    ASSERT_TRUE(wal.ok());
    uint64_t entry_bytes = 0;
    ASSERT_TRUE((*wal)->Append(batch1, &entry_bytes).ok());
    EXPECT_GT(entry_bytes, 12u);
    ASSERT_TRUE((*wal)->Append(batch2).ok());
    EXPECT_GT((*wal)->bytes(), entry_bytes);
  }
  std::vector<TripleOp> replayed;
  Result<WalRecovery> recovery =
      ReplayWal(Path("wal.log"), [&](const std::vector<TripleOp>& ops) {
        replayed.insert(replayed.end(), ops.begin(), ops.end());
      });
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->entries, 2u);
  EXPECT_EQ(recovery->ops, 3u);
  EXPECT_EQ(recovery->truncated_bytes, 0u);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[2].kind, TripleOpKind::kRemove);
  EXPECT_EQ(replayed[0].s, "a");
}

TEST_F(StorageTest, MissingWalIsAnEmptyLog) {
  Result<WalRecovery> recovery =
      ReplayWal(Path("absent.log"), [](const std::vector<TripleOp>&) {});
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->entries, 0u);
  EXPECT_EQ(recovery->valid_bytes, 0u);
}

TEST_F(StorageTest, TornWalTailIsTruncatedAndLogStaysAppendable) {
  std::vector<TripleOp> batch = {{TripleOpKind::kAdd, "a", "p", "b"}};
  {
    Result<std::unique_ptr<WalWriter>> wal =
        WalWriter::Open(Path("wal.log"), false);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(batch).ok());
  }
  std::string intact = ReadFileBytes(Path("wal.log"));
  ASSERT_FALSE(intact.empty());

  // Simulate a crash mid-append: a second entry whose tail never made
  // it to disk (half the bytes of a valid entry).
  std::string torn = intact + intact.substr(0, intact.size() / 2);
  WriteFileBytes(Path("wal.log"), torn);

  uint64_t entries = 0;
  Result<WalRecovery> recovery =
      ReplayWal(Path("wal.log"), [&](const std::vector<TripleOp>&) {
        ++entries;
      });
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(recovery->valid_bytes, intact.size());
  EXPECT_EQ(recovery->truncated_bytes, torn.size() - intact.size());
  // The tail was physically truncated.
  EXPECT_EQ(ReadFileBytes(Path("wal.log")).size(), intact.size());

  // Appending after recovery yields a log that replays in full.
  {
    Result<std::unique_ptr<WalWriter>> wal =
        WalWriter::Open(Path("wal.log"), false);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(batch).ok());
  }
  entries = 0;
  recovery = ReplayWal(Path("wal.log"),
                       [&](const std::vector<TripleOp>&) { ++entries; });
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(entries, 2u);
  EXPECT_EQ(recovery->truncated_bytes, 0u);
}

TEST_F(StorageTest, CorruptedWalEntryStopsReplayAtThePriorEntry) {
  std::vector<TripleOp> batch = {{TripleOpKind::kAdd, "a", "p", "b"}};
  {
    Result<std::unique_ptr<WalWriter>> wal =
        WalWriter::Open(Path("wal.log"), false);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(batch).ok());
    ASSERT_TRUE((*wal)->Append(batch).ok());
  }
  std::string bytes = ReadFileBytes(Path("wal.log"));
  // Flip a payload byte of the *second* entry: its checksum fails, so
  // replay keeps entry 1 and truncates entry 2.
  bytes[bytes.size() - 2] ^= 0x10;
  WriteFileBytes(Path("wal.log"), bytes);

  uint64_t entries = 0;
  Result<WalRecovery> recovery =
      ReplayWal(Path("wal.log"),
                [&](const std::vector<TripleOp>&) { ++entries; });
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(recovery->truncated_bytes, bytes.size() / 2);
}

TEST_F(StorageTest, ManagerSeedsIngestsCheckpointsAndRecovers) {
  StorageOptions options;
  options.dir = Path("store");

  std::vector<std::string> rows_after_ingest;
  {
    Result<std::unique_ptr<StorageManager>> manager =
        StorageManager::Open(options);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    EXPECT_EQ((*manager)->CurrentSnapshot()->db.TotalFacts(), 0u);
    ASSERT_TRUE((*manager)->ImportTriples(kFig1Triples).ok());
    EXPECT_EQ((*manager)->CurrentSnapshot()->db.TotalFacts(), 6u);
    // Re-seeding a non-empty store is refused.
    EXPECT_FALSE((*manager)->ImportTriples(kFig1Triples).ok());

    Result<std::vector<TripleOp>> ops = ParseIngestBody(
        "add Odessa recorded_by Caribou\n"
        "add Odessa published after_2010\n"
        "remove Swim NME_rating 2\n");
    ASSERT_TRUE(ops.ok());
    Result<IngestResult> applied = (*manager)->Ingest(*ops);
    ASSERT_TRUE(applied.ok());
    EXPECT_EQ(applied->added, 2u);
    EXPECT_EQ(applied->removed, 1u);
    EXPECT_EQ(applied->facts, 7u);
    rows_after_ingest =
        RowsFor(*(*manager)->CurrentSnapshot(), kFig1Query);
    EXPECT_FALSE(rows_after_ingest.empty());

    // Acked no-ops: adding a present triple, removing an absent one.
    Result<std::vector<TripleOp>> noop =
        ParseIngestBody("add Odessa recorded_by Caribou\nremove x y z\n");
    ASSERT_TRUE(noop.ok());
    Result<IngestResult> acked = (*manager)->Ingest(*noop);
    ASSERT_TRUE(acked.ok());
    EXPECT_EQ(acked->added, 0u);
    EXPECT_EQ(acked->removed, 0u);
    EXPECT_EQ(acked->facts, 7u);
  }

  // Reopen: snapshot.001 (the seed) + WAL replay must reproduce the
  // exact pre-crash answers.
  {
    Result<std::unique_ptr<StorageManager>> manager =
        StorageManager::Open(options);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    EXPECT_EQ((*manager)->CurrentSnapshot()->db.TotalFacts(), 7u);
    EXPECT_EQ(RowsFor(*(*manager)->CurrentSnapshot(), kFig1Query),
              rows_after_ingest);
    StorageStats stats = (*manager)->stats();
    // Two ingest batches were appended, so recovery replays 2 WAL
    // entries holding 5 ops total.
    EXPECT_EQ(stats.replays, 2u);
    EXPECT_EQ(stats.replayed_ops, 5u);

    // Checkpoint compacts the WAL into snapshot.002.
    Result<CheckpointResult> checkpoint = (*manager)->Checkpoint();
    ASSERT_TRUE(checkpoint.ok());
    EXPECT_EQ(checkpoint->snapshot_seq, 2u);
    EXPECT_EQ(checkpoint->facts, 7u);
    EXPECT_GT(checkpoint->wal_bytes_compacted, 0u);
    EXPECT_EQ((*manager)->stats().wal_backlog_bytes, 0u);
  }

  // Reopen after the checkpoint: same answers from the binary file
  // alone (the WAL is empty now).
  {
    Result<std::unique_ptr<StorageManager>> manager =
        StorageManager::Open(options);
    ASSERT_TRUE(manager.ok());
    EXPECT_EQ((*manager)->stats().replayed_ops, 0u);
    EXPECT_EQ(RowsFor(*(*manager)->CurrentSnapshot(), kFig1Query),
              rows_after_ingest);
  }
}

TEST_F(StorageTest, CorruptSnapshotFileFailsOpenInsteadOfServingGarbage) {
  StorageOptions options;
  options.dir = Path("store");
  {
    Result<std::unique_ptr<StorageManager>> manager =
        StorageManager::Open(options);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE((*manager)->ImportTriples(kFig1Triples).ok());
  }
  std::string snap = Path("store") + "/snapshot.001.wdpt";
  std::string bytes = ReadFileBytes(snap);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFileBytes(snap, bytes);

  Result<std::unique_ptr<StorageManager>> reopened =
      StorageManager::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kParseError);
}

TEST_F(StorageTest, AutoCheckpointTriggersOnWalGrowth) {
  StorageOptions options;
  options.dir = Path("store");
  options.checkpoint_wal_bytes = 1;  // Every ingest crosses the bar.
  Result<std::unique_ptr<StorageManager>> manager =
      StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());
  Result<std::vector<TripleOp>> ops = ParseIngestBody("add a p b\n");
  ASSERT_TRUE(ops.ok());
  ASSERT_TRUE((*manager)->Ingest(*ops).ok());
  StorageStats stats = (*manager)->stats();
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.wal_backlog_bytes, 0u);
  EXPECT_EQ(stats.snapshot_seq, 1u);
}

// Differential crash-recovery: a child process ingests batch after
// batch, reporting each *acked* batch index through a pipe; the parent
// SIGKILLs it mid-stream, reopens the directory, and verifies the
// recovered store contains every acked batch — by running the oracle
// query and comparing bit-identical against a reference store built
// from the acked prefix alone. Fork does not mix with tsan/asan
// runtimes, so the test self-skips there; the in-process torn-tail
// tests above cover the same truncation logic under the sanitizers.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define WDPT_STORAGE_NO_FORK 1
#endif
#endif
#if !defined(WDPT_STORAGE_NO_FORK) && defined(__SANITIZE_THREAD__)
#define WDPT_STORAGE_NO_FORK 1
#endif
#if !defined(WDPT_STORAGE_NO_FORK) && defined(__SANITIZE_ADDRESS__)
#define WDPT_STORAGE_NO_FORK 1
#endif

TEST_F(StorageTest, SigkillMidIngestRecoversExactlyTheAckedWrites) {
#ifdef WDPT_STORAGE_NO_FORK
  GTEST_SKIP() << "fork-based crash test disabled under sanitizers";
#else
  StorageOptions options;
  options.dir = Path("store");
  {
    Result<std::unique_ptr<StorageManager>> seeded =
        StorageManager::Open(options);
    ASSERT_TRUE(seeded.ok());
    ASSERT_TRUE((*seeded)->ImportTriples(kFig1Triples).ok());
  }

  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: ingest batches forever, writing each acked batch index to
    // the pipe *after* Ingest returns Ok (the ack point). _exit on any
    // failure so gtest machinery never runs in the child.
    close(pipe_fds[0]);
    Result<std::unique_ptr<StorageManager>> manager =
        StorageManager::Open(options);
    if (!manager.ok()) _exit(3);
    for (uint32_t i = 0;; ++i) {
      std::vector<TripleOp> batch = {
          {TripleOpKind::kAdd, "rec" + std::to_string(i), "recorded_by",
           "band" + std::to_string(i % 7)},
          {TripleOpKind::kAdd, "rec" + std::to_string(i), "published",
           "after_2010"}};
      if (!(*manager)->Ingest(batch).ok()) _exit(4);
      if (write(pipe_fds[1], &i, sizeof(i)) != sizeof(i)) _exit(5);
    }
  }
  close(pipe_fds[1]);

  // Parent: let a few acks accumulate, then kill without warning.
  std::vector<uint32_t> acked;
  uint32_t index = 0;
  while (acked.size() < 25 &&
         read(pipe_fds[0], &index, sizeof(index)) == sizeof(index)) {
    acked.push_back(index);
  }
  ASSERT_GE(acked.size(), 25u);
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  // Drain acks the child emitted between our last read and the kill:
  // they were acked too and must also survive.
  while (read(pipe_fds[0], &index, sizeof(index)) == sizeof(index)) {
    acked.push_back(index);
  }
  close(pipe_fds[0]);

  Result<std::unique_ptr<StorageManager>> recovered =
      StorageManager::Open(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const server::Snapshot& snapshot = *(*recovered)->CurrentSnapshot();

  // Reference: a fresh store fed the seed plus exactly the acked
  // batches. The recovered store may additionally hold the one batch
  // that was applied but whose ack never left the pipe — it was on the
  // WAL, so recovering it is correct; anything *acked* missing is not.
  StorageOptions ref_options;
  ref_options.dir = Path("reference");
  Result<std::unique_ptr<StorageManager>> reference =
      StorageManager::Open(ref_options);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE((*reference)->ImportTriples(kFig1Triples).ok());
  for (uint32_t i : acked) {
    std::vector<TripleOp> batch = {
        {TripleOpKind::kAdd, "rec" + std::to_string(i), "recorded_by",
         "band" + std::to_string(i % 7)},
        {TripleOpKind::kAdd, "rec" + std::to_string(i), "published",
         "after_2010"}};
    ASSERT_TRUE((*reference)->Ingest(batch).ok());
  }
  uint64_t recovered_facts = snapshot.db.TotalFacts();
  uint64_t reference_facts =
      (*reference)->CurrentSnapshot()->db.TotalFacts();
  EXPECT_GE(recovered_facts, reference_facts);
  EXPECT_LE(recovered_facts, reference_facts + 2);  // One unacked batch.

  if (recovered_facts == reference_facts) {
    // No in-flight batch at the kill: the stores must answer
    // bit-identically.
    EXPECT_EQ(RowsFor(snapshot, kFig1Query),
              RowsFor(*(*reference)->CurrentSnapshot(), kFig1Query));
  } else {
    // One batch beyond the acked prefix: replay it onto the reference
    // and the stores must then agree exactly.
    uint32_t next = acked.back() + 1;
    std::vector<TripleOp> batch = {
        {TripleOpKind::kAdd, "rec" + std::to_string(next), "recorded_by",
         "band" + std::to_string(next % 7)},
        {TripleOpKind::kAdd, "rec" + std::to_string(next), "published",
         "after_2010"}};
    ASSERT_TRUE((*reference)->Ingest(batch).ok());
    EXPECT_EQ(RowsFor(snapshot, kFig1Query),
              RowsFor(*(*reference)->CurrentSnapshot(), kFig1Query));
  }
#endif
}

TEST_F(StorageTest, WireIngestAndCheckpointThroughStorageBackedServer) {
  StorageOptions storage_options;
  storage_options.dir = Path("store");
  Result<std::unique_ptr<StorageManager>> manager =
      StorageManager::Open(storage_options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->ImportTriples(kFig1Triples).ok());

  server::ServerOptions options;
  server::Server srv(options);
  ASSERT_TRUE(srv.StartWithStorage(std::move(*manager)).ok());

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());

  // RELOAD is rejected on a storage-backed server.
  Result<server::Response> reload = client.Reload(kFig1Triples);
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->code, StatusCode::kInvalidArgument);
  EXPECT_NE(reload->message.find("INGEST"), std::string::npos);

  // INGEST applies and is immediately visible to queries.
  Result<server::Response> ingest = client.Ingest(
      "add Odessa recorded_by Caribou\nadd Odessa published after_2010\n");
  ASSERT_TRUE(ingest.ok());
  ASSERT_EQ(ingest->code, StatusCode::kOk) << ingest->message;
  EXPECT_NE(ingest->message.find("2 adds"), std::string::npos);

  Result<server::Response> query =
      client.Query(server::QueryCall(kFig1Query));
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->code, StatusCode::kOk);
  bool found = false;
  for (const std::string& row : query->rows) {
    if (row.find("Odessa") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);

  // A malformed body is rejected without touching the store.
  Result<server::Response> bad = client.Ingest("frobnicate a b c\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->code, StatusCode::kInvalidArgument);

  // CHECKPOINT compacts; answers are unchanged.
  Result<server::Response> checkpoint = client.Checkpoint();
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_EQ(checkpoint->code, StatusCode::kOk) << checkpoint->message;
  Result<server::Response> after =
      client.Query(server::QueryCall(kFig1Query));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows, query->rows);

  // Counters and metrics reflect the writes.
  server::ServerCounters counters = srv.counters();
  EXPECT_EQ(counters.ingests, 1u);
  EXPECT_EQ(counters.checkpoints, 1u);
  std::string metrics = srv.MetricsText();
  EXPECT_NE(metrics.find("wdpt_storage_wal_appends_total"),
            std::string::npos);
  // The storage-level counter includes the checkpoint ImportTriples
  // performs when seeding; the server-level command counter does not.
  EXPECT_NE(metrics.find("wdpt_storage_checkpoints_total 2"),
            std::string::npos);
  EXPECT_NE(metrics.find("wdpt_server_checkpoints_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("wdpt_storage_ingest_duration_seconds"),
            std::string::npos);

  srv.Stop();
}

// On a storage-backed server every INGEST publishes through the
// manager: the snapshot-version gauge must follow it, and the snapshot
// the server started on must be released once nothing reads it.
TEST_F(StorageTest, SnapshotVersionGaugeFollowsIngests) {
  StorageOptions storage_options;
  storage_options.dir = Path("store");
  Result<std::unique_ptr<StorageManager>> manager =
      StorageManager::Open(storage_options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->ImportTriples(kFig1Triples).ok());

  server::Server srv((server::ServerOptions()));
  ASSERT_TRUE(srv.StartWithStorage(std::move(*manager)).ok());
  std::weak_ptr<const server::Snapshot> startup = srv.CurrentSnapshot();
  uint64_t startup_version = startup.lock()->version;

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  Result<server::Response> ingest =
      client.Ingest("add Odessa recorded_by Caribou\n");
  ASSERT_TRUE(ingest.ok());
  ASSERT_EQ(ingest->code, StatusCode::kOk) << ingest->message;

  uint64_t version = srv.CurrentSnapshot()->version;
  EXPECT_GT(version, startup_version);
  std::string metrics = srv.MetricsText();
  EXPECT_NE(metrics.find("\nwdpt_server_snapshot_version " +
                         std::to_string(version) + "\n"),
            std::string::npos)
      << metrics;
  EXPECT_TRUE(startup.expired());

  srv.Stop();
}

TEST_F(StorageTest, IngestOnTextLoadedServerIsRejected) {
  Result<std::shared_ptr<const server::Snapshot>> snapshot =
      server::LoadSnapshot(kFig1Triples, 1);
  ASSERT_TRUE(snapshot.ok());
  server::Server srv((server::ServerOptions()));
  ASSERT_TRUE(srv.Start(std::move(*snapshot)).ok());
  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  Result<server::Response> ingest = client.Ingest("add a p b\n");
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(ingest->code, StatusCode::kInvalidArgument);
  EXPECT_NE(ingest->message.find("--data-dir"), std::string::npos);
  EXPECT_EQ(client.Checkpoint()->code, StatusCode::kInvalidArgument);
  srv.Stop();
}

// Checkpoints and ingests under live query traffic must never tear a
// read: every response is either a complete pre-batch or complete
// post-batch answer. Runs under tsan (the storage label is in the tsan
// preset), where a torn publication would be a reported race.
TEST_F(StorageTest, CheckpointUnderLiveTrafficNeverTearsARead) {
  StorageOptions storage_options;
  storage_options.dir = Path("store");
  Result<std::unique_ptr<StorageManager>> manager =
      StorageManager::Open(storage_options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->ImportTriples(kFig1Triples).ok());

  server::ServerOptions options;
  options.num_workers = 2;
  server::Server srv(options);
  ASSERT_TRUE(srv.StartWithStorage(std::move(*manager)).ok());

  // Each ingest batch is atomic: recN appears with both its triples or
  // not at all, so a row set containing a recN without `published`
  // pairing would be a torn read (recN only matches the query with
  // both).
  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      server::Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
      while (!done.load()) {
        Result<server::Response> r =
            client.Query(server::QueryCall(kFig1Query));
        if (!r.ok() || r->code != StatusCode::kOk) {
          torn.fetch_add(1);
          break;
        }
      }
    });
  }

  server::Client writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", srv.port()).ok());
  for (int i = 0; i < 20; ++i) {
    std::string rec = "liverec" + std::to_string(i);
    Result<server::Response> ingest = writer.Ingest(
        "add " + rec + " recorded_by Caribou\n" +
        "add " + rec + " published after_2010\n");
    ASSERT_TRUE(ingest.ok());
    ASSERT_EQ(ingest->code, StatusCode::kOk) << ingest->message;
    if (i % 5 == 4) {
      Result<server::Response> checkpoint = writer.Checkpoint();
      ASSERT_TRUE(checkpoint.ok());
      ASSERT_EQ(checkpoint->code, StatusCode::kOk) << checkpoint->message;
    }
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);

  // Final state: all 20 records present exactly once.
  Result<server::Response> final_rows =
      writer.Query(server::QueryCall(kFig1Query));
  ASSERT_TRUE(final_rows.ok());
  ASSERT_EQ(final_rows->code, StatusCode::kOk);
  size_t live = 0;
  for (const std::string& row : final_rows->rows) {
    if (row.find("liverec") != std::string::npos) ++live;
  }
  EXPECT_EQ(live, 20u);
  srv.Stop();
}

}  // namespace
}  // namespace wdpt::storage
