// Durability subsystem tests: WAL segment format, checkpoint manifests and
// run generations, and the crash-recovery kill-point matrix.
//
// The kill-point tests fork a child process that opens a DB on a WAL
// directory, commits transactions, reports each *acknowledged* commit to
// the parent over a pipe, and then dies by _exit — skipping every
// destructor, exactly like a crash: the flusher thread is torn down
// mid-flight and nothing past the last write() survives in the log. The
// parent then reopens the directory and asserts the recovery contract:
//   * every acknowledged flushed commit is present, atomically, with its
//     original commit timestamp;
//   * no unacknowledged write is visible;
//   * without flush_on_commit, the recovered state is a clean prefix of
//     the acknowledged sequence (group commit preserves append order).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/db/db.h"
#include "src/db/session.h"
#include "src/recovery/manifest.h"
#include "src/recovery/recovery.h"
#include "src/recovery/wal.h"
#include "src/workloads/sibench.h"
#include "src/workloads/tpcc_workload.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Harness helpers.
// ---------------------------------------------------------------------------

/// A fresh scratch directory, removed on destruction.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/ssidb_recovery_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

DBOptions DurableOptions(const std::string& dir, bool flush_on_commit) {
  DBOptions opts;
  opts.log.wal_dir = dir;
  opts.log.flush_on_commit = flush_on_commit;
  return opts;
}

/// One acknowledgment from the child: a sequence number plus the commit
/// timestamp the engine assigned.
struct Ack {
  uint64_t seq = 0;
  uint64_t commit_ts = 0;
};

void SendAck(int fd, uint64_t seq, uint64_t commit_ts) {
  Ack a{seq, commit_ts};
  ssize_t n = write(fd, &a, sizeof(a));
  if (n != sizeof(a)) _exit(3);
}

struct ChildRun {
  std::vector<Ack> acks;
  int exit_code = -1;
};

/// Fork, run `body(ack_fd)` in the child (which must end in _exit), and
/// collect the acks the child streamed before dying.
ChildRun RunCrashingChild(const std::function<void(int)>& body) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  fflush(nullptr);  // Do not duplicate buffered test output into the child.
  const pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    body(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  ChildRun run;
  Ack a;
  for (;;) {
    const ssize_t n = read(fds[0], &a, sizeof(a));
    if (n != sizeof(a)) break;
    run.acks.push_back(a);
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  run.exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  return run;
}

/// Keys written by kill-point transaction `seq`.
std::string TxnKey(uint64_t seq, int j) {
  return "txn" + std::to_string(seq) + ":k" + std::to_string(j);
}
std::string TxnValue(uint64_t seq, int j) {
  return "value-" + std::to_string(seq) + "-" + std::to_string(j);
}
constexpr int kKeysPerTxn = 3;

/// The child body shared by the kill-point tests: open the DB, commit
/// `txns` transactions of kKeysPerTxn keys each, ack each one, then start
/// one more transaction, write through it, and crash without committing.
void CommitterChild(const std::string& dir, bool flush_on_commit,
                    uint64_t txns, int ack_fd) {
  std::unique_ptr<DB> db;
  if (!DB::Open(DurableOptions(dir, flush_on_commit), &db).ok()) _exit(2);
  TableId t = 0;
  if (!db->CreateTable("kill", &t).ok()) _exit(2);
  for (uint64_t i = 1; i <= txns; ++i) {
    auto txn = db->Begin({IsolationLevel::kSerializableSSI});
    for (int j = 0; j < kKeysPerTxn; ++j) {
      if (!txn->Put(t, TxnKey(i, j), TxnValue(i, j)).ok()) _exit(2);
    }
    if (!txn->Commit().ok()) _exit(2);
    SendAck(ack_fd, i, txn->commit_ts());
  }
  // An unacknowledged, uncommitted transaction: must never be recovered.
  auto orphan = db->Begin({IsolationLevel::kSerializableSSI});
  for (int j = 0; j < kKeysPerTxn; ++j) {
    orphan->Put(t, TxnKey(txns + 1, j), TxnValue(txns + 1, j));
  }
  db.release();  // Crash: no destructors, no final flush.
  _exit(0);
}

/// Which of transactions 1..max_seq are fully present after recovery, and
/// assert per-transaction atomicity (all keys or none) and value fidelity.
std::vector<uint64_t> PresentTxns(DB* db, TableId t, uint64_t max_seq) {
  std::vector<uint64_t> present;
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  for (uint64_t i = 1; i <= max_seq; ++i) {
    int found = 0;
    for (int j = 0; j < kKeysPerTxn; ++j) {
      std::string v;
      Status st = txn->Get(t, TxnKey(i, j), &v);
      if (st.ok()) {
        EXPECT_EQ(v, TxnValue(i, j));
        ++found;
      }
    }
    EXPECT_TRUE(found == 0 || found == kKeysPerTxn)
        << "transaction " << i << " recovered partially (" << found << "/"
        << kKeysPerTxn << " keys)";
    if (found == kKeysPerTxn) present.push_back(i);
  }
  EXPECT_TRUE(txn->Commit().ok());
  return present;
}

/// (relative path, size) of every file under `dir` (the WAL directory and
/// its runs/ subdirectory) — for asserting recovery writes nothing.
std::map<std::string, uintmax_t> DirContents(const std::string& dir) {
  std::map<std::string, uintmax_t> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    out[fs::relative(entry.path(), dir).string()] =
        fs::file_size(entry.path());
  }
  return out;
}

/// Paths of the files in `dir` whose names start with `prefix`, sorted.
std::vector<std::string> FilesWithPrefix(const std::string& dir,
                                         const std::string& prefix) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The run files (complete ones: "run-….run") a durable engine at `dir`
/// keeps in its default run directory.
std::vector<std::string> RunFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const std::string& path : FilesWithPrefix(dir + "/runs", "run-")) {
    if (fs::path(path).extension() == ".run") out.push_back(path);
  }
  return out;
}

/// XOR one byte in the middle of `path`: guaranteed to change it.
void FlipMiddleByte(const std::string& path) {
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const long mid = static_cast<long>(fs::file_size(path) / 2);
  fseek(f, mid, SEEK_SET);
  const int original = fgetc(f);
  fseek(f, mid, SEEK_SET);
  fputc(original ^ 0x5a, f);
  fclose(f);
}

// ---------------------------------------------------------------------------
// WAL segment format.
// ---------------------------------------------------------------------------

LogRecord MakeCommitRecord(uint64_t seq) {
  LogRecord r;
  r.txn_id = seq;
  r.commit_ts = seq + 1000;
  r.redo.push_back(
      RedoEntry{0, "key" + std::to_string(seq), "val" + std::to_string(seq),
                false});
  return r;
}

TEST(WalTest, WriterReaderRoundTripWithRotation) {
  TempDir dir;
  const std::string wal = dir.path + "/wal";
  {
    recovery::WalWriter writer(wal, /*segment_bytes=*/128, /*fsync=*/false);
    std::vector<recovery::WalFrame> frames;
    for (uint64_t i = 1; i <= 20; ++i) {
      frames.push_back(recovery::MakeWalFrame(MakeCommitRecord(i)));
    }
    ASSERT_TRUE(writer.AppendBatch(frames).ok());
    EXPECT_GT(writer.segments_created(), 1u);  // 128-byte segments rotate.
  }
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(wal, &segments).ok());
  ASSERT_GT(segments.size(), 1u);
  uint64_t next = 1;
  for (const std::string& path : segments) {
    recovery::WalScanResult scan;
    ASSERT_TRUE(recovery::ScanWalSegment(path, &scan).ok());
    EXPECT_TRUE(scan.tail.ok()) << scan.tail.ToString();
    for (const LogRecord& r : scan.records) {
      EXPECT_EQ(r.txn_id, next);
      EXPECT_EQ(r.commit_ts, next + 1000);
      ++next;
    }
  }
  EXPECT_EQ(next, 21u);  // All 20 records, in order, across segments.
}

TEST(WalTest, NewWriterNeverAppendsToExistingSegments) {
  TempDir dir;
  const std::string wal = dir.path + "/wal";
  {
    recovery::WalWriter writer(wal, 1 << 20, false);
    ASSERT_TRUE(
        writer.AppendBatch({recovery::MakeWalFrame(MakeCommitRecord(1))})
            .ok());
  }
  {
    recovery::WalWriter writer(wal, 1 << 20, false);
    ASSERT_TRUE(
        writer.AppendBatch({recovery::MakeWalFrame(MakeCommitRecord(2))})
            .ok());
  }
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(wal, &segments).ok());
  // Each writer opened a fresh segment: a possibly-torn pre-crash tail is
  // never buried mid-segment.
  EXPECT_EQ(segments.size(), 2u);
}

TEST(WalTest, TornTailStopsScanCleanly) {
  TempDir dir;
  const std::string wal = dir.path + "/wal";
  {
    recovery::WalWriter writer(wal, 1 << 20, false);
    ASSERT_TRUE(
        writer
            .AppendBatch({recovery::MakeWalFrame(MakeCommitRecord(1)),
                          recovery::MakeWalFrame(MakeCommitRecord(2))})
            .ok());
  }
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(wal, &segments).ok());
  ASSERT_EQ(segments.size(), 1u);
  // Tear the final record: drop its last byte.
  const uintmax_t size = fs::file_size(segments[0]);
  fs::resize_file(segments[0], size - 1);
  recovery::WalScanResult scan;
  ASSERT_TRUE(recovery::ScanWalSegment(segments[0], &scan).ok());
  ASSERT_EQ(scan.records.size(), 1u);  // The complete prefix survives.
  EXPECT_EQ(scan.records[0].txn_id, 1u);
  EXPECT_TRUE(scan.tail.IsTruncated()) << scan.tail.ToString();
}

// ---------------------------------------------------------------------------
// Checkpoint manifests.
// ---------------------------------------------------------------------------

TEST(ManifestTest, WriteLoadRoundTrip) {
  TempDir dir;
  recovery::Manifest written;
  written.watermark = 10;
  written.tables = {"accounts", "audit"};
  uint64_t bytes = 0;
  ASSERT_TRUE(
      recovery::WriteManifest(dir.path, written, false, nullptr, &bytes).ok());
  EXPECT_EQ(bytes, fs::file_size(dir.path + "/" +
                                 recovery::ManifestFileName(10)));
  recovery::Manifest loaded;
  bool found = false;
  ASSERT_TRUE(recovery::LoadNewestManifest(dir.path, &loaded, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(loaded.watermark, 10u);
  EXPECT_EQ(loaded.tables, written.tables);

  // A newer manifest supersedes it; dropping older ones leaves one file.
  written.watermark = 20;
  written.tables.push_back("orders");
  ASSERT_TRUE(
      recovery::WriteManifest(dir.path, written, false, nullptr, nullptr)
          .ok());
  ASSERT_TRUE(recovery::DropManifestsBefore(dir.path, 20, nullptr));
  EXPECT_EQ(FilesWithPrefix(dir.path, "manifest-").size(), 1u);
  ASSERT_TRUE(recovery::LoadNewestManifest(dir.path, &loaded, &found).ok());
  EXPECT_EQ(loaded.watermark, 20u);
  EXPECT_EQ(loaded.tables.size(), 3u);
}

TEST(ManifestTest, DamagedNewestFallsBackToOlderValidElseCorruption) {
  TempDir dir;
  recovery::Manifest m;
  m.tables = {"t"};
  m.watermark = 5;
  ASSERT_TRUE(recovery::WriteManifest(dir.path, m, false, nullptr, nullptr)
                  .ok());
  m.watermark = 9;
  ASSERT_TRUE(recovery::WriteManifest(dir.path, m, false, nullptr, nullptr)
                  .ok());
  // A stranded .tmp from a crashed write is never consulted.
  {
    FILE* f = fopen((dir.path + "/" + recovery::ManifestFileName(12) + ".tmp")
                        .c_str(),
                    "wb");
    fputs("partial", f);
    fclose(f);
  }
  FlipMiddleByte(dir.path + "/" + recovery::ManifestFileName(9));
  recovery::Manifest loaded;
  bool found = false;
  ASSERT_TRUE(recovery::LoadNewestManifest(dir.path, &loaded, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(loaded.watermark, 5u);  // The damaged watermark-9 one skipped.

  // With no valid manifest left, recovery must refuse, not start empty.
  FlipMiddleByte(dir.path + "/" + recovery::ManifestFileName(5));
  EXPECT_TRUE(
      recovery::LoadNewestManifest(dir.path, &loaded, &found).IsCorruption());
}

// ---------------------------------------------------------------------------
// End-to-end recovery through DB::Open.
// ---------------------------------------------------------------------------

TEST(RecoveryTest, CleanCloseReopenRestoresEverything) {
  TempDir dir;
  Timestamp cts_alice = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(
        DB::Open(DurableOptions(dir.path, /*flush=*/false), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    auto txn = db->Begin();
    ASSERT_TRUE(txn->Put(t, "alice", "1").ok());
    ASSERT_TRUE(txn->Commit().ok());
    cts_alice = txn->commit_ts();
    auto txn2 = db->Begin();
    ASSERT_TRUE(txn2->Put(t, "bob", "2").ok());
    ASSERT_TRUE(txn2->Delete(t, "alice").ok());
    ASSERT_TRUE(txn2->Commit().ok());
    // Clean close: the LogManager destructor drains the pending batches.
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  auto txn = db->Begin();
  std::string v;
  EXPECT_TRUE(txn->Get(t, "bob", &v).ok());
  EXPECT_EQ(v, "2");
  EXPECT_TRUE(txn->Get(t, "alice", &v).IsNotFound());  // Tombstone replayed.
  EXPECT_TRUE(txn->Commit().ok());
  // Original commit timestamps survive in the version chains.
  Timestamp cts = 0;
  bool tombstone = false;
  ASSERT_TRUE(
      db->table(t)->Find("alice")->LatestCommitted(&cts, &tombstone));
  EXPECT_TRUE(tombstone);
  EXPECT_GT(cts, cts_alice);
}

TEST(RecoveryTest, KillAfterFlushedCommitsRecoversAcknowledgedExactly) {
  TempDir dir;
  constexpr uint64_t kTxns = 25;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CommitterChild(dir.path, /*flush_on_commit=*/true, kTxns, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), kTxns);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  // Every acknowledged commit is present (flush_on_commit: the ack implies
  // the record was fsynced); the orphan transaction is not.
  const std::vector<uint64_t> present =
      PresentTxns(db.get(), t, kTxns + 1);
  ASSERT_EQ(present.size(), kTxns);
  for (uint64_t i = 0; i < kTxns; ++i) EXPECT_EQ(present[i], i + 1);
  // Original commit timestamps survive recovery.
  for (const Ack& a : run.acks) {
    Timestamp cts = 0;
    ASSERT_TRUE(db->table(t)
                    ->Find(TxnKey(a.seq, 0))
                    ->LatestCommitted(&cts, nullptr));
    EXPECT_EQ(cts, a.commit_ts) << "txn " << a.seq;
  }
  // New transactions draw timestamps above every recovered commit.
  auto txn = db->Begin();
  ASSERT_TRUE(txn->Put(t, "post", "1").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_GT(txn->commit_ts(), run.acks.back().commit_ts);
}

TEST(RecoveryTest, KillBeforeFlushRecoversCleanPrefix) {
  TempDir dir;
  constexpr uint64_t kTxns = 40;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CommitterChild(dir.path, /*flush_on_commit=*/false, kTxns, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), kTxns);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).ok());
  TableId t = 0;
  // Without flush_on_commit the tail may be lost — but what survives must
  // be a gap-free prefix of the acknowledged sequence, each transaction
  // atomic. (The table itself may be lost if the crash beat the flusher.)
  if (db->FindTable("kill", &t).IsNotFound()) return;
  const std::vector<uint64_t> present =
      PresentTxns(db.get(), t, kTxns + 1);
  EXPECT_LE(present.size(), kTxns);
  for (size_t i = 0; i < present.size(); ++i) {
    EXPECT_EQ(present[i], i + 1) << "recovered set is not a prefix";
  }
}

TEST(RecoveryTest, TornFinalRecordLosesOnlyTheLastCommit) {
  TempDir dir;
  constexpr uint64_t kTxns = 8;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CommitterChild(dir.path, true, kTxns, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  // Tear the final record of the newest segment, as a crash mid-write
  // would.
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &segments).ok());
  ASSERT_FALSE(segments.empty());
  const std::string& last = segments.back();
  fs::resize_file(last, fs::file_size(last) - 3);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  EXPECT_TRUE(db->recovery_stats().torn_tail);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  const std::vector<uint64_t> present =
      PresentTxns(db.get(), t, kTxns + 1);
  // Exactly the acknowledged prefix minus the single torn record.
  ASSERT_EQ(present.size(), kTxns - 1);
  for (size_t i = 0; i < present.size(); ++i) EXPECT_EQ(present[i], i + 1);
}

TEST(RecoveryTest, TornTailIsRepairedSoLaterSessionsStillOpen) {
  // The session after a crash tolerates the torn tail; because recovery
  // truncates it, the session after THAT (whose newest segment is now a
  // later one) must not find the tear mid-log and refuse to open.
  TempDir dir;
  constexpr uint64_t kTxns = 6;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CommitterChild(dir.path, true, kTxns, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &segments).ok());
  const std::string& first_log = segments.back();
  fs::resize_file(first_log, fs::file_size(first_log) - 3);  // The tear.

  // Session 2: opens past the tear, writes (a new segment), closes clean.
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    EXPECT_TRUE(db->recovery_stats().torn_tail);
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("kill", &t).ok());
    auto txn = db->Begin();
    ASSERT_TRUE(txn->Put(t, "session2", "alive").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Session 3: the once-torn segment is no longer the newest; it must
  // scan clean (repaired), not fail as mid-log corruption.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  EXPECT_FALSE(db->recovery_stats().torn_tail);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  EXPECT_EQ(PresentTxns(db.get(), t, kTxns).size(), kTxns - 1);
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  EXPECT_TRUE(txn->Get(t, "session2", &v).ok());
  EXPECT_EQ(v, "alive");
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(RecoveryTest, CheckpointGarbageCollectsCoveredSegments) {
  TempDir dir;
  DBOptions opts = DurableOptions(dir.path, true);
  opts.log.wal_segment_bytes = 96;  // Tiny: force many segments.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  for (int i = 0; i < 30; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  std::vector<std::string> before;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &before).ok());
  ASSERT_GT(before.size(), 3u);
  const uint64_t scans_before = recovery::ScanWalSegmentCalls();
  ASSERT_TRUE(db->Checkpoint().ok());
  // Metadata-driven GC: coverage was decided from per-segment counters,
  // never by re-reading a segment from disk.
  EXPECT_EQ(recovery::ScanWalSegmentCalls(), scans_before);
  std::vector<std::string> after;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &after).ok());
  // Every sealed segment is covered by the checkpoint — including the
  // first one, whose table-create record binds an id the manifest names
  // (the create-watermark rule). Only the flusher's live (highest)
  // segment survives.
  EXPECT_LT(after.size(), before.size());
  ASSERT_EQ(after.size(), 1u);
  uint64_t remaining_seq = 0;
  ASSERT_TRUE(recovery::ParseWalSegmentSeq(after[0], &remaining_seq));
  EXPECT_GT(remaining_seq, 1u);  // Segment 1 (the create) was reclaimed.
  EXPECT_GT(CounterOf(db.get(), "wal.segments_deleted"), 0u);
  db.reset();

  // The pruned directory still recovers everything.
  std::unique_ptr<DB> reopened;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &reopened).ok());
  EXPECT_GT(reopened->recovery_stats().checkpoint_ts, 0u);
  ASSERT_TRUE(reopened->FindTable("t", &t).ok());
  auto txn = reopened->Begin({IsolationLevel::kSnapshot});
  std::string v;
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(txn->Get(t, "k" + std::to_string(i), &v).ok()) << i;
  }
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(WalTest, SegmentMetadataTracksCommitsAndCreates) {
  TempDir dir;
  const std::string wal = dir.path + "/wal";
  recovery::WalWriter writer(wal, /*segment_bytes=*/128, /*fsync=*/false);
  LogRecord create;
  create.type = LogRecordType::kTableCreate;
  create.redo.push_back(RedoEntry{3, "orders", "", false});
  std::vector<recovery::WalFrame> frames{recovery::MakeWalFrame(create)};
  for (uint64_t i = 1; i <= 10; ++i) {
    frames.push_back(recovery::MakeWalFrame(MakeCommitRecord(i)));
  }
  ASSERT_TRUE(writer.AppendBatch(frames).ok());
  const auto meta = writer.SegmentMetadata();
  ASSERT_GT(meta.size(), 1u);  // 128-byte segments rotate.
  uint64_t records = 0;
  Timestamp max_cts = 0, min_cts = 0;
  bool create_seen = false;
  uint32_t max_created_id = 0;
  for (const auto& [seq, m] : meta) {
    EXPECT_EQ(m.seq, seq);
    records += m.record_count;
    if (m.max_commit_ts > max_cts) max_cts = m.max_commit_ts;
    if (m.min_commit_ts != 0 &&
        (min_cts == 0 || m.min_commit_ts < min_cts)) {
      min_cts = m.min_commit_ts;
    }
    if (m.has_table_create) {
      create_seen = true;
      if (m.max_table_id_created > max_created_id) {
        max_created_id = m.max_table_id_created;
      }
    }
  }
  EXPECT_EQ(records, 11u);
  EXPECT_EQ(min_cts, 1001u);  // MakeCommitRecord(i) commits at i + 1000.
  EXPECT_EQ(max_cts, 1010u);
  EXPECT_TRUE(create_seen);
  EXPECT_EQ(max_created_id, 3u);
}

TEST(RecoveryTest, SecondCheckpointIsIncrementalAndGcScanFree) {
  TempDir dir;
  constexpr int kKeys = 1200;
  constexpr int kTouched = 9;
  const std::string pad(48, 'v');
  const std::string deleted = "key" + std::to_string(kKeys - 1);
  DBOptions opts = DurableOptions(dir.path, /*flush=*/false);
  opts.run_page_bytes = 4096;
  uint64_t first_bytes = 0, second_bytes = 0;
  Timestamp touch_cts = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    for (int i = 0; i < kKeys; i += 100) {
      auto txn = db->Begin();
      for (int j = i; j < i + 100; ++j) {
        ASSERT_TRUE(txn->Put(t, "key" + std::to_string(j), pad).ok());
      }
      ASSERT_TRUE(txn->Commit().ok());
    }
    const uint64_t scans_before = recovery::ScanWalSegmentCalls();
    ASSERT_TRUE(db->Checkpoint().ok());  // First cut: every key, O(N).
    first_bytes = db->checkpoint_bytes_written();
    auto touch = db->Begin();
    for (int j = 0; j < kTouched; ++j) {
      ASSERT_TRUE(
          touch->Put(t, "key" + std::to_string(j), "updated").ok());
    }
    ASSERT_TRUE(touch->Delete(t, deleted).ok());
    ASSERT_TRUE(touch->Commit().ok());
    touch_cts = touch->commit_ts();
    ASSERT_TRUE(db->Checkpoint().ok());  // Second cut: the k changed keys.
    second_bytes = db->checkpoint_bytes_written() - first_bytes;
    // Incrementality: after touching k of N keys the run generation is
    // one data page (plus the run's header page, footer and the manifest),
    // a small fraction of the first sweep's ~20 pages.
    EXPECT_GT(second_bytes, 0u);
    EXPECT_LT(second_bytes, 3u * opts.run_page_bytes);
    EXPECT_LT(second_bytes * 8, first_bytes);
    EXPECT_EQ(db->storage_tier()->run_count(t), 2u);
    // O(1) GC: no ScanWalSegment re-read happened in either checkpoint.
    EXPECT_EQ(recovery::ScanWalSegmentCalls(), scans_before);
    EXPECT_EQ(CounterOf(db.get(), "ckpt.taken"), 2u);
    EXPECT_EQ(CounterOf(db.get(), "ckpt.bytes_written"),
              first_bytes + second_bytes);
    // A checkpoint with nothing new is a no-op, not an empty run.
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->checkpoints_taken(), 2u);
  }
  EXPECT_EQ(RunFiles(dir.path).size(), 2u);
  EXPECT_EQ(FilesWithPrefix(dir.path, "manifest-").size(), 1u);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  EXPECT_GT(db->recovery_stats().checkpoint_ts, 0u);
  // Everything sits at or below the second cut: nothing replays.
  EXPECT_EQ(db->recovery_stats().commit_records_applied, 0u);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  for (int j = 0; j + 1 < kKeys; ++j) {
    ASSERT_TRUE(txn->Get(t, "key" + std::to_string(j), &v).ok()) << j;
    EXPECT_EQ(v, j < kTouched ? "updated" : pad) << j;
  }
  // The tombstone survived the reopen in the newer run.
  EXPECT_TRUE(txn->Get(t, deleted, &v).IsNotFound());
  EXPECT_TRUE(txn->Commit().ok());
  Timestamp cts = 0;
  bool tombstone = false;
  ASSERT_TRUE(db->table(t)->Find("key0")->LatestCommitted(&cts, &tombstone));
  EXPECT_EQ(cts, touch_cts);
  ASSERT_TRUE(db->table(t)->Find(deleted)->LatestCommitted(&cts, &tombstone));
  EXPECT_TRUE(tombstone);
  EXPECT_EQ(cts, touch_cts);
}

TEST(RecoveryTest, RepeatedCheckpointsKeepRunCountBounded) {
  TempDir dir;
  DBOptions opts = DurableOptions(dir.path, false);
  // No background sweeper: the checkpoint compacts on its own.
  opts.version_gc_interval_ms = 0;
  constexpr int kRounds = 10;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    for (int i = 0; i < kRounds; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), "v").ok());
      ASSERT_TRUE(txn->Commit().ok());
      ASSERT_TRUE(db->Checkpoint().ok());
      EXPECT_LT(db->storage_tier()->run_count(t), opts.run_compaction_min_runs)
          << "round " << i;
    }
    EXPECT_EQ(db->checkpoints_taken(), static_cast<uint64_t>(kRounds));
    EXPECT_GT(CounterOf(db.get(), "tier.compactions"), 0u);
    EXPECT_EQ(RunFiles(dir.path).size(), db->storage_tier()->run_count(t));
  }
  std::unique_ptr<DB> reopened;
  ASSERT_TRUE(DB::Open(opts, &reopened).ok());
  TableId t = 0;
  ASSERT_TRUE(reopened->FindTable("t", &t).ok());
  auto txn = reopened->Begin({IsolationLevel::kSnapshot});
  std::string v;
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_TRUE(txn->Get(t, "k" + std::to_string(i), &v).ok()) << i;
  }
  EXPECT_TRUE(txn->Commit().ok());
}

/// Assert every ack's keys read back with the ack's commit timestamp.
void ExpectAckedTimestamps(DB* db, TableId t, const std::vector<Ack>& acks) {
  for (const Ack& a : acks) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(t, TxnKey(a.seq, 0), &v).ok()) << a.seq;
    ASSERT_TRUE(txn->Commit().ok());
    Timestamp cts = 0;
    ASSERT_TRUE(db->table(t)->Find(TxnKey(a.seq, 0))->LatestCommitted(
        &cts, nullptr));
    EXPECT_EQ(cts, a.commit_ts) << "txn " << a.seq;
  }
}

/// Child body for the checkpoint kill points: commit kTxns transactions,
/// acking each, and checkpoint after each one listed in `checkpoint_after`
/// (calling `after_checkpoint` with its index); then crash.
void CheckpointingChild(const std::string& dir, uint64_t txns,
                        const std::vector<uint64_t>& checkpoint_after,
                        const std::function<void(size_t)>& after_checkpoint,
                        int ack_fd) {
  std::unique_ptr<DB> db;
  if (!DB::Open(DurableOptions(dir, true), &db).ok()) _exit(2);
  TableId t = 0;
  if (!db->CreateTable("kill", &t).ok()) _exit(2);
  for (uint64_t i = 1; i <= txns; ++i) {
    auto txn = db->Begin();
    for (int j = 0; j < kKeysPerTxn; ++j) {
      if (!txn->Put(t, TxnKey(i, j), TxnValue(i, j)).ok()) _exit(2);
    }
    if (!txn->Commit().ok()) _exit(2);
    SendAck(ack_fd, i, txn->commit_ts());
    const auto it =
        std::find(checkpoint_after.begin(), checkpoint_after.end(), i);
    if (it != checkpoint_after.end()) {
      if (!db->Checkpoint().ok()) _exit(2);
      if (after_checkpoint) after_checkpoint(it - checkpoint_after.begin());
    }
  }
  db.release();  // Crash: no destructors, no final flush.
  _exit(0);
}

TEST(RecoveryTest, CrashBetweenCheckpointsRecoversRunsPlusWal) {
  TempDir dir;
  constexpr uint64_t kTxns = 12;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CheckpointingChild(dir.path, kTxns, {kTxns / 2}, nullptr, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), kTxns);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  EXPECT_GT(db->recovery_stats().checkpoint_ts, 0u);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  // The runs cover the first half; WAL replay past the cut the rest.
  ASSERT_EQ(PresentTxns(db.get(), t, kTxns + 1).size(), kTxns);
  ExpectAckedTimestamps(db.get(), t, run.acks);
}

TEST(RecoveryTest, KillBetweenRunAndManifestRecoversEveryAck) {
  TempDir dir;
  constexpr uint64_t kTxns = 16;
  // The child keeps a copy of the first checkpoint's manifest; after the
  // crash the parent puts it back in place of the second one. That is
  // the directory a kill between the second checkpoint's run rename and
  // its manifest rename leaves: the new runs durable, the old manifest
  // naming the cut. (One WAL segment: the second checkpoint's GC, which
  // such a kill would preempt, has nothing it may delete.)
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CheckpointingChild(
        dir.path, kTxns, {kTxns / 4, kTxns / 2},
        [&](size_t checkpoint) {
          if (checkpoint != 0) return;
          const auto m = FilesWithPrefix(dir.path, "manifest-");
          if (m.size() != 1) _exit(2);
          fs::copy_file(m[0], dir.path + "/saved-" +
                                  fs::path(m[0]).filename().string());
        },
        ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), kTxns);
  const auto manifests = FilesWithPrefix(dir.path, "manifest-");
  const auto saved = FilesWithPrefix(dir.path, "saved-");
  ASSERT_EQ(manifests.size(), 1u);
  ASSERT_EQ(saved.size(), 1u);
  const std::string first_name =
      fs::path(saved[0]).filename().string().substr(strlen("saved-"));
  ASSERT_NE(first_name, fs::path(manifests[0]).filename().string());
  fs::remove(manifests[0]);
  fs::rename(saved[0], dir.path + "/" + first_name);
  ASSERT_EQ(RunFiles(dir.path).size(), 2u);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  EXPECT_EQ(recovery::ManifestFileName(db->recovery_stats().checkpoint_ts),
            first_name);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  ASSERT_EQ(PresentTxns(db.get(), t, kTxns + 1).size(), kTxns);
  ExpectAckedTimestamps(db.get(), t, run.acks);
}

TEST(RecoveryTest, DamagedCheckpointRunFailsOpen) {
  TempDir dir;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    auto txn = db->Begin();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), std::string(200, 'v'))
                      .ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  const std::vector<std::string> runs = RunFiles(dir.path);
  ASSERT_EQ(runs.size(), 1u);
  FlipMiddleByte(runs[0]);
  // The runs are the checkpoint's only copy of its data (the WAL below the
  // cut may already be gone): a damaged run fails loudly, like a damaged
  // spill run, instead of recovering a silently older state.
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).IsCorruption());
}

TEST(RecoveryTest, CorruptFinalRecordIsAlsoATornWrite) {
  // A torn write need not be short: the crash can leave a full-length
  // frame of garbage (partial sector). Damage — not truncation — at the
  // newest segment's tail must recover like a torn tail, losing only the
  // damaged record.
  TempDir dir;
  constexpr uint64_t kTxns = 8;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CommitterChild(dir.path, true, kTxns, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &segments).ok());
  ASSERT_FALSE(segments.empty());
  const std::string& last = segments.back();
  {
    FILE* f = fopen(last.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long pos = static_cast<long>(fs::file_size(last)) - 5;
    fseek(f, pos, SEEK_SET);
    const int original = fgetc(f);
    fseek(f, pos, SEEK_SET);
    fputc(original ^ 0x5a, f);
    fclose(f);
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  EXPECT_TRUE(db->recovery_stats().torn_tail);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  const std::vector<uint64_t> present =
      PresentTxns(db.get(), t, kTxns + 1);
  ASSERT_EQ(present.size(), kTxns - 1);
  for (size_t i = 0; i < present.size(); ++i) EXPECT_EQ(present[i], i + 1);
}

TEST(RecoveryTest, MidLogCorruptionFailsOpen) {
  TempDir dir;
  {
    // Tiny segments force multiple files.
    DBOptions opts = DurableOptions(dir.path, true);
    opts.log.wal_segment_bytes = 96;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    for (int i = 0; i < 10; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(
          txn->Put(t, "k" + std::to_string(i), "v").ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
  }
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &segments).ok());
  ASSERT_GT(segments.size(), 1u);
  // Damage a byte in the middle of the FIRST segment: not a torn tail, and
  // recovery must refuse rather than resurrect a hole-y history.
  {
    FILE* f = fopen(segments[0].c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long mid = static_cast<long>(fs::file_size(segments[0]) / 2);
    fseek(f, mid, SEEK_SET);
    const int original = fgetc(f);
    fseek(f, mid, SEEK_SET);
    fputc(original ^ 0x5a, f);  // XOR: guaranteed to change the byte.
    fclose(f);
  }
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).IsCorruption());
}

TEST(RecoveryTest, KillMidCheckpointFallsBackToWal) {
  TempDir dir;
  constexpr uint64_t kTxns = 12;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CheckpointingChild(dir.path, kTxns, {kTxns / 2}, nullptr, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);

  // Simulate the checkpointer dying mid-write of the only checkpoint: its
  // run never got past a half-written .tmp and no manifest exists. (Its
  // GC had nothing to delete: one WAL segment.)
  const std::vector<std::string> runs = RunFiles(dir.path);
  ASSERT_EQ(runs.size(), 1u);
  fs::rename(runs[0], runs[0] + ".tmp");
  fs::resize_file(runs[0] + ".tmp", fs::file_size(runs[0] + ".tmp") / 2);
  for (const std::string& m : FilesWithPrefix(dir.path, "manifest-")) {
    fs::remove(m);
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  // The WAL alone reconstructs everything the lost cut covered.
  EXPECT_EQ(db->recovery_stats().checkpoint_ts, 0u);
  EXPECT_EQ(db->storage_tier()->run_count(0), 0u);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  const std::vector<uint64_t> present =
      PresentTxns(db.get(), t, kTxns + 1);
  ASSERT_EQ(present.size(), kTxns);
  ExpectAckedTimestamps(db.get(), t, run.acks);
}

TEST(RecoveryTest, DamagedNewestManifestFallsBackElseOpenFails) {
  TempDir dir;
  const DBOptions opts = DurableOptions(dir.path, true);
  std::string first_name;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    auto put = [&](const std::string& key) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->Put(t, key, "v:" + key).ok());
      ASSERT_TRUE(txn->Commit().ok());
    };
    put("a");
    ASSERT_TRUE(db->Checkpoint().ok());
    const auto m = FilesWithPrefix(dir.path, "manifest-");
    ASSERT_EQ(m.size(), 1u);
    first_name = fs::path(m[0]).filename().string();
    fs::copy_file(m[0], dir.path + "/saved");
    put("b");
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Both manifests on disk (as after a crash before the older one was
  // dropped), and the newest fails its CRC.
  const auto newest = FilesWithPrefix(dir.path, "manifest-");
  ASSERT_EQ(newest.size(), 1u);
  fs::rename(dir.path + "/saved", dir.path + "/" + first_name);
  FlipMiddleByte(newest[0]);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    EXPECT_EQ(recovery::ManifestFileName(db->recovery_stats().checkpoint_ts),
              first_name);
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("t", &t).ok());
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    EXPECT_TRUE(txn->Get(t, "a", &v).ok());
    EXPECT_TRUE(txn->Get(t, "b", &v).ok());
    EXPECT_EQ(v, "v:b");
    EXPECT_TRUE(txn->Commit().ok());
  }
  // No valid manifest left: Open refuses instead of replaying from empty.
  FlipMiddleByte(dir.path + "/" + first_name);
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(opts, &db).IsCorruption());
}

TEST(RecoveryTest, PoolZeroReopenLeavesUntouchedChainsEvicted) {
  TempDir dir;
  DBOptions opts = DurableOptions(dir.path, true);
  ASSERT_EQ(opts.buffer_pool_bytes, 0u);
  constexpr int kKeys = 20;
  constexpr int kTouched = 5;
  std::vector<Timestamp> cts(kKeys);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    for (int i = 0; i < kKeys; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), "old").ok());
      ASSERT_TRUE(txn->Commit().ok());
      cts[i] = txn->commit_ts();
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    // Runtime spilling is off at buffer_pool_bytes = 0.
    EXPECT_EQ(db->SpillChains(t), 0u);
    for (int i = 0; i < kTouched; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), "new").ok());
      ASSERT_TRUE(txn->Commit().ok());
      cts[i] = txn->commit_ts();
    }
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  ASSERT_NE(db->storage_tier(), nullptr);
  EXPECT_EQ(db->storage_tier()->pool()->frame_count(),
            StorageTier::kCheckpointPoolFrames);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  // Keys the WAL past the cut rewrote are resident; the rest stay in the
  // checkpoint's run until read.
  for (int i = 0; i < kKeys; ++i) {
    VersionChain* chain = db->table(t)->Find("k" + std::to_string(i));
    ASSERT_NE(chain, nullptr);
    EXPECT_EQ(chain->evicted(), i >= kTouched) << i;
  }
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(t, key, &v).ok()) << key;
    EXPECT_EQ(v, i < kTouched ? "new" : "old");
    ASSERT_TRUE(txn->Commit().ok());
    Timestamp got = 0;
    ASSERT_TRUE(db->table(t)->Find(key)->LatestCommitted(&got, nullptr));
    EXPECT_EQ(got, cts[i]) << key;
  }
  EXPECT_EQ(CounterOf(db.get(), "tier.faulted_chains"),
            static_cast<uint64_t>(kKeys - kTouched));
}

TEST(RecoveryTest, CheckpointPlusTailReplayAndIdempotentReopen) {
  TempDir dir;
  constexpr uint64_t kTxns = 16;
  Timestamp last_cts = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("kill", &t).ok());
    for (uint64_t i = 1; i <= kTxns; ++i) {
      auto txn = db->Begin();
      for (int j = 0; j < kKeysPerTxn; ++j) {
        ASSERT_TRUE(txn->Put(t, TxnKey(i, j), TxnValue(i, j)).ok());
      }
      ASSERT_TRUE(txn->Commit().ok());
      last_cts = txn->commit_ts();
      if (i == kTxns / 2) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
    ASSERT_EQ(db->checkpoints_taken(), 1u);
  }
  // First reopen: the checkpoint's run covers the first half, WAL replay
  // the rest (records below the watermark are skipped).
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    EXPECT_GT(db->recovery_stats().checkpoint_ts, 0u);
    EXPECT_GT(db->recovery_stats().commit_records_applied, 0u);
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("kill", &t).ok());
    EXPECT_EQ(PresentTxns(db.get(), t, kTxns).size(), kTxns);
    EXPECT_EQ(db->recovery_stats().max_commit_ts, last_cts);
  }
  // "Crash during replay": recovery is read-only, so a process that dies
  // right after recovering (before committing anything new) leaves the
  // directory byte-identical — any number of reopens recover the same
  // state. Verified twice: once with a clean close, once comparing
  // recovered contents.
  const auto before = DirContents(dir.path);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("kill", &t).ok());
    EXPECT_GT(db->recovery_stats().checkpoint_ts, 0u);
    // >= rather than ==: the previous block's verification transactions
    // committed (empty-redo records with fresh timestamps) before closing.
    EXPECT_GE(db->recovery_stats().max_commit_ts, last_cts);
  }
  EXPECT_EQ(DirContents(dir.path), before);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("kill", &t).ok());
    EXPECT_EQ(PresentTxns(db.get(), t, kTxns).size(), kTxns);
  }
}

TEST(RecoveryTest, BackgroundCheckpointerProducesUsableImages) {
  TempDir dir;
  {
    DBOptions opts = DurableOptions(dir.path, false);
    opts.log.checkpoint_interval_ms = 20;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    for (int i = 0; i < 50; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), "v").ok());
      ASSERT_TRUE(txn->Commit().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GE(db->checkpoints_taken(), 1u);
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).ok());
  EXPECT_GT(db->recovery_stats().checkpoint_ts, 0u);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  auto txn = db->Begin();
  std::string v;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(txn->Get(t, "k" + std::to_string(i), &v).ok()) << i;
  }
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(RecoveryTest, KillMidAsyncPipelineRecoversAckedNeverTorn) {
  // The asynchronous commit pipeline under crash: a session submits a
  // burst of CommitAsync transactions and the child _exits from INSIDE the
  // acknowledgment callback once kAckTarget acks have streamed out — the
  // process dies on the flusher thread, mid-pipeline, with most of the
  // burst submitted-but-unacknowledged. The recovery contract is exactly
  // the blocking one: every acknowledged commit is present atomically
  // (flush_on_commit: the ack fired only after the covering fsync), and
  // every unacknowledged submission is all-or-nothing — never torn.
  TempDir dir;
  constexpr uint64_t kSubmit = 40;
  constexpr uint64_t kAckTarget = 12;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    std::unique_ptr<DB> db;
    if (!DB::Open(DurableOptions(dir.path, /*flush_on_commit=*/true), &db)
             .ok()) {
      _exit(2);
    }
    TableId t = 0;
    if (!db->CreateTable("kill", &t).ok()) _exit(2);
    auto session = db->CreateSession();
    static std::atomic<uint64_t> acked{0};
    for (uint64_t i = 1; i <= kSubmit; ++i) {
      const TxnHandle h = session->Begin({IsolationLevel::kSerializableSSI});
      for (int j = 0; j < kKeysPerTxn; ++j) {
        if (!session->Put(h, t, TxnKey(i, j), TxnValue(i, j)).ok()) _exit(2);
      }
      session->CommitAsync(h, [ack_fd, i](Status st) {
        if (!st.ok()) _exit(2);
        SendAck(ack_fd, i, 0);
        if (acked.fetch_add(1) + 1 == kAckTarget) _exit(0);  // The crash.
      });
    }
    // Park: the acknowledgment thread kills the process. (The pipeline
    // will certainly reach kAckTarget acks — all kSubmit are submitted.)
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), kAckTarget);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  // PresentTxns asserts per-transaction atomicity for everything 1..40:
  // no submission — acked or not — may recover torn.
  const std::vector<uint64_t> present = PresentTxns(db.get(), t, kSubmit);
  std::vector<bool> is_present(kSubmit + 1, false);
  for (const uint64_t seq : present) is_present[seq] = true;
  for (const Ack& a : run.acks) {
    EXPECT_TRUE(is_present[a.seq])
        << "acknowledged transaction " << a.seq << " lost";
  }
  // Unacknowledged submissions may go either way (flushed-but-unacked
  // survives, unflushed is lost) — but never below the acked floor.
  EXPECT_GE(present.size(), kAckTarget);
}

// ---------------------------------------------------------------------------
// Workload-level recovery: sibench and a small TPC-C load.
// ---------------------------------------------------------------------------

TEST(RecoveryWorkloadTest, SibenchAcknowledgedIncrementsSurviveKill) {
  TempDir dir;
  constexpr uint64_t kItems = 20;
  constexpr uint64_t kIncrements = 30;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    std::unique_ptr<DB> db;
    if (!DB::Open(DurableOptions(dir.path, true), &db).ok()) _exit(2);
    workloads::SiBenchConfig config;
    config.items = kItems;
    std::unique_ptr<workloads::SiBench> workload;
    if (!workloads::SiBench::Setup(db.get(), config, &workload).ok()) {
      _exit(2);
    }
    bench::SeriesConfig ssi{"SSI", IsolationLevel::kSerializableSSI, {}};
    uint64_t committed = 0;
    for (uint64_t i = 0; committed < kIncrements; ++i) {
      if (workload->IncrementValue(db.get(), ssi, i % kItems).ok()) {
        ++committed;
        SendAck(ack_fd, committed, 0);
      }
    }
    db.release();
    _exit(0);
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), kIncrements);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("sitest", &t).ok());
  // The sibench oracle: the sum of all values equals the number of
  // acknowledged committed increments.
  int64_t sum = 0;
  uint64_t rows = 0;
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(txn->Scan(t, EncodeU64Key(0), EncodeU64Key(UINT64_MAX),
                        [&](Slice, Slice value) {
                          size_t off = 0;
                          int64_t v = 0;
                          EXPECT_TRUE(GetI64(value, &off, &v));
                          sum += v;
                          ++rows;
                          return true;
                        })
                  .ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(rows, kItems);
  EXPECT_EQ(sum, static_cast<int64_t>(kIncrements));
}

TEST(RecoveryWorkloadTest, TinyTpccLoadSurvivesKillAfterCheckpoint) {
  TempDir dir;
  // Table name -> entry count, reported by the child after its checkpoint.
  const std::vector<std::string> tables = {
      "warehouse", "district", "customer", "item",
      "stock",     "order",    "new_order"};
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    std::unique_ptr<DB> db;
    // Async WAL (no per-commit fsync) to keep the load fast; the explicit
    // checkpoint below makes the loaded state durable.
    if (!DB::Open(DurableOptions(dir.path, false), &db).ok()) _exit(2);
    workloads::tpcc::TpccConfig config;
    config.warehouses = 1;
    config.tiny = true;
    std::unique_ptr<workloads::tpcc::TpccWorkload> workload;
    if (!workloads::tpcc::TpccWorkload::Setup(db.get(), config, 7, &workload)
             .ok()) {
      _exit(2);
    }
    bench::SeriesConfig ssi{"SSI", IsolationLevel::kSerializableSSI, {}};
    Random rng(99);
    uint64_t committed = 0;
    while (committed < 5) {
      Status st = workload->RunOp(db.get(), ssi,
                                  workloads::tpcc::TpccOp::kNewOrder, &rng);
      if (st.ok()) ++committed;
      if (st.IsInvalidArgument()) _exit(2);
    }
    if (!db->Checkpoint().ok()) _exit(2);
    for (size_t i = 0; i < tables.size(); ++i) {
      TableId id = 0;
      if (!db->FindTable(tables[i], &id).ok()) _exit(2);
      SendAck(ack_fd, i, db->table(id)->EntryCount());
    }
    db.release();
    _exit(0);
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), tables.size());

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).ok());
  EXPECT_GT(db->recovery_stats().checkpoint_ts, 0u);
  for (size_t i = 0; i < tables.size(); ++i) {
    TableId id = 0;
    ASSERT_TRUE(db->FindTable(tables[i], &id).ok()) << tables[i];
    EXPECT_EQ(db->table(id)->EntryCount(), run.acks[i].commit_ts)
        << tables[i];
  }
  // The recovered engine keeps serving reads against the reloaded schema.
  TableId district = 0;
  ASSERT_TRUE(db->FindTable("district", &district).ok());
  EXPECT_EQ(db->table(district)->EntryCount(), 10u);  // 10 districts/WH.
}

}  // namespace
}  // namespace ssidb
