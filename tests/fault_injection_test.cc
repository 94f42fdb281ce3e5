// Disk-failure hardening tests: the engine's behaviour when the Env lies.
//
// The contracts under test (ARCHITECTURE.md "Fault model & degradation"):
//   * a WAL fsync/write failure is handled fsyncgate-correctly — the log
//     never retries the fsync, the failure is sticky, and the DB degrades
//     to read-only mode: reads and read-only commits keep serving, writing
//     commits fail fast with kIOError, checkpoints refuse to run;
//   * a failed buffer-pool writeback never marks the frame clean or loses
//     the page content — retries are bounded, the dirty bit survives, and
//     clearing the fault lets the next flush land the original bytes;
//   * EIO mid-spill leaves every chain resident and readable;
//   * ENOSPC mid-checkpoint (its run or its manifest) or mid-run-creation
//     removes the partial .tmp, leaves the previous checkpoint's state
//     loadable, and the next attempt (after the disk heals) resumes
//     cleanly;
//   * after a seeded multi-fault schedule, clearing the faults and
//     reopening recovers every acknowledged-OK commit with its original
//     commit timestamp.

#include <gtest/gtest.h>

#include <fcntl.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/db/db.h"
#include "src/io/env.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/storage_tier.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

namespace fs = std::filesystem;
using io::FaultInjectingEnv;
using FaultKind = FaultInjectingEnv::FaultKind;

DBOptions FaultOptions(const std::string& dir, io::Env* env,
                       bool with_tier = false) {
  DBOptions opts;
  opts.log.wal_dir = dir + "/wal";
  opts.log.flush_on_commit = true;
  opts.env = env;
  // Background sweeps off: the tests drive spills and checkpoints
  // explicitly so the scripted fault windows hit deterministic ops.
  opts.version_gc_interval_ms = 0;
  if (with_tier) {
    opts.buffer_pool_bytes = 1 << 16;
    opts.run_page_bytes = 4096;
    opts.data_dir = dir + "/runs";
  }
  return opts;
}

uint64_t GaugeValue(DB* db, const std::string& name) {
  for (const auto& [n, v] : db->metrics()->Collect().gauges) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "gauge not registered: " << name;
  return 0;
}

uint64_t CounterValue(DB* db, const std::string& name) {
  for (const auto& [n, v] : db->metrics()->Collect().counters) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "counter not registered: " << name;
  return 0;
}

bool DirHasTmpFile(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".tmp") return true;
  }
  return false;
}

Status CommitPut(DB* db, TableId t, const std::string& key,
                 const std::string& value, Timestamp* cts = nullptr) {
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  Status st = txn->Put(t, key, value);
  if (!st.ok()) return st;
  st = txn->Commit();
  if (st.ok() && cts != nullptr) *cts = txn->commit_ts();
  return st;
}

TEST(FaultInjectionTest, WalFsyncFailureFlipsReadOnly) {
  ScratchDir dir;
  FaultInjectingEnv env;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(FaultOptions(dir.path, &env), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());  // Flush (fsync #1) clean.

  // Two healthy commits, then every subsequent WAL fsync fails.
  std::map<std::string, Timestamp> acked;
  for (int i = 0; i < 2; ++i) {
    const std::string key = "pre" + std::to_string(i);
    Timestamp cts = 0;
    ASSERT_TRUE(CommitPut(db.get(), t, key, "v" + std::to_string(i), &cts).ok());
    acked[key] = cts;
  }
  EXPECT_FALSE(db->read_only());
  env.InjectFault(FaultKind::kFsyncError, "wal-");

  // The next writing commit's group-commit flush hits the failed fsync:
  // the in-memory commit stands but durability was not achieved, so the
  // ack carries kIOError — and the DB is read-only by the time it fires.
  Status st = CommitPut(db.get(), t, "poison", "x");
  ASSERT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(db->read_only());

  // Degraded-mode contract. Reads keep serving...
  {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(t, "pre0", &v).ok());
    EXPECT_EQ(v, "v0");
    EXPECT_TRUE(txn->Commit().ok()) << "read-only commits still succeed";
  }
  // ...while writing commits fail fast with kIOError (no WAL append, no
  // timestamp allocated — the transaction is rolled back).
  {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(t, "late", "x").ok());
    Status commit = txn->Commit();
    EXPECT_TRUE(commit.IsIOError()) << commit.ToString();
    EXPECT_FALSE(txn->active());
  }
  // Checkpoints refuse to extend the durable history.
  EXPECT_TRUE(db->Checkpoint().IsIOError());

  // Observability: the gauge, the WAL error counter, the injection count.
  EXPECT_EQ(GaugeValue(db.get(), "db.read_only"), 1u);
  EXPECT_GE(CounterValue(db.get(), "io.errors.wal"), 1u);
  EXPECT_GE(CounterValue(db.get(), "io.injected_faults"), 1u);

  // Fix the disk, reopen: every acked-OK commit is back with its original
  // commit timestamp. (The poisoned commit was acked kIOError — it made
  // no durability promise, so it may legitimately be absent.)
  db.reset();
  env.ClearFaults();
  ASSERT_TRUE(DB::Open(FaultOptions(dir.path, &env), &db).ok());
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  EXPECT_FALSE(db->read_only());
  for (const auto& [key, cts] : acked) {
    std::string v;
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Get(t, key, &v).ok()) << key;
    txn->Commit();
    Timestamp recovered = 0;
    bool tomb = true;
    ASSERT_TRUE(db->table(t)->Find(key)->LatestCommitted(&recovered, &tomb));
    EXPECT_EQ(recovered, cts) << key;
  }
  // The healed engine accepts writes again.
  EXPECT_TRUE(CommitPut(db.get(), t, "after", "y").ok());
}

TEST(FaultInjectionTest, EIOMidSpillKeepsChainsResident) {
  ScratchDir dir;
  FaultInjectingEnv env;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(FaultOptions(dir.path, &env, /*with_tier=*/true), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  std::map<std::string, Timestamp> cts;
  for (int i = 0; i < 8; ++i) {
    const std::string key = "k" + std::to_string(i);
    Timestamp c = 0;
    ASSERT_TRUE(CommitPut(db.get(), t, key, "v" + std::to_string(i), &c).ok());
    cts[key] = c;
  }

  // Every write to a run file fails: the spill must leave each chain
  // resident with its versions intact (eviction is only legal once the
  // run is durable).
  env.InjectFault(FaultKind::kWriteError, "run-");
  db->SpillChains(t);
  EXPECT_EQ(db->SpillChains(t), 0u);
  EXPECT_GE(db->storage_tier()->io_errors(), 1u);
  EXPECT_GE(CounterValue(db.get(), "io.errors.tier"), 1u);
  for (const auto& [key, c] : cts) {
    VersionChain* chain = db->table(t)->Find(key);
    ASSERT_NE(chain, nullptr);
    EXPECT_FALSE(chain->evicted()) << key;
    Timestamp got = 0;
    bool tomb = true;
    ASSERT_TRUE(chain->LatestCommitted(&got, &tomb));
    EXPECT_EQ(got, c) << key;
  }

  // Disk healed: the sweep now evicts (the failed attempt already spent
  // the chains' second-chance bits, so the first pass can evict), and
  // faulting back preserves values and commit timestamps.
  env.ClearFaults();
  size_t evicted = db->SpillChains(t);
  evicted += db->SpillChains(t);
  EXPECT_EQ(evicted, cts.size());
  for (const auto& [key, c] : cts) {
    std::string v;
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Get(t, key, &v).ok()) << key;
    txn->Commit();
    Timestamp got = 0;
    bool tomb = true;
    ASSERT_TRUE(db->table(t)->Find(key)->LatestCommitted(&got, &tomb));
    EXPECT_EQ(got, c) << key;
  }
}

TEST(FaultInjectionTest, ENOSPCMidCheckpointLeavesPriorCutLoadable) {
  ScratchDir dir;
  FaultInjectingEnv env;
  const std::string wal_dir = dir.path + "/wal";
  const std::string run_dir = wal_dir + "/runs";
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(FaultOptions(dir.path, &env), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  std::map<std::string, Timestamp> cts;
  auto put = [&](const std::string& key) {
    Timestamp c = 0;
    ASSERT_TRUE(CommitPut(db.get(), t, key, "v:" + key, &c).ok());
    cts[key] = c;
  };
  // Reopen on the healed disk: the previous manifest plus WAL replay (and
  // whatever runs were published) recover everything acked, with the
  // original commit timestamps.
  auto reopen_and_check = [&] {
    db.reset();
    env.ClearFaults();
    ASSERT_TRUE(DB::Open(FaultOptions(dir.path, &env), &db).ok());
    ASSERT_TRUE(db->FindTable("t", &t).ok());
    for (const auto& [key, c] : cts) {
      std::string v;
      auto txn = db->Begin({IsolationLevel::kSnapshot});
      ASSERT_TRUE(txn->Get(t, key, &v).ok()) << key;
      EXPECT_EQ(v, "v:" + key);
      txn->Commit();
      Timestamp got = 0;
      bool tomb = true;
      ASSERT_TRUE(db->table(t)->Find(key)->LatestCommitted(&got, &tomb));
      EXPECT_EQ(got, c) << key;
    }
  };
  put("a");
  put("b");
  ASSERT_TRUE(db->Checkpoint().ok());  // Healthy first cut.
  put("c");

  // ENOSPC mid-run: skip=1 lets the O_CREAT open of the run's .tmp
  // through, so the failure lands mid-write with a partial file on disk —
  // which the run writer must remove. (buffer_pool_bytes is 0: only
  // checkpoints write runs here.)
  env.InjectFault(FaultKind::kNoSpace, "run-", /*skip=*/1, /*count=*/1);
  Status st = db->Checkpoint();
  ASSERT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_FALSE(DirHasTmpFile(run_dir)) << "partial run .tmp must be removed";
  EXPECT_FALSE(DirHasTmpFile(wal_dir));
  EXPECT_GE(CounterValue(db.get(), "io.errors.checkpoint"), 1u);
  reopen_and_check();

  // ENOSPC mid-manifest: the new run is published, the manifest write
  // fails; the previous manifest still names the recovered cut.
  put("d");
  env.InjectFault(FaultKind::kNoSpace, "manifest-", /*skip=*/1, /*count=*/1);
  st = db->Checkpoint();
  ASSERT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_FALSE(DirHasTmpFile(wal_dir)) << "partial manifest .tmp removed";
  EXPECT_FALSE(DirHasTmpFile(run_dir));
  reopen_and_check();

  // The next checkpoint resumes where the failed ones left off.
  put("e");
  EXPECT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(db->checkpoints_taken(), 1u);
  reopen_and_check();
}

TEST(FaultInjectionTest, ENOSPCRunCreationCleansUpTmp) {
  ScratchDir dir;
  FaultInjectingEnv env;
  const std::string run_dir = dir.path + "/runs";
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(FaultOptions(dir.path, &env, /*with_tier=*/true), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        CommitPut(db.get(), t, "k" + std::to_string(i), "v").ok());
  }
  // skip=1 lets the run .tmp be created, then the first page write fails.
  env.InjectFault(FaultKind::kNoSpace, "run-", /*skip=*/1, /*count=*/1);
  db->SpillChains(t);
  EXPECT_EQ(db->SpillChains(t), 0u);
  EXPECT_FALSE(DirHasTmpFile(run_dir)) << "failed run's .tmp must be removed";
  EXPECT_EQ(db->storage_tier()->run_count(t), 0u);

  // Chains stayed resident; the healed disk spills them on the next sweep
  // (second-chance bits were already spent by the failed attempt).
  env.ClearFaults();
  size_t evicted = db->SpillChains(t);
  evicted += db->SpillChains(t);
  EXPECT_EQ(evicted, 4u);
  EXPECT_EQ(db->storage_tier()->run_count(t), 1u);
  std::string v;
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  EXPECT_TRUE(txn->Get(t, "k0", &v).ok());
  txn->Commit();
}

TEST(FaultInjectionTest, BufferPoolWritebackEIOKeepsPageContent) {
  ScratchDir dir;
  FaultInjectingEnv env;
  constexpr uint32_t kPage = 512;
  BufferPool pool(4 * kPage, kPage, &env);
  const std::string path = dir.path + "/run-pool-test";
  const int fd = env.Open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  pool.RegisterFile(std::make_shared<PoolFile>(1, fd, &env));

  // Fill all four frames with dirty pages.
  auto fill = [&](uint8_t* page, uint32_t page_no) {
    for (uint32_t i = 0; i < kPage; ++i) {
      page[i] = static_cast<uint8_t>((page_no * 31 + i) & 0xFF);
    }
  };
  auto check = [&](const uint8_t* page, uint32_t page_no) {
    for (uint32_t i = 0; i < kPage; ++i) {
      if (page[i] != static_cast<uint8_t>((page_no * 31 + i) & 0xFF)) {
        return false;
      }
    }
    return true;
  };
  for (uint32_t p = 0; p < 4; ++p) {
    BufferPool::WritePin wp;
    ASSERT_TRUE(pool.PinForWrite(1, p, &wp).ok());
    fill(wp.data, p);
    pool.Unpin(wp.frame);
  }

  // A fifth page needs a victim; every victim is dirty and every write
  // fails. The claim must fail WITHOUT losing the victim's content: the
  // frame keeps its tag, its dirty bit and its bytes.
  env.InjectFault(FaultKind::kWriteError, "run-");
  BufferPool::WritePin wp;
  Status st = pool.PinForWrite(1, 4, &wp);
  ASSERT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_GE(pool.io_errors(), 1u);
  EXPECT_GE(pool.io_retries(), 2u) << "bounded retry ran";

  // Every original page is still readable from its frame, bytes intact.
  for (uint32_t p = 0; p < 4; ++p) {
    BufferPool::Pin pin;
    ASSERT_TRUE(pool.PinPage(1, p, &pin).ok());
    EXPECT_TRUE(check(pin.data, p)) << "page " << p;
    pool.Unpin(pin.frame);
  }

  // Heal the disk: the frames are still dirty (the failed writeback must
  // not have cleared the bit), so FlushFile lands the original bytes.
  env.ClearFaults();
  ASSERT_TRUE(pool.FlushFile(1).ok());
  const int rfd = env.Open(path.c_str(), O_RDONLY, 0);
  ASSERT_GE(rfd, 0);
  uint8_t page[kPage];
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_EQ(env.Pread(rfd, page, kPage, static_cast<off_t>(p) * kPage),
              static_cast<ssize_t>(kPage));
    EXPECT_TRUE(check(page, p)) << "page " << p;
  }
  env.Close(rfd);
}

// The capstone: a seeded schedule injects an EIO mid-spill, an ENOSPC
// mid-checkpoint (its manifest) and a WAL fsync failure mid-run, in one
// process life.
// Every commit acknowledged OK must survive the subsequent heal + reopen
// with its original commit timestamp; the fsync failure must flip the DB
// read-only for the remainder of the run.
TEST(FaultInjectionTest, ScheduledMultiFaultRunRecoversAckedCommits) {
  ScratchDir dir;
  FaultInjectingEnv env;
  // Fsync ops on WAL segments: #1 is the table create, #2..#12 are
  // commits 1..11, #13 (commit 12) fails and poisons the log.
  env.InjectFault(FaultKind::kFsyncError, "wal-", /*skip=*/12, /*count=*/1);
  env.InjectFault(FaultKind::kWriteError, "run-", /*skip=*/2, /*count=*/1);
  env.InjectFault(FaultKind::kNoSpace, "manifest-", /*skip=*/1, /*count=*/1);

  std::map<std::string, Timestamp> acked;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(
        DB::Open(FaultOptions(dir.path, &env, /*with_tier=*/true), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    uint64_t io_failures = 0;
    for (int i = 1; i <= 20; ++i) {
      const std::string key = "k" + std::to_string(i);
      Timestamp cts = 0;
      Status st = CommitPut(db.get(), t, key, "v" + std::to_string(i), &cts);
      if (st.ok()) {
        acked[key] = cts;
      } else {
        ASSERT_TRUE(st.IsIOError()) << st.ToString();
        ++io_failures;
      }
      if (i % 6 == 0) {
        // Background-style maintenance mid-schedule: the spill hits the
        // scripted run EIO, the checkpoint hits the scripted ENOSPC.
        db->SpillChains(t);
        db->SpillChains(t);
        db->Checkpoint();
      }
    }
    EXPECT_EQ(acked.size(), 11u) << "commits 1..11 acked, 12+ failed";
    EXPECT_GE(io_failures, 9u);
    EXPECT_TRUE(db->read_only());
    EXPECT_GE(env.injected_faults(), 3u);
    // Reads of acked state keep working in degraded mode.
    std::string v;
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    EXPECT_TRUE(txn->Get(t, "k1", &v).ok());
    EXPECT_EQ(v, "v1");
    txn->Commit();
  }

  // Heal and reopen: every acked commit is present, atomically, with its
  // original commit timestamp; no unacked write leaked in.
  env.ClearFaults();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(FaultOptions(dir.path, &env, /*with_tier=*/true), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  EXPECT_FALSE(db->read_only());
  for (const auto& [key, cts] : acked) {
    std::string v;
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Get(t, key, &v).ok()) << key;
    EXPECT_EQ(v, "v" + key.substr(1));
    txn->Commit();
    Timestamp got = 0;
    bool tomb = true;
    ASSERT_TRUE(db->table(t)->Find(key)->LatestCommitted(&got, &tomb));
    EXPECT_EQ(got, cts) << key;
  }
  // Commits 13+ failed fast at the read-only gate: no WAL append, no
  // timestamp — they must be gone. (Commit 12 is indeterminate by design:
  // its record's write() landed before the failed fsync(), so without an
  // actual page-cache loss it may replay; kIOError only means the
  // durability *promise* was withdrawn.)
  for (int i = 13; i <= 20; ++i) {
    std::string v;
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    Status st = txn->Get(t, "k" + std::to_string(i), &v);
    EXPECT_TRUE(st.IsNotFound()) << "unacked k" << i << " must not recover";
    txn->Commit();
  }
  EXPECT_TRUE(CommitPut(db.get(), t, "post", "heal").ok());
}

}  // namespace
}  // namespace ssidb
