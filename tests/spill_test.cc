// Storage-tier integration tests: the spill / fault protocols between
// Table, VersionChain and StorageTier.
//
// The invariants under test (see version.h and storage_tier.h):
//   * a spill/fault round trip preserves the original commit timestamp,
//     value and tombstone flag of the chain anchor;
//   * reads, scans and write-path visibility checks transparently fault
//     evicted chains back in;
//   * the second-chance clock bit keeps hot chains resident;
//   * runs are the durable home of spilled keys across restarts (recovery
//     opens runs instead of replaying everything into RAM);
//   * compaction merges runs keeping the newest commit per key, streaming
//     the same result a whole-table map merge would give, and a read
//     error mid-merge leaves the inputs published and no file behind;
//   * spills, checkpoints and compactions racing on one table never let
//     an older version shadow a newer one (the tier's producer mutex);
//   * a write whose entry cannot fit a run page is rejected up front.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "src/io/env.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/run_file.h"
#include "src/storage/storage_tier.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

DBOptions TierOptions(const std::string& dir) {
  DBOptions opts;
  opts.buffer_pool_bytes = 1 << 16;  // 16 frames of 4 KiB.
  opts.run_page_bytes = 4096;
  opts.data_dir = dir;
  // The tests drive spilling explicitly; the background sweeper would race
  // the exact counts.
  opts.version_gc_interval_ms = 0;
  return opts;
}

struct TierFixture {
  ScratchDir dir;  // Declared first: outlives the DB (and its tier).
  std::unique_ptr<DB> db;
  TableId table = 0;

  explicit TierFixture(io::Env* env = nullptr) {
    DBOptions opts = TierOptions(dir.path);
    opts.env = env;
    EXPECT_TRUE(DB::Open(opts, &db).ok());
    EXPECT_TRUE(db->CreateTable("t", &table).ok());
  }

  void Put(Slice key, Slice value) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(table, key, value).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  void Del(Slice key) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Delete(table, key).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  Status Get(Slice key, std::string* value) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    Status st = txn->Get(table, key, value);
    txn->Commit();
    return st;
  }

  /// Evict every currently-cold committed chain: the first sweep clears
  /// the second-chance bits, the second evicts. Returns chains evicted.
  size_t SpillAll() {
    db->SpillChains(table);
    return db->SpillChains(table);
  }

  VersionChain* Chain(Slice key) { return db->table(table)->Find(key); }
};

TEST(SpillTest, RoundTripPreservesValueAndCommitTimestamp) {
  TierFixture f;
  constexpr uint64_t kKeys = 16;
  std::vector<Timestamp> cts(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    f.Put(EncodeU64Key(i), "v" + std::to_string(i));
  }
  for (uint64_t i = 0; i < kKeys; ++i) {
    bool tomb = true;
    ASSERT_TRUE(f.Chain(EncodeU64Key(i))->LatestCommitted(&cts[i], &tomb));
    EXPECT_FALSE(tomb);
  }

  ASSERT_EQ(f.SpillAll(), kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    VersionChain* chain = f.Chain(EncodeU64Key(i));
    EXPECT_TRUE(chain->evicted());
    EXPECT_EQ(chain->size(), 0u) << "evicted chain must hold no versions";
  }

  // Reads fault the anchors back with value + commit_ts intact.
  for (uint64_t i = 0; i < kKeys; ++i) {
    std::string v;
    ASSERT_TRUE(f.Get(EncodeU64Key(i), &v).ok());
    EXPECT_EQ(v, "v" + std::to_string(i));
    VersionChain* chain = f.Chain(EncodeU64Key(i));
    EXPECT_FALSE(chain->evicted());
    Timestamp after = 0;
    bool tomb = true;
    ASSERT_TRUE(chain->LatestCommitted(&after, &tomb));
    EXPECT_EQ(after, cts[i]) << "fault must keep the original commit_ts";
    EXPECT_FALSE(tomb);
  }
  EXPECT_EQ(CounterOf(f.db.get(), "tier.faulted_chains"), kKeys);
}

TEST(SpillTest, TombstonesSpillAndGateInserts) {
  TierFixture f;
  f.Put("gone", "x");
  f.Put("also-gone", "y");
  f.Del("gone");
  f.Del("also-gone");
  Timestamp del_cts = 0;
  bool tomb = false;
  ASSERT_TRUE(f.Chain("gone")->LatestCommitted(&del_cts, &tomb));
  ASSERT_TRUE(tomb);

  ASSERT_EQ(f.SpillAll(), 2u);
  EXPECT_TRUE(f.Chain("gone")->evicted());

  // A read faults the tombstone back and correctly reports not-found.
  std::string v;
  EXPECT_TRUE(f.Get("gone", &v).IsNotFound());
  Timestamp after = 0;
  ASSERT_TRUE(f.Chain("gone")->LatestCommitted(&after, &tomb));
  EXPECT_TRUE(tomb) << "tombstone flag must survive the round trip";
  EXPECT_EQ(after, del_cts);

  // Insert's duplicate check on the OTHER spilled tombstone exercises the
  // write-path fault loop (no prior read): the faulted tombstone says the
  // key does not exist, so the insert must succeed.
  {
    auto txn = f.db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Insert(f.table, "also-gone", "back").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(f.Get("also-gone", &v).ok());
  EXPECT_EQ(v, "back");

  // And inserting over a spilled LIVE anchor must fail as a duplicate.
  f.Put("alive", "1");
  ASSERT_GE(f.SpillAll(), 1u);
  {
    auto txn = f.db->Begin({IsolationLevel::kSnapshot});
    EXPECT_TRUE(txn->Insert(f.table, "alive", "2").IsDuplicateKey());
    txn->Abort();
  }
}

TEST(SpillTest, ScansFaultEvictedChains) {
  TierFixture f;
  constexpr uint64_t kKeys = 24;
  for (uint64_t i = 0; i < kKeys; ++i) {
    f.Put(EncodeU64Key(i), std::to_string(i));
  }
  ASSERT_EQ(f.SpillAll(), kKeys);

  auto txn = f.db->Begin({IsolationLevel::kSnapshot});
  uint64_t seen = 0;
  ASSERT_TRUE(txn->Scan(f.table, EncodeU64Key(0), EncodeU64Key(kKeys),
                        [&](Slice key, Slice value) {
                          EXPECT_EQ(key, Slice(EncodeU64Key(seen)));
                          EXPECT_EQ(value, Slice(std::to_string(seen)));
                          ++seen;
                          return true;
                        })
                  .ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(seen, kKeys) << "a scan must surface every spilled key";
  EXPECT_EQ(CounterOf(f.db.get(), "tier.faulted_chains"), kKeys);
}

TEST(SpillTest, SecondChanceKeepsHotChainsResident) {
  TierFixture f;
  f.Put("hot", "h");
  f.Put("cold", "c");
  // First sweep clears both clock bits...
  EXPECT_EQ(f.db->SpillChains(f.table), 0u);
  // ...then a read re-arms the hot chain's bit.
  std::string v;
  ASSERT_TRUE(f.Get("hot", &v).ok());
  // The second sweep evicts only the cold chain (the hot one has its bit
  // cleared again, so a THIRD untouched sweep would take it).
  EXPECT_EQ(f.db->SpillChains(f.table), 1u);
  EXPECT_FALSE(f.Chain("hot")->evicted());
  EXPECT_TRUE(f.Chain("cold")->evicted());
}

TEST(SpillTest, UpdateAfterSpillFaultsAndSupersedes) {
  TierFixture f;
  f.Put("k", "old");
  ASSERT_EQ(f.SpillAll(), 1u);
  // Upsert over the evicted chain: unlike insert/delete, an upsert needs no
  // visibility check, so it installs at the head WITHOUT faulting the old
  // anchor in. The chain becomes hybrid: one resident version, still marked
  // evicted (the stale anchor lives only in the run).
  f.Put("k", "new");
  std::string v;
  ASSERT_TRUE(f.Get("k", &v).ok());
  EXPECT_EQ(v, "new");
  EXPECT_EQ(f.Chain("k")->size(), 1u);
  EXPECT_TRUE(f.Chain("k")->evicted()) << "hybrid: stale anchor still in run";

  // The hybrid chain re-spills through the normal path: its new head becomes
  // the new anchor, shadowing the stale run entry (newest-first lookup), and
  // a fresh fault returns the new value.
  ASSERT_EQ(f.SpillAll(), 1u);
  EXPECT_EQ(f.Chain("k")->size(), 0u);
  ASSERT_TRUE(f.Get("k", &v).ok());
  EXPECT_EQ(v, "new");
}

TEST(SpillTest, CompactionMergesRunsKeepingNewestCommit) {
  TierFixture f;
  StorageTier* tier = f.db->storage_tier();
  ASSERT_NE(tier, nullptr);
  constexpr uint64_t kKeys = 8;
  // Four waves of updates, each followed by a full spill: four runs, every
  // key present in each with increasing commit timestamps.
  for (int wave = 0; wave < 4; ++wave) {
    for (uint64_t i = 0; i < kKeys; ++i) {
      f.Put(EncodeU64Key(i), "w" + std::to_string(wave));
    }
    ASSERT_EQ(f.SpillAll(), kKeys);
  }
  ASSERT_EQ(tier->run_count(f.table), 4u);

  ASSERT_TRUE(tier->MaybeCompact(tier->LockProducers(), f.table).ok());
  EXPECT_EQ(tier->run_count(f.table), 1u);

  // Faults after compaction see the newest wave.
  for (uint64_t i = 0; i < kKeys; ++i) {
    std::string v;
    ASSERT_TRUE(f.Get(EncodeU64Key(i), &v).ok());
    EXPECT_EQ(v, "w3");
  }
}

/// The run files in `dir`, sorted by name (table id, then sequence).
std::vector<std::string> RunFiles(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Every entry of the run at `path`, read through a private pool; its
/// page count goes to *pages.
std::vector<RunEntry> ReadRun(const std::string& path, uint64_t file_id,
                              uint32_t* pages = nullptr) {
  BufferPool pool(4 * 4096, 4096);
  std::shared_ptr<RunFile> run;
  EXPECT_TRUE(RunFile::Open(path, file_id, &pool, &run).ok()) << path;
  std::vector<RunEntry> entries;
  if (run == nullptr) return entries;
  if (pages != nullptr) *pages = run->page_count();
  EXPECT_TRUE(run->ForEachEntry([&](const RunEntryView& e) {
                    entries.push_back(RunEntry{e.key.ToString(),
                                               e.value.ToString(),
                                               e.commit_ts, e.tombstone});
                  })
                  .ok());
  return entries;
}

/// Four spilled waves over 64 keys: wave 0 writes every key with a value
/// long enough that its run spans many pages; wave 1 rewrites the even
/// keys; wave 2 deletes every fifth key (tombstones); wave 3 rewrites the
/// keys = 1 mod 3 (re-inserting 10, 25, 40, 55). Keys like 11 stay only in
/// the oldest run, and rewritten keys sit in several runs under different
/// commit_ts.
void BuildFourWaves(TierFixture* f) {
  constexpr uint64_t kKeys = 64;
  for (uint64_t i = 0; i < kKeys; ++i) {
    f->Put(EncodeU64Key(i), std::string(300, 'a' + i % 26));
  }
  f->SpillAll();
  for (uint64_t i = 0; i < kKeys; i += 2) {
    f->Put(EncodeU64Key(i), "even" + std::to_string(i));
  }
  f->SpillAll();
  for (uint64_t i = 0; i < kKeys; i += 5) f->Del(EncodeU64Key(i));
  f->SpillAll();
  for (uint64_t i = 1; i < kKeys; i += 3) {
    f->Put(EncodeU64Key(i), "third" + std::to_string(i));
  }
  f->SpillAll();
}

/// Whether key i ends BuildFourWaves deleted.
bool EndsDeleted(uint64_t i) { return i % 5 == 0 && i % 3 != 1; }

TEST(SpillTest, StreamingCompactionMatchesReferenceMerge) {
  TierFixture f;
  StorageTier* tier = f.db->storage_tier();
  BuildFourWaves(&f);
  ASSERT_EQ(tier->run_count(f.table), 4u);
  const std::vector<std::string> inputs = RunFiles(f.dir.path);
  ASSERT_EQ(inputs.size(), 4u);

  // Reference: a whole-table map merge of the inputs, newest commit_ts
  // per key, tombstones kept.
  std::map<std::string, RunEntry> reference;
  uint64_t file_id = 1000;
  for (const std::string& name : inputs) {
    uint32_t pages = 0;
    for (RunEntry& e : ReadRun(f.dir.path + "/" + name, file_id++, &pages)) {
      auto it = reference.find(e.key);
      if (it == reference.end()) {
        reference.emplace(e.key, std::move(e));
      } else if (e.commit_ts > it->second.commit_ts) {
        it->second = std::move(e);
      }
    }
    if (name == inputs[0]) {
      EXPECT_GE(pages, 4u) << "the oldest run must span many pages";
    }
  }
  ASSERT_EQ(reference.size(), 64u);
  EXPECT_EQ(reference.at(EncodeU64Key(11)).value, std::string(300, 'l'))
      << "a key only the oldest run holds survives";
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(reference.at(EncodeU64Key(i)).tombstone, EndsDeleted(i)) << i;
  }

  // What a fault reads for every key before the merge.
  std::map<std::string, RunEntry> before;
  for (const auto& [key, want] : reference) {
    RunEntry got;
    bool found = false;
    ASSERT_TRUE(tier->Lookup(f.table, key, &got, &found).ok());
    ASSERT_TRUE(found);
    before.emplace(key, std::move(got));
  }

  const uint64_t probes = tier->lookup_probes();
  EXPECT_GE(probes, reference.size()) << "each lookup pins at least a page";
  ASSERT_TRUE(tier->MaybeCompact(tier->LockProducers(), f.table).ok());
  EXPECT_EQ(tier->run_count(f.table), 1u);
  EXPECT_EQ(tier->compactions(), 1u);
  const std::vector<std::string> outputs = RunFiles(f.dir.path);
  ASSERT_EQ(outputs.size(), 1u) << "inputs deleted, no .tmp left";

  const std::vector<RunEntry> merged =
      ReadRun(f.dir.path + "/" + outputs[0], file_id++);
  ASSERT_EQ(merged.size(), reference.size());
  auto ref = reference.begin();
  for (const RunEntry& e : merged) {
    EXPECT_EQ(e.key, ref->second.key);
    EXPECT_EQ(e.value, ref->second.value);
    EXPECT_EQ(e.commit_ts, ref->second.commit_ts);
    EXPECT_EQ(e.tombstone, ref->second.tombstone);
    ++ref;
  }

  // Every key faults to the same entry after the merge, in one probe.
  for (const auto& [key, want] : before) {
    RunEntry got;
    bool found = false;
    ASSERT_TRUE(tier->Lookup(f.table, key, &got, &found).ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.commit_ts, want.commit_ts);
    EXPECT_EQ(got.tombstone, want.tombstone);
    std::string v;
    const Status st = f.Get(key, &v);
    if (want.tombstone) {
      EXPECT_TRUE(st.IsNotFound()) << st.ToString();
    } else {
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(v, want.value);
    }
  }
  EXPECT_EQ(tier->lookup_probes() - probes, 2 * before.size())
      << "one page per lookup: the direct ones, then the Gets' faults";
}

TEST(SpillTest, CompactionReadErrorLeavesInputsPublished) {
  io::FaultInjectingEnv env;
  TierFixture f(&env);
  StorageTier* tier = f.db->storage_tier();
  BuildFourWaves(&f);
  ASSERT_EQ(tier->run_count(f.table), 4u);
  const std::vector<std::string> inputs = RunFiles(f.dir.path);
  ASSERT_EQ(inputs.size(), 4u);

  // The oldest run's first page reads fine, its second fails: the merge
  // has started writing the replacement when the cursor errors.
  env.InjectFault(io::FaultInjectingEnv::FaultKind::kReadError, inputs[0],
                  /*skip=*/1, /*count=*/1);
  const uint64_t io_errors = tier->io_errors();
  const Status st = tier->MaybeCompact(tier->LockProducers(), f.table);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(tier->run_count(f.table), 4u);
  EXPECT_EQ(tier->compactions(), 0u);
  EXPECT_EQ(tier->io_errors(), io_errors + 1);
  EXPECT_EQ(RunFiles(f.dir.path), inputs)
      << "no replacement .run or .tmp may be left";

  // The disk heals: the next pass merges, and every read still answers.
  env.ClearFaults();
  ASSERT_TRUE(tier->MaybeCompact(tier->LockProducers(), f.table).ok());
  EXPECT_EQ(tier->run_count(f.table), 1u);
  for (uint64_t i = 0; i < 64; ++i) {
    std::string v;
    const Status got = f.Get(EncodeU64Key(i), &v);
    if (EndsDeleted(i)) {
      EXPECT_TRUE(got.IsNotFound()) << i;
    } else {
      ASSERT_TRUE(got.ok()) << i << " " << got.ToString();
      EXPECT_FALSE(v.empty());
    }
  }
}

TEST(SpillTest, RunsAreTheDurableHomeAcrossRestart) {
  ScratchDir dir;
  DBOptions opts = TierOptions(dir.path + "/runs");
  opts.log.wal_dir = dir.path + "/wal";
  constexpr uint64_t kKeys = 16;
  std::vector<Timestamp> cts(kKeys);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId table = 0;
    ASSERT_TRUE(db->CreateTable("t", &table).ok());
    {
      auto txn = db->Begin({IsolationLevel::kSnapshot});
      for (uint64_t i = 0; i < kKeys; ++i) {
        ASSERT_TRUE(txn->Put(table, EncodeU64Key(i), "d" + std::to_string(i))
                        .ok());
      }
      ASSERT_TRUE(txn->Commit().ok());
    }
    for (uint64_t i = 0; i < kKeys; ++i) {
      bool tomb = true;
      ASSERT_TRUE(
          db->table(table)->Find(EncodeU64Key(i))->LatestCommitted(&cts[i],
                                                                   &tomb));
    }
    db->SpillChains(table);
    ASSERT_EQ(db->SpillChains(table), kKeys);
    // The checkpoint's sweep skips the evicted chains: their spill run is
    // already durable, and stays their home from here on.
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Reopen: recovery must open the runs and leave the spilled chains on
  // disk (nothing committed past the checkpoint's cut, so WAL replay
  // installs nothing; the values and their original commit timestamps
  // survive in the run).
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  const TableId table = 0;
  ASSERT_GT(db->storage_tier()->run_count(table), 0u);
  for (uint64_t i = 0; i < kKeys; ++i) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(table, EncodeU64Key(i), &v).ok()) << i;
    EXPECT_EQ(v, "d" + std::to_string(i));
    txn->Commit();
    Timestamp after = 0;
    bool tomb = true;
    ASSERT_TRUE(
        db->table(table)->Find(EncodeU64Key(i))->LatestCommitted(&after,
                                                                 &tomb));
    EXPECT_EQ(after, cts[i]) << "restart must keep the original commit_ts";
    EXPECT_FALSE(tomb);
  }
}

/// Concurrent readers/writers against a continuously spilling and
/// compacting table (the TSan job's integration stress): every read must
/// see a committed value, whatever the chain's residency at that instant.
TEST(SpillTest, ConcurrentSpillFaultStress) {
  TierFixture f;
  constexpr uint64_t kKeys = 64;
  for (uint64_t i = 0; i < kKeys; ++i) {
    f.Put(EncodeU64Key(i), "0");
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Spiller: plays the background sweeper, continuously.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      f.db->SpillChains(f.table);
      StorageTier* tier = f.db->storage_tier();
      tier->MaybeCompact(tier->LockProducers(), f.table);
    }
  });
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) * 53 + 3);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key = EncodeU64Key(rng.Uniform(kKeys));
        auto txn = f.db->Begin({IsolationLevel::kSnapshot});
        if (rng.Uniform(4) == 0) {
          txn->Put(f.table, key, std::to_string(rng.Uniform(1000)));
          txn->Commit();
        } else {
          std::string v;
          Status st = txn->Get(f.table, key, &v);
          // Transient IOError (fault retry exhaustion) is permitted by the
          // contract; a NotFound would mean a committed key vanished.
          if (st.IsNotFound()) failed.store(true);
          txn->Commit();
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load()) << "a committed key disappeared";
  // Quiesced sanity: everything reads back.
  for (uint64_t i = 0; i < kKeys; ++i) {
    std::string v;
    EXPECT_TRUE(f.Get(EncodeU64Key(i), &v).ok()) << i;
  }
}

TEST(SpillTest, OversizedEntriesRejectedAtTheBoundary) {
  ScratchDir dir;
  DBOptions durable;
  durable.log.wal_dir = dir.path + "/wal";
  durable.run_page_bytes = 4096;
  const std::string key = "big";
  // The largest value whose run encoding still fits one page.
  const uint64_t limit = RunFile::MaxEntryBytes(durable.run_page_bytes) -
                         RunFile::EncodedEntryBytes(key.size(), 0);
  const std::string at_limit(limit, 'x');
  const std::string over(limit + 1, 'y');
  Timestamp cts = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(durable, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(t, key, at_limit).ok());
    EXPECT_TRUE(txn->Put(t, "other", over).IsInvalidArgument());
    EXPECT_TRUE(txn->Insert(t, "other", over).IsInvalidArgument());
    ASSERT_TRUE(txn->Commit().ok());  // A statement error, not an abort.
    cts = txn->commit_ts();
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(durable, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("t", &t).ok());
    EXPECT_TRUE(db->table(t)->Find(key)->evicted());  // Home: the run.
    EXPECT_EQ(db->table(t)->Find("other"), nullptr);
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(t, key, &v).ok());
    EXPECT_EQ(v, at_limit);
    ASSERT_TRUE(txn->Commit().ok());
    Timestamp got = 0;
    ASSERT_TRUE(db->table(t)->Find(key)->LatestCommitted(&got, nullptr));
    EXPECT_EQ(got, cts);
  }
  // A version written under a larger run page and replayed from the WAL
  // under a smaller one cannot enter a run: the checkpoint fails cleanly
  // (no run, no .tmp) and the version stays readable.
  {
    DBOptions large = durable;
    large.log.wal_dir = dir.path + "/wal-large";
    large.run_page_bytes = 2 * durable.run_page_bytes;
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(large, &db).ok());
      TableId t = 0;
      ASSERT_TRUE(db->CreateTable("t", &t).ok());
      auto txn = db->Begin({IsolationLevel::kSnapshot});
      ASSERT_TRUE(txn->Put(t, key, over).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    large.run_page_bytes = durable.run_page_bytes;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(large, &db).ok());
    EXPECT_TRUE(db->Checkpoint().IsInvalidArgument());
    EXPECT_TRUE(RunFiles(large.log.wal_dir + "/runs").empty());
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("t", &t).ok());
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(t, key, &v).ok());
    EXPECT_EQ(v, over);
    ASSERT_TRUE(txn->Commit().ok());
  }
  // A spilling in-memory engine (data_dir + pool, no WAL) has the same
  // boundary; a memory-only engine has no run page and accepts both.
  DBOptions spilling = TierOptions(dir.path + "/spill");
  DBOptions memory_only;
  for (const DBOptions& opts : {spilling, memory_only}) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    EXPECT_TRUE(txn->Put(t, key, at_limit).ok());
    EXPECT_EQ(txn->Put(t, "other", over).ok(), db->storage_tier() == nullptr);
    EXPECT_TRUE(txn->Commit().ok());
  }
}

/// Writers, a spill loop and a checkpoint loop (which compacts) race on
/// one table, then the DB closes and reopens. Each writer owns its keys,
/// so the newest acknowledged value per key is known: every in-flight
/// read of an own key must return it, and so must every read after the
/// reopen, with its original commit timestamp. Without the tier's
/// producer mutex a compaction could publish a merged run above a spill
/// or checkpoint run it never read, shadowing the newer version.
TEST(SpillTest, CheckpointSpillAndCompactionRaceKeepsNewestAcrossReopen) {
  ScratchDir dir;
  DBOptions opts = TierOptions(dir.path + "/runs");
  opts.log.wal_dir = dir.path + "/wal";
  opts.log.wal_fsync = false;  // Closing the DB drains the log anyway.
  constexpr uint64_t kKeys = 256;
  constexpr int kWriters = 2;
  struct Acked {
    std::string value;
    Timestamp cts = 0;
  };
  std::vector<Acked> acked(kKeys);  // Key i is written only by i % kWriters.
  TableId table = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", &table).ok());
    std::atomic<bool> stop_writers{false};
    std::atomic<bool> stop_producers{false};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        Random rng(static_cast<uint64_t>(w) * 977 + 5);
        for (uint64_t n = 0; !stop_writers.load(std::memory_order_relaxed);
             ++n) {
          const uint64_t i = rng.Uniform(kKeys / kWriters) * kWriters + w;
          const std::string key = EncodeU64Key(i);
          auto txn = db->Begin({IsolationLevel::kSnapshot});
          std::string v;
          const Status got = txn->Get(table, key, &v);
          if (acked[i].cts == 0 ? !got.IsNotFound()
                                : !got.ok() || v != acked[i].value) {
            if (!got.IsIOError()) failed.store(true);  // IOError: retry.
            txn->Abort();
            continue;
          }
          const std::string value =
              "w" + std::to_string(w) + "n" + std::to_string(n) +
              std::string(64 + n % 64, 'a' + n % 26);
          if (txn->Put(table, key, value).ok() && txn->Commit().ok()) {
            acked[i] = Acked{value, txn->commit_ts()};
          }
        }
      });
    }
    threads.emplace_back([&] {
      while (!stop_producers.load(std::memory_order_relaxed)) {
        db->SpillChains(table);
      }
    });
    threads.emplace_back([&] {
      while (!stop_producers.load(std::memory_order_relaxed)) {
        db->Checkpoint();
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    stop_writers.store(true);
    threads[0].join();
    threads[1].join();
    // Producers keep going over the final values for a moment.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop_producers.store(true);
    for (size_t k = 2; k < threads.size(); ++k) threads[k].join();
    EXPECT_FALSE(failed.load()) << "a read missed its own newest write";
    EXPECT_GT(db->checkpoints_taken(), 0u);
    EXPECT_GT(CounterOf(db.get(), "tier.spilled_chains"), 0u);
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  for (uint64_t i = 0; i < kKeys; ++i) {
    const std::string key = EncodeU64Key(i);
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    const Status got = txn->Get(table, key, &v);
    ASSERT_TRUE(txn->Commit().ok());
    if (acked[i].cts == 0) {
      EXPECT_TRUE(got.IsNotFound()) << i;
      continue;
    }
    ASSERT_TRUE(got.ok()) << i << " " << got.ToString();
    EXPECT_EQ(v, acked[i].value) << i;
    Timestamp cts = 0;
    ASSERT_TRUE(db->table(table)->Find(key)->LatestCommitted(&cts, nullptr));
    EXPECT_EQ(cts, acked[i].cts) << i;
  }
}

}  // namespace
}  // namespace ssidb
