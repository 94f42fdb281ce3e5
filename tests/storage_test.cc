// Unit tests for src/storage: version-chain visibility, first-committer-wins
// evidence, tombstones, pruning, and the ordered table index (next-key
// queries that feed the gap-locking protocol).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/encoding.h"
#include "src/storage/table.h"
#include "src/storage/version.h"

namespace ssidb {
namespace {

/// Install an uncommitted version and stamp it committed at `cts`, the way
/// the transaction manager does.
Version* CommitVersion(VersionChain* chain, TxnId txn, Slice value,
                       Timestamp cts, bool tombstone = false) {
  bool replaced = false;
  Version* v = chain->InstallUncommitted(txn, value, tombstone, &replaced);
  v->commit_ts.store(cts);
  return v;
}

TEST(VersionChainTest, EmptyChainReadsNothing) {
  VersionChain chain;
  std::string value;
  ReadResult r = chain.Read(/*reader=*/1, /*read_ts=*/100, &value);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.own_write);
  EXPECT_TRUE(r.newer.empty());
}

TEST(VersionChainTest, SnapshotSeesVersionCommittedAtOrBeforeReadTs) {
  VersionChain chain;
  CommitVersion(&chain, 1, "v1", 10);
  std::string value;
  ReadResult r = chain.Read(2, 10, &value);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(value, "v1");
  EXPECT_EQ(r.version_cts, 10u);
  r = chain.Read(2, 9, &value);
  EXPECT_FALSE(r.found);
}

TEST(VersionChainTest, SnapshotIgnoresNewerVersionsAndReportsThem) {
  // Fig 3.4 lines 8-9: the ignored newer versions are rw-conflict evidence.
  VersionChain chain;
  CommitVersion(&chain, 1, "v1", 10);
  CommitVersion(&chain, 2, "v2", 20);
  CommitVersion(&chain, 3, "v3", 30);
  std::string value;
  ReadResult r = chain.Read(9, /*read_ts=*/15, &value);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(value, "v1");
  ASSERT_EQ(r.newer.size(), 2u);
  // Newest first.
  EXPECT_EQ(r.newer[0].creator_txn_id, 3u);
  EXPECT_EQ(r.newer[0].commit_ts, 30u);
  EXPECT_EQ(r.newer[1].creator_txn_id, 2u);
  EXPECT_EQ(r.newer[1].commit_ts, 20u);
}

TEST(VersionChainTest, ReaderSeesOwnUncommittedWrite) {
  VersionChain chain;
  CommitVersion(&chain, 1, "committed", 10);
  bool replaced = false;
  chain.InstallUncommitted(7, "mine", false, &replaced);
  EXPECT_FALSE(replaced);
  std::string value;
  ReadResult r = chain.Read(7, 15, &value);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.own_write);
  EXPECT_EQ(value, "mine");
  // Another reader does not see it.
  r = chain.Read(8, 15, &value);
  EXPECT_FALSE(r.own_write);
  EXPECT_EQ(value, "committed");
}

TEST(VersionChainTest, SecondOwnWriteReplacesInPlace) {
  VersionChain chain;
  bool replaced = false;
  chain.InstallUncommitted(7, "a", false, &replaced);
  EXPECT_FALSE(replaced);
  chain.InstallUncommitted(7, "b", false, &replaced);
  EXPECT_TRUE(replaced);
  EXPECT_EQ(chain.size(), 1u);
  std::string value;
  ReadResult r = chain.Read(7, 1, &value);
  EXPECT_EQ(value, "b");
}

TEST(VersionChainTest, UncommittedVersionInvisibleAfterRemove) {
  VersionChain chain;
  CommitVersion(&chain, 1, "v1", 10);
  bool replaced = false;
  chain.InstallUncommitted(7, "doomed", false, &replaced);
  chain.RemoveUncommitted(7);
  std::string value;
  ReadResult r = chain.Read(7, 15, &value);
  EXPECT_FALSE(r.own_write);
  EXPECT_EQ(value, "v1");
  EXPECT_EQ(chain.size(), 1u);
}

TEST(VersionChainTest, RemoveUncommittedIsNoOpWithoutOwnVersion) {
  VersionChain chain;
  CommitVersion(&chain, 1, "v1", 10);
  chain.RemoveUncommitted(42);
  EXPECT_EQ(chain.size(), 1u);
}

TEST(VersionChainTest, TombstoneHidesKeyButReportsVersion) {
  VersionChain chain;
  CommitVersion(&chain, 1, "v1", 10);
  CommitVersion(&chain, 2, "", 20, /*tombstone=*/true);
  std::string value;
  ReadResult r = chain.Read(9, 25, &value);
  EXPECT_FALSE(r.found);           // Deleted as of ts 25...
  EXPECT_EQ(r.version_cts, 20u);   // ...but the tombstone version is known.
  r = chain.Read(9, 15, &value);
  EXPECT_TRUE(r.found);            // Still visible before the delete.
  EXPECT_EQ(value, "v1");
  ASSERT_EQ(r.newer.size(), 1u);   // The tombstone is rw-conflict evidence.
  EXPECT_EQ(r.newer[0].creator_txn_id, 2u);
}

TEST(VersionChainTest, FirstCommitterWinsDetectsNewerCommit) {
  VersionChain chain;
  CommitVersion(&chain, 1, "v1", 10);
  EXPECT_TRUE(chain.HasCommittedVersionAfter(5));
  EXPECT_FALSE(chain.HasCommittedVersionAfter(10));
  EXPECT_FALSE(chain.HasCommittedVersionAfter(15));
}

TEST(VersionChainTest, LatestCommittedSkipsUncommittedHead) {
  VersionChain chain;
  CommitVersion(&chain, 1, "v1", 10);
  bool replaced = false;
  chain.InstallUncommitted(7, "pending", false, &replaced);
  Timestamp cts = 0;
  bool tomb = true;
  ASSERT_TRUE(chain.LatestCommitted(&cts, &tomb));
  EXPECT_EQ(cts, 10u);
  EXPECT_FALSE(tomb);
}

TEST(VersionChainTest, LatestCommittedFalseOnEmptyOrAllUncommitted) {
  VersionChain chain;
  Timestamp cts = 0;
  bool tomb = false;
  EXPECT_FALSE(chain.LatestCommitted(&cts, &tomb));
  bool replaced = false;
  chain.InstallUncommitted(7, "pending", false, &replaced);
  EXPECT_FALSE(chain.LatestCommitted(&cts, &tomb));
}

TEST(VersionChainTest, S2PLReadWithMaxTsSeesLatestCommitted) {
  VersionChain chain;
  CommitVersion(&chain, 1, "v1", 10);
  CommitVersion(&chain, 2, "v2", 20);
  std::string value;
  ReadResult r = chain.Read(9, kMaxTimestamp, &value);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(value, "v2");
  EXPECT_TRUE(r.newer.empty());
}

TEST(VersionChainTest, PruneKeepsVersionsReachableBySnapshots) {
  VersionChain chain;
  CommitVersion(&chain, 1, "v1", 10);
  CommitVersion(&chain, 2, "v2", 20);
  CommitVersion(&chain, 3, "v3", 30);
  ASSERT_EQ(chain.size(), 3u);
  // A snapshot at 25 still needs v2 (newest <= 25), but not v1.
  EXPECT_EQ(chain.Prune(/*min_read_ts=*/25), 1u);
  EXPECT_EQ(chain.size(), 2u);
  std::string value;
  ReadResult r = chain.Read(9, 25, &value);
  EXPECT_EQ(value, "v2");
  // Snapshot at 35 only needs v3.
  EXPECT_EQ(chain.Prune(35), 1u);
  EXPECT_EQ(chain.size(), 1u);
  r = chain.Read(9, 35, &value);
  EXPECT_EQ(value, "v3");
}

TEST(VersionChainTest, PruneNeverDropsUncommittedOrNewestCommitted) {
  VersionChain chain;
  CommitVersion(&chain, 1, "v1", 10);
  bool replaced = false;
  chain.InstallUncommitted(7, "pending", false, &replaced);
  EXPECT_EQ(chain.Prune(kMaxTimestamp), 0u);
  EXPECT_EQ(chain.size(), 2u);
}

TEST(TableTest, FindAndGetOrCreate) {
  Table t(1, "t");
  EXPECT_EQ(t.Find("a"), nullptr);
  VersionChain* c = t.GetOrCreate("a");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(t.Find("a"), c);
  EXPECT_EQ(t.GetOrCreate("a"), c);
  EXPECT_EQ(t.EntryCount(), 1u);
}

TEST(TableTest, NextKeyFindsStrictSuccessor) {
  Table t(1, "t");
  t.GetOrCreate("b");
  t.GetOrCreate("d");
  t.GetOrCreate("f");
  EXPECT_EQ(t.NextKey("a").value(), "b");
  EXPECT_EQ(t.NextKey("b").value(), "d");
  EXPECT_EQ(t.NextKey("c").value(), "d");
  EXPECT_EQ(t.NextKey("e").value(), "f");
  EXPECT_FALSE(t.NextKey("f").has_value());  // Supremum.
  EXPECT_FALSE(t.NextKey("z").has_value());
}

TEST(TableTest, SeekCeil) {
  Table t(1, "t");
  t.GetOrCreate("b");
  t.GetOrCreate("d");
  EXPECT_EQ(t.SeekCeil("a").value(), "b");
  EXPECT_EQ(t.SeekCeil("b").value(), "b");
  EXPECT_EQ(t.SeekCeil("c").value(), "d");
  EXPECT_FALSE(t.SeekCeil("e").has_value());
}

TEST(TableTest, CollectRangeReturnsEntriesAndSuccessor) {
  Table t(1, "t");
  for (const char* k : {"a", "c", "e", "g"}) t.GetOrCreate(k);
  std::vector<ScanEntry> entries;
  std::optional<std::string> successor;
  t.CollectRange("b", "f", &entries, &successor);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "c");
  EXPECT_EQ(entries[1].key, "e");
  ASSERT_TRUE(successor.has_value());
  EXPECT_EQ(*successor, "g");

  // Range covering the tail reports the supremum.
  t.CollectRange("f", "z", &entries, &successor);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "g");
  EXPECT_FALSE(successor.has_value());
}

TEST(TableTest, CollectRangeInclusiveBounds) {
  Table t(1, "t");
  for (const char* k : {"a", "b", "c"}) t.GetOrCreate(k);
  std::vector<ScanEntry> entries;
  std::optional<std::string> successor;
  t.CollectRange("a", "c", &entries, &successor);
  EXPECT_EQ(entries.size(), 3u);
  EXPECT_FALSE(successor.has_value());
}

TEST(TableTest, CollectRangeEmptyRange) {
  Table t(1, "t");
  t.GetOrCreate("m");
  std::vector<ScanEntry> entries;
  std::optional<std::string> successor;
  t.CollectRange("a", "b", &entries, &successor);
  EXPECT_TRUE(entries.empty());
  ASSERT_TRUE(successor.has_value());
  EXPECT_EQ(*successor, "m");  // Phantom protection still has a next key.
}

TEST(TableTest, ForEachChainVisitsInOrder) {
  Table t(1, "t");
  for (const char* k : {"c", "a", "b"}) t.GetOrCreate(k);
  std::vector<std::string> keys;
  t.ForEachChain([&keys](const std::string& k, VersionChain*) {
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(TableTest, PageOfMapsU64KeysContiguously) {
  // id / rows_per_page: ids 0..19 on page 0, 20..39 on page 1, ...
  EXPECT_EQ(Table::PageOf(EncodeU64Key(0), 20), 0u);
  EXPECT_EQ(Table::PageOf(EncodeU64Key(19), 20), 0u);
  EXPECT_EQ(Table::PageOf(EncodeU64Key(20), 20), 1u);
  EXPECT_EQ(Table::PageOf(EncodeU64Key(399), 20), 19u);
}

TEST(TableTest, PageOfNonU64KeysIsStable) {
  const uint64_t p = Table::PageOf("some-name-key", 20);
  EXPECT_EQ(Table::PageOf("some-name-key", 20), p);
}

/// Property sweep: for random key populations, NextKey agrees with a naive
/// reference computed from the sorted key list.
class TableNextKeyProperty : public ::testing::TestWithParam<int> {};

TEST_P(TableNextKeyProperty, MatchesNaiveReference) {
  const int n = GetParam();
  Table t(1, "t");
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) {
    std::string k = EncodeU64Key(static_cast<uint64_t>(i) * 7919 % 1000);
    t.GetOrCreate(k);
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (uint64_t probe = 0; probe < 1000; probe += 13) {
    const std::string pk = EncodeU64Key(probe);
    auto it = std::upper_bound(keys.begin(), keys.end(), pk);
    auto got = t.NextKey(pk);
    if (it == keys.end()) {
      EXPECT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, *it);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TableNextKeyProperty,
                         ::testing::Values(1, 10, 100, 500));

/// Model-based property test: drive a VersionChain with a random script of
/// installs, commits, aborts and prunes, mirroring every step in a plain
/// vector model; visibility answers must always agree.
class VersionChainModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VersionChainModelTest, AgreesWithReferenceModel) {
  struct ModelVersion {
    TxnId creator;
    Timestamp cts;  // 0 = uncommitted.
    bool tombstone;
    std::string value;
  };
  VersionChain chain;
  std::vector<ModelVersion> model;  // Oldest first.

  uint64_t seed = GetParam();
  auto next_rand = [&seed]() {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 33;
  };

  Timestamp clock = 0;
  TxnId next_txn = 1;
  TxnId pending = 0;  // At most one uncommitted writer (the write lock).
  Version* pending_version = nullptr;

  for (int step = 0; step < 400; ++step) {
    switch (next_rand() % 5) {
      case 0: {  // Install (or overwrite) an uncommitted version.
        if (pending == 0) {
          pending = next_txn++;
          model.push_back(ModelVersion{pending, 0, false, ""});
        }
        const bool tombstone = next_rand() % 4 == 0;
        const std::string value = "v" + std::to_string(next_rand() % 100);
        bool replaced = false;
        pending_version =
            chain.InstallUncommitted(pending, value, tombstone, &replaced);
        model.back() = ModelVersion{pending, 0, tombstone, value};
        break;
      }
      case 1: {  // Commit the pending version.
        if (pending != 0 && pending_version != nullptr) {
          pending_version->commit_ts.store(++clock);
          model.back().cts = clock;
          pending = 0;
          pending_version = nullptr;
        }
        break;
      }
      case 2: {  // Abort the pending version.
        if (pending != 0) {
          chain.RemoveUncommitted(pending);
          if (pending_version != nullptr) model.pop_back();
          pending = 0;
          pending_version = nullptr;
        }
        break;
      }
      case 3: {  // Prune at a random watermark.
        const Timestamp min_ts = next_rand() % (clock + 1);
        chain.Prune(min_ts);
        // Model prune: drop everything older than the newest committed
        // version with cts <= min_ts.
        int anchor = -1;
        for (int i = static_cast<int>(model.size()) - 1; i >= 0; --i) {
          if (model[i].cts != 0 && model[i].cts <= min_ts) {
            anchor = i;
            break;
          }
        }
        if (anchor > 0) {
          model.erase(model.begin(), model.begin() + anchor);
        }
        break;
      }
      case 4: {  // Probe: compare visibility at a random snapshot.
        const Timestamp read_ts = next_rand() % (clock + 2);
        const TxnId reader = 1000000 + next_rand() % 3;  // Never a writer.
        std::string got;
        ReadResult rr = chain.Read(reader, read_ts, &got);
        // Model answer: newest version with 0 < cts <= read_ts.
        const ModelVersion* expected = nullptr;
        for (int i = static_cast<int>(model.size()) - 1; i >= 0; --i) {
          if (model[i].cts != 0 && model[i].cts <= read_ts) {
            expected = &model[i];
            break;
          }
        }
        if (expected == nullptr) {
          ASSERT_FALSE(rr.found) << "step " << step;
        } else {
          ASSERT_EQ(rr.found, !expected->tombstone) << "step " << step;
          if (rr.found) {
            ASSERT_EQ(got, expected->value) << "step " << step;
          }
          ASSERT_EQ(rr.version_cts, expected->cts) << "step " << step;
        }
        // The newer-version report must list exactly the committed
        // versions above the snapshot, newest first.
        std::vector<Timestamp> expected_newer;
        for (int i = static_cast<int>(model.size()) - 1; i >= 0; --i) {
          if (model[i].cts > read_ts) expected_newer.push_back(model[i].cts);
        }
        ASSERT_EQ(rr.newer.size(), expected_newer.size()) << "step " << step;
        for (size_t i = 0; i < expected_newer.size(); ++i) {
          ASSERT_EQ(rr.newer[i].commit_ts, expected_newer[i]);
        }
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionChainModelTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace ssidb
