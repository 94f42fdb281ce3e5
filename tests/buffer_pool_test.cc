// Buffer pool + run file tests: the pin/victim discipline (hash lookup,
// pin refcounts, clock second-chance eviction, dirty writeback), the run
// file format (CRC-framed sorted pages, fence index, durability envelope),
// and a concurrent pin/evict/read stress that the TSan CI job runs to
// prove the frame state machine race-free.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/run_file.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

constexpr uint32_t kPage = 512;

std::shared_ptr<PoolFile> OpenPoolFile(const std::string& path, uint64_t id) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  EXPECT_GE(fd, 0);
  return std::make_shared<PoolFile>(id, fd);
}

/// Fill `page` with a recognizable pattern derived from its number.
void FillPattern(uint8_t* page, uint32_t page_no) {
  for (uint32_t i = 0; i < kPage; ++i) {
    page[i] = static_cast<uint8_t>((page_no * 31 + i) & 0xFF);
  }
}

bool CheckPattern(const uint8_t* page, uint32_t page_no) {
  for (uint32_t i = 0; i < kPage; ++i) {
    if (page[i] != static_cast<uint8_t>((page_no * 31 + i) & 0xFF)) {
      return false;
    }
  }
  return true;
}

/// Write `pages` patterned pages into `file` through the pool and flush.
void WritePages(BufferPool* pool, uint64_t file_id, uint32_t pages) {
  for (uint32_t p = 0; p < pages; ++p) {
    BufferPool::WritePin wp;
    ASSERT_TRUE(pool->PinForWrite(file_id, p, &wp).ok());
    FillPattern(wp.data, p);
    pool->Unpin(wp.frame);
  }
  ASSERT_TRUE(pool->FlushFile(file_id).ok());
}

TEST(BufferPoolTest, HitAndMissCounting) {
  ScratchDir dir;
  BufferPool pool(4 * kPage, kPage);
  ASSERT_EQ(pool.frame_count(), 4u);
  auto file = OpenPoolFile(dir.path + "/f", 1);
  pool.RegisterFile(file);
  WritePages(&pool, 1, 2);

  // Both pages are still resident from the write path: pure hits.
  const uint64_t misses_before = pool.misses();
  for (int round = 0; round < 3; ++round) {
    for (uint32_t p = 0; p < 2; ++p) {
      BufferPool::Pin pin;
      ASSERT_TRUE(pool.PinPage(1, p, &pin).ok());
      EXPECT_TRUE(CheckPattern(pin.data, p));
      pool.Unpin(pin.frame);
    }
  }
  EXPECT_EQ(pool.misses(), misses_before);
  EXPECT_GE(pool.hits(), 6u);
}

TEST(BufferPoolTest, EvictionWritesBackAndReloads) {
  ScratchDir dir;
  BufferPool pool(4 * kPage, kPage);
  auto file = OpenPoolFile(dir.path + "/f", 1);
  pool.RegisterFile(file);
  // 12 dirty pages through a 4-frame pool: the victim scan must reclaim
  // and write back frames mid-write.
  WritePages(&pool, 1, 12);
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_GE(pool.writebacks(), 8u);  // At least the evicted dirty frames.

  // Every page reads back intact, through the pool (reloads count misses).
  const uint64_t misses_before = pool.misses();
  for (uint32_t p = 0; p < 12; ++p) {
    BufferPool::Pin pin;
    ASSERT_TRUE(pool.PinPage(1, p, &pin).ok());
    EXPECT_TRUE(CheckPattern(pin.data, p)) << "page " << p;
    pool.Unpin(pin.frame);
  }
  EXPECT_GT(pool.misses(), misses_before);
}

TEST(BufferPoolTest, FlushedPagesSurvivePoolDestruction) {
  ScratchDir dir;
  const std::string path = dir.path + "/f";
  {
    BufferPool pool(4 * kPage, kPage);
    pool.RegisterFile(OpenPoolFile(path, 1));
    WritePages(&pool, 1, 6);
  }
  // Read the bytes straight from the file: the pool (and its descriptor)
  // are gone; only FlushFile's pwrites remain.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  uint8_t page[kPage];
  for (uint32_t p = 0; p < 6; ++p) {
    ASSERT_EQ(pread(fd, page, kPage, static_cast<off_t>(p) * kPage),
              static_cast<ssize_t>(kPage));
    EXPECT_TRUE(CheckPattern(page, p)) << "page " << p;
  }
  close(fd);
}

TEST(BufferPoolTest, PinnedFramesAreNeverVictims) {
  ScratchDir dir;
  BufferPool pool(4 * kPage, kPage);
  auto file = OpenPoolFile(dir.path + "/f", 1);
  pool.RegisterFile(file);
  WritePages(&pool, 1, 8);

  // Pin all four frames and hold them.
  std::vector<BufferPool::Pin> held;
  for (uint32_t p = 0; p < 4; ++p) {
    BufferPool::Pin pin;
    ASSERT_TRUE(pool.PinPage(1, p, &pin).ok());
    held.push_back(pin);
  }
  // A fifth page has no frame to claim: bounded retry, then kIOError.
  BufferPool::Pin extra;
  Status st = pool.PinPage(1, 7, &extra);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // The held pins are intact and their bytes untouched.
  for (uint32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(CheckPattern(held[p].data, p));
    pool.Unpin(held[p].frame);
  }
  // With the pins dropped the same request succeeds.
  ASSERT_TRUE(pool.PinPage(1, 7, &extra).ok());
  EXPECT_TRUE(CheckPattern(extra.data, 7));
  pool.Unpin(extra.frame);
}

TEST(BufferPoolTest, PurgeDropsFramesAndRegistration) {
  ScratchDir dir;
  BufferPool pool(8 * kPage, kPage);
  pool.RegisterFile(OpenPoolFile(dir.path + "/a", 1));
  WritePages(&pool, 1, 4);
  pool.Purge(1);
  // The purged file's frames are free again: a second file can fill the
  // whole pool without evicting anything.
  pool.RegisterFile(OpenPoolFile(dir.path + "/b", 2));
  const uint64_t evictions_before = pool.evictions();
  WritePages(&pool, 2, 8);
  EXPECT_EQ(pool.evictions(), evictions_before);
  for (uint32_t p = 0; p < 8; ++p) {
    BufferPool::Pin pin;
    ASSERT_TRUE(pool.PinPage(2, p, &pin).ok());
    EXPECT_TRUE(CheckPattern(pin.data, p));
    pool.Unpin(pin.frame);
  }
}

/// Concurrent pin/evict/reload stress (the TSan job's target): readers
/// hammer a file 8x the pool size so every pin races the clock scan, frame
/// retagging, and load publication.
TEST(BufferPoolTest, ConcurrentPinEvictStress) {
  ScratchDir dir;
  constexpr uint32_t kPages = 64;
  BufferPool pool(8 * kPage, kPage);
  auto file = OpenPoolFile(dir.path + "/f", 1);
  // Seed the file directly so the test starts from a cold pool.
  {
    uint8_t page[kPage];
    for (uint32_t p = 0; p < kPages; ++p) {
      FillPattern(page, p);
      ASSERT_EQ(pwrite(file->fd(), page, kPage,
                       static_cast<off_t>(p) * kPage),
                static_cast<ssize_t>(kPage));
    }
  }
  pool.RegisterFile(file);

  constexpr int kThreads = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) * 977 + 5);
      for (int i = 0; i < 4000 && !failed.load(std::memory_order_relaxed);
           ++i) {
        const uint32_t p = static_cast<uint32_t>(rng.Uniform(kPages));
        BufferPool::Pin pin;
        Status st = pool.PinPage(1, p, &pin);
        if (!st.ok() || !CheckPattern(pin.data, p)) {
          failed.store(true, std::memory_order_relaxed);
          break;
        }
        pool.Unpin(pin.frame);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(pool.evictions(), 0u);
  // Conservation: every miss loaded into a frame that was either free or
  // evicted; the pool never grew past its fixed frame count.
  EXPECT_EQ(pool.frame_count(), 8u);
}

// ---------------------------------------------------------------------------
// Run files.
// ---------------------------------------------------------------------------

std::vector<RunEntry> MakeEntries(uint64_t n, Timestamp base_cts) {
  std::vector<RunEntry> entries;
  for (uint64_t i = 0; i < n; ++i) {
    RunEntry e;
    e.key = EncodeU64Key(i);
    e.value = "value-" + std::to_string(i);
    e.commit_ts = base_cts + i;
    e.tombstone = (i % 7) == 0;
    entries.push_back(std::move(e));
  }
  return entries;
}

TEST(RunFileTest, CreateLookupRoundTripAcrossPages) {
  ScratchDir dir;
  BufferPool pool(4 * kPage, kPage);
  const auto entries = MakeEntries(200, /*base_cts=*/100);
  std::shared_ptr<RunFile> run;
  ASSERT_TRUE(RunFile::Create(dir.path + "/t.run", /*table_id=*/3, /*seq=*/1,
                              /*file_id=*/1, kPage, entries, &pool,
                              /*fsync=*/true, &run)
                  .ok());
  EXPECT_EQ(run->entry_count(), 200u);
  EXPECT_GT(run->page_count(), 1u) << "entries must span several pages";

  // Every entry comes back exact: key, value, commit_ts, tombstone.
  for (const RunEntry& want : entries) {
    RunEntry got;
    bool found = false;
    ASSERT_TRUE(run->Lookup(&pool, want.key, &got, &found).ok());
    ASSERT_TRUE(found) << want.key;
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.commit_ts, want.commit_ts);
    EXPECT_EQ(got.tombstone, want.tombstone);
  }
  // Absent keys (below, between, above) report not-found with OK status.
  for (const std::string& key :
       {std::string("\x00", 1), EncodeU64Key(5) + "x", EncodeU64Key(9999)}) {
    RunEntry got;
    bool found = true;
    ASSERT_TRUE(run->Lookup(&pool, key, &got, &found).ok());
    EXPECT_FALSE(found);
  }
}

TEST(RunFileTest, OpenValidatesAndForEachScans) {
  ScratchDir dir;
  const std::string path = dir.path + "/t.run";
  const auto entries = MakeEntries(64, /*base_cts=*/7);
  {
    BufferPool pool(4 * kPage, kPage);
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(RunFile::Create(path, 3, 9, 1, kPage, entries, &pool, true,
                                &run)
                    .ok());
  }
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  ASSERT_TRUE(RunFile::Open(path, /*file_id=*/5, &pool, &run).ok());
  EXPECT_EQ(run->table_id(), 3u);
  EXPECT_EQ(run->seq(), 9u);
  EXPECT_EQ(run->entry_count(), 64u);
  // ForEachEntry yields the full sorted contents (the compaction path).
  size_t i = 0;
  ASSERT_TRUE(run->ForEachEntry([&](const RunEntryView& e) {
                    EXPECT_EQ(e.key, entries[i].key);
                    EXPECT_EQ(e.commit_ts, entries[i].commit_ts);
                    ++i;
                  })
                  .ok());
  EXPECT_EQ(i, 64u);
}

TEST(RunFileTest, CorruptDataPageIsDetectedByLookup) {
  ScratchDir dir;
  const std::string path = dir.path + "/t.run";
  const auto entries = MakeEntries(64, /*base_cts=*/7);
  {
    BufferPool pool(4 * kPage, kPage);
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(
        RunFile::Create(path, 3, 1, 1, kPage, entries, &pool, true, &run)
            .ok());
  }
  // Flip a byte in the middle of data page 1 (file page 2).
  {
    const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    ASSERT_GE(fd, 0);
    uint8_t b = 0;
    const off_t off = 2 * kPage + 100;
    ASSERT_EQ(pread(fd, &b, 1, off), 1);
    b ^= 0x40;
    ASSERT_EQ(pwrite(fd, &b, 1, off), 1);
    close(fd);
  }
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  ASSERT_TRUE(RunFile::Open(path, 1, &pool, &run).ok());
  // A key on the damaged page fails with corruption, not a wrong answer.
  bool hit_corruption = false;
  for (const RunEntry& want : entries) {
    RunEntry got;
    bool found = false;
    Status st = run->Lookup(&pool, want.key, &got, &found);
    if (!st.ok()) {
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      hit_corruption = true;
    } else if (found) {
      EXPECT_EQ(got.value, want.value);
    }
  }
  EXPECT_TRUE(hit_corruption);
}

/// MergeRuns against a std::map reference merge, at the RunFile level:
/// overlapping keys, tombstones, keys only the oldest run holds, equal keys
/// under different commit_ts, an equal commit_ts tie (the newer run wins)
/// and an input that spans many pages.
TEST(RunFileTest, MergeRunsMatchesReferenceMerge) {
  ScratchDir dir;
  BufferPool pool(4 * kPage, kPage);
  // inputs[0] is the newest run, as StorageTier passes them.
  std::vector<std::vector<RunEntry>> contents(3);
  for (uint64_t i = 0; i < 120; ++i) {  // Oldest: every key, many pages.
    contents[2].push_back(
        {EncodeU64Key(i), "old" + std::to_string(i), 10 + i, false});
  }
  for (uint64_t i = 0; i < 120; i += 3) {  // Middle: every third key.
    contents[1].push_back({EncodeU64Key(i), "mid" + std::to_string(i),
                           500 + i, i % 2 == 0});
  }
  for (uint64_t i = 60; i < 150; i += 4) {  // Newest: overlaps and extends.
    // Keys = 0 mod 12 tie with the middle run's commit_ts.
    const Timestamp cts = i % 12 == 0 ? 500 + i : 1000 + i;
    contents[0].push_back({EncodeU64Key(i), "new" + std::to_string(i), cts,
                           i % 5 == 0});
  }
  std::vector<std::shared_ptr<RunFile>> inputs;
  std::map<std::string, RunEntry> reference;
  for (size_t r = 0; r < contents.size(); ++r) {
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(RunFile::Create(dir.path + "/in" + std::to_string(r) + ".run",
                                3, 10 - r, r + 1, kPage, contents[r], &pool,
                                /*fsync=*/false, &run)
                    .ok());
    inputs.push_back(run);
    for (const RunEntry& e : contents[r]) {  // Newest first: ties keep it.
      auto it = reference.find(e.key);
      if (it == reference.end()) {
        reference.emplace(e.key, e);
      } else if (e.commit_ts > it->second.commit_ts) {
        it->second = e;
      }
    }
  }
  ASSERT_GE(inputs[2]->page_count(), 4u);

  std::shared_ptr<RunFile> merged;
  ASSERT_TRUE(RunFile::Create(dir.path + "/out.run", 3, 11, 9, kPage,
                              MergeRuns(inputs), &pool, /*fsync=*/false,
                              &merged)
                  .ok());
  EXPECT_EQ(merged->entry_count(), reference.size());
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/out.run.tmp"));
  auto ref = reference.begin();
  ASSERT_TRUE(merged->ForEachEntry([&](const RunEntryView& e) {
                      ASSERT_NE(ref, reference.end());
                      EXPECT_EQ(e.key, Slice(ref->second.key));
                      EXPECT_EQ(e.value, Slice(ref->second.value));
                      EXPECT_EQ(e.commit_ts, ref->second.commit_ts);
                      EXPECT_EQ(e.tombstone, ref->second.tombstone);
                      ++ref;
                    })
                  .ok());
  EXPECT_EQ(ref, reference.end());
  EXPECT_EQ(reference.at(EncodeU64Key(72)).value, "new72")
      << "an equal commit_ts tie goes to the newer run";
  for (const auto& [key, want] : reference) {
    RunEntry got;
    bool found = false;
    bool pinned = false;
    ASSERT_TRUE(merged->Lookup(&pool, key, &got, &found, &pinned).ok());
    ASSERT_TRUE(found);
    EXPECT_TRUE(pinned);
    EXPECT_EQ(got.key, key);
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.commit_ts, want.commit_ts);
  }
  // Below the first key: nothing pinned.
  RunEntry got;
  bool found = true;
  bool pinned = true;
  ASSERT_TRUE(
      merged->Lookup(&pool, Slice("", 0), &got, &found, &pinned).ok());
  EXPECT_FALSE(found);
  EXPECT_FALSE(pinned);
}

TEST(RunFileTest, TruncatedTrailerFailsOpen) {
  ScratchDir dir;
  const std::string path = dir.path + "/t.run";
  {
    BufferPool pool(4 * kPage, kPage);
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(RunFile::Create(path, 3, 1, 1, kPage, MakeEntries(10, 1),
                                &pool, true, &run)
                    .ok());
  }
  {
    // Chop the trailer off.
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    ASSERT_FALSE(ec);
    std::filesystem::resize_file(path, size - 8, ec);
    ASSERT_FALSE(ec);
  }
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  EXPECT_FALSE(RunFile::Open(path, 1, &pool, &run).ok());
}

}  // namespace
}  // namespace ssidb
