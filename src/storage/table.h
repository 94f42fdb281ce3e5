// Table: an ordered index from key to version chain, range-partitioned
// into shards.
//
// The index models a B+Tree leaf level: entries are never physically
// removed during normal operation (deletes leave tombstone versions, §3.5),
// so the key space seen by next-key/gap locking is stable.
//
// Sharding: the key space is partitioned into contiguous ranges, one shard
// per range, each with its own shared_mutex and std::map. Because ranges
// are contiguous and ordered, the concatenation of the shards *is* the
// ordered index: Scan, NextKey and gap locking observe exactly the total
// order of a single map. A table starts as one shard and splits a shard at
// its median key once it exceeds a threshold, so hot tables spread across
// latches without any a-priori knowledge of the key distribution (small
// tables pay nothing).
//
// Latching protocol (never held across lock-manager calls — scans collect
// (key, chain) batches first, avoiding latch/lock deadlocks):
//   * routing_mu_ (shared_mutex): guards the shard directory. Every
//     operation holds it SHARED for its whole duration; only a split takes
//     it EXCLUSIVE. Splits are rare (amortized O(1/threshold) per insert),
//     so the shared acquisition is effectively uncontended.
//   * Shard::mu (shared_mutex): guards one shard's map. Reads take it
//     shared, inserts exclusive. Acquired only while routing_mu_ is held
//     shared; at most one shard latch is held at a time (range scans lock
//     shards strictly left to right, one by one).
// Version chains are heap-allocated and never freed, so chain pointers
// remain valid across splits (only the owning map node moves).

#ifndef SSIDB_STORAGE_TABLE_H_
#define SSIDB_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/version.h"

namespace ssidb {

class StorageTier;

using TableId = uint32_t;

/// An index entry surfaced to the scan protocol.
struct ScanEntry {
  std::string key;
  VersionChain* chain;
};

/// Per-shard counters surfaced to benchmarks: how balanced the partition
/// is and where latch traffic lands. Counters are relaxed atomics — each
/// individually exact, mutually unordered.
struct TableShardStats {
  std::string lower_bound;  ///< Inclusive lower key of the shard's range.
  size_t entries = 0;
  uint64_t reads = 0;   ///< Shared-latch acquisitions.
  uint64_t writes = 0;  ///< Exclusive-latch acquisitions.
};

class Table {
 public:
  /// `split_threshold`: shard entry count that triggers a median split.
  Table(TableId id, std::string name, size_t split_threshold = 1024);
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Find the chain for a key, or nullptr. The pointer stays valid for the
  /// table's lifetime (chains are heap-allocated and never freed).
  VersionChain* Find(Slice key) const;

  /// Find the chain for a key, creating an empty one if absent.
  VersionChain* GetOrCreate(Slice key);

  /// Smallest index key strictly greater than `key`, or nullopt if `key`
  /// is the last (the caller then uses the table's supremum lock key).
  /// This is next(x) of Figs 3.6/3.7.
  std::optional<std::string> NextKey(Slice key) const;

  /// Smallest index key >= lo, or nullopt.
  std::optional<std::string> SeekCeil(Slice lo) const;

  /// Collect every index entry with lo <= key <= hi (visible or not — the
  /// scan protocol applies the modified read to each, §3.5), plus the
  /// successor key after hi in *successor (nullopt => supremum). Shards are
  /// visited in range order, one latch at a time.
  void CollectRange(Slice lo, Slice hi, std::vector<ScanEntry>* entries,
                    std::optional<std::string>* successor) const;

  /// Number of index entries (including tombstoned keys).
  size_t EntryCount() const;

  /// Visit every index entry in key order (GC sweeps, consistency checks).
  /// The callback must not re-enter the table.
  void ForEachChain(
      const std::function<void(const std::string&, VersionChain*)>& fn) const;

  /// Filtered overload for incremental sweeps: visit only entries of
  /// shards whose per-shard max-commit-ts hint is > `since` — a shard no
  /// commit has touched past `since` is skipped without taking its latch,
  /// so a checkpoint over a cold table costs one routing-latch
  /// acquisition. The hint is maintained by NoteCommit/RecoverVersion and
  /// is conservative (splits copy it to both halves), so a skipped shard
  /// provably holds no version with commit_ts > since; a visited shard may
  /// still contain only older entries — the callback filters per chain.
  void ForEachChain(
      Timestamp since,
      const std::function<void(const std::string&, VersionChain*)>& fn) const;

  /// Record that a version of `key` committed at `commit_ts`: raises the
  /// owning shard's max-commit-ts hint. Called by the transaction manager
  /// during commit-time version stamping, *before* the stable watermark
  /// can cover `commit_ts`, so any sweep at watermark >= commit_ts is
  /// guaranteed to see the raised hint.
  void NoteCommit(Slice key, Timestamp commit_ts);

  /// Per-shard version-prune sweep: for each shard in turn (one latch at a
  /// time), drop versions unreachable by any snapshot >= min_read_ts.
  /// Returns the number of versions freed.
  size_t PruneShards(Timestamp min_read_ts);

  /// Recovery bulk reload: install a committed version with its original
  /// commit timestamp (WAL replay). Idempotent — see
  /// VersionChain::InstallRecovered.
  void RecoverVersion(Slice key, Slice value, bool tombstone,
                      Timestamp commit_ts);

  // --- Disk tier hooks (no-ops when no tier is attached) ---

  /// Attach the disk tier. Called once at DB::Open, before any traffic.
  void SetStorageTier(StorageTier* tier) { tier_ = tier; }
  StorageTier* storage_tier() const { return tier_; }

  /// Fault an evicted chain's spilled anchor back from the run files.
  /// Corruption if no run holds the key (the durability contract says one
  /// must). Racing faulters are fine: FaultInstall keeps the first winner.
  Status FaultChain(Slice key, VersionChain* chain);

  /// Two-phase spill sweep (DB sweeper thread, after PruneShards): probe
  /// every chain under the shard latch (phase A, collecting cold anchors
  /// below `horizon` in key order), durably write them as one run, then
  /// re-verify and evict each chain (phase B). `producers` is the tier's
  /// held producer lock (StorageTier::LockProducers), covering both
  /// phases. Returns chains evicted.
  size_t SpillShards(const std::unique_lock<std::mutex>& producers,
                     Timestamp horizon);

  /// Recovery: a run file durably holds `key` at `commit_ts`. Marks the
  /// chain evicted unless WAL replay installed something as new or newer
  /// (see VersionChain::SetEvictedRecovered).
  void RecoverEvicted(Slice key, Timestamp commit_ts);

  /// Number of shards the key space is currently partitioned into.
  size_t ShardCount() const;

  /// Snapshot of the per-shard counters (benchmarks, balance diagnostics).
  std::vector<TableShardStats> ShardStats() const;

  /// Page number of a key under kPage granularity. Keys produced by
  /// EncodeU64Key map contiguously (id / rows_per_page), modelling B+Tree
  /// leaf adjacency; other keys fall back to a coarse hash.
  static uint64_t PageOf(Slice key, uint32_t rows_per_page);

 private:
  struct Shard {
    explicit Shard(std::string lower_in) : lower(std::move(lower_in)) {}
    /// Inclusive lower bound of this shard's key range. Immutable after
    /// construction (a split creates a new shard; it never rewrites an
    /// existing bound), so it is readable under the shared routing latch.
    const std::string lower;
    mutable std::shared_mutex mu;
    std::map<std::string, std::unique_ptr<VersionChain>, std::less<>> index;
    mutable std::atomic<uint64_t> reads{0};
    mutable std::atomic<uint64_t> writes{0};
    /// Largest commit_ts ever stamped into this shard's range (0 = none).
    /// Conservative upper bound (splits copy it), consulted by the
    /// filtered ForEachChain to skip cold shards latch-free.
    std::atomic<Timestamp> max_commit_ts{0};
  };

  /// Index of the shard whose range contains `key`: the last shard whose
  /// lower bound is <= key. Caller holds routing_mu_ (any mode).
  size_t RouteLocked(std::string_view key) const;

  /// Split shard-containing-`hint_key` at its median if it still exceeds
  /// the threshold (re-checked under the exclusive routing latch).
  void MaybeSplit(const std::string& hint_key);

  const TableId id_;
  const std::string name_;
  const size_t split_threshold_;
  /// Disk tier, or nullptr (memory-only). Set once before traffic.
  StorageTier* tier_ = nullptr;

  mutable std::shared_mutex routing_mu_;
  /// Shards ordered by lower bound; shards_[0].lower is always "".
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ssidb

#endif  // SSIDB_STORAGE_TABLE_H_
