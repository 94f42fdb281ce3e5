// StorageTier: the disk-backed half of the storage layer — owns the buffer
// pool, the run-file directory and each table's run list, and implements
// the spill / fault / compaction protocols Table delegates to.
//
// Enablement: DB::Open constructs a tier for every durable engine
// (LogOptions::wal_dir set) — runs are the checkpoint format — and for an
// in-memory engine with DBOptions::buffer_pool_bytes > 0 and a data_dir.
// Runs live in data_dir, defaulting to "<wal_dir>/runs". Runtime spilling
// (the sweeper's SpillShards, DB::SpillChains) runs only when
// buffer_pool_bytes > 0; at 0 the pool is kCheckpointPoolFrames frames,
// enough for checkpoint writes and for faulting back the chains a reopen
// left evicted. With no tier, Table's hot paths are bit-for-bit the
// memory-only engine.
//
// Durability contract: a version chain is marked evicted only after the
// run holding its anchor version is durably on disk (tmp + fsync + rename
// + directory fsync). Runs are the only durable home of bulk data: spill
// runs and checkpoint runs alike are deleted only when a merged
// replacement run is durable (compaction), never by checkpoint GC.
//
// Producers: every writer of a run — a spill sweep (SpillShards), a
// checkpoint, a compaction — holds the producer mutex from the moment it
// reads the contents it will write until the run is published
// (LockProducers; WriteRun and MaybeCompact take the held lock as proof).
// So run seq order equals the order in which run contents were read:
// without it a checkpoint that read k@5 could publish after a spill that
// read k@8, and newest-first Lookup would return k@5 after a reopen. It
// also means a compaction's inputs are still exactly the table's run list
// when the replacement is published.
//
// Lookup order: a key may appear in several runs (respilled after new
// commits); Lookup probes newest-first (descending seq) and stops at the
// first hit, so the newest spilled version wins. Compaction merges a
// table's runs into one, keeping the highest commit_ts per key. The merge
// streams (MergeRuns into RunFile::Create): its memory is one page per
// input run plus one output page, not the table's size.
//
// Locking: producer_mu_ is taken first, above every shard and chain latch
// (a spill or checkpoint sweeps shards while holding it) and is never
// acquired while any other engine latch is held. runs_mu_ (shared_mutex)
// guards the per-table run lists; held shared for lookups (copying
// shared_ptrs out before any I/O), exclusive for publish/replace. Never
// held while a chain latch or table shard latch is held, and vice versa —
// see the lock-order rules in ARCHITECTURE.md.

#ifndef SSIDB_STORAGE_STORAGE_TIER_H_
#define SSIDB_STORAGE_STORAGE_TIER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/options.h"
#include "src/common/status.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/run_file.h"

namespace ssidb {

class Catalog;

class StorageTier {
 public:
  /// Pool frames when DBOptions::buffer_pool_bytes is 0 (a durable engine
  /// that does not spill at runtime): enough for a checkpoint's run
  /// writer and for concurrent readers faulting back recovered chains.
  static constexpr uint64_t kCheckpointPoolFrames = 16;

  /// Proof that the caller holds the producer mutex (see "Producers").
  using ProducerLock = std::unique_lock<std::mutex>;

  /// All run-file I/O (and the pool's page I/O) routes through
  /// `options.env` (nullptr = real filesystem).
  StorageTier(const DBOptions& options, std::string dir);
  ~StorageTier();

  StorageTier(const StorageTier&) = delete;
  StorageTier& operator=(const StorageTier&) = delete;

  /// Create the run directory. `wipe` (in-memory engines: the WAL is not
  /// durable so stale runs must not resurrect state) removes existing
  /// run files first.
  Status Init(bool wipe);

  BufferPool* pool() { return &pool_; }

  /// Serialize run producers: hold the result from reading the contents
  /// of a run until it is published.
  ProducerLock LockProducers() { return ProducerLock(producer_mu_); }

  /// Whether a (key, value) entry fits one run page. Writes of entries
  /// that do not are rejected at the boundary (kInvalidArgument), so every
  /// committed version can be spilled or checkpointed.
  bool EntryFits(Slice key, Slice value) const {
    return RunFile::EncodedEntryBytes(key.size(), value.size()) <=
           RunFile::MaxEntryBytes(options_.run_page_bytes);
  }

  /// Durably write `entries` (sorted by key, non-empty) as table `table`'s
  /// newest run and publish it for lookups. `bytes` (optional) receives
  /// the run file's size.
  Status WriteRun(const ProducerLock& producers, uint32_t table_id,
                  const std::vector<RunEntry>& entries,
                  uint64_t* bytes = nullptr);

  /// Probe table `table_id`'s runs newest-first for `key`.
  Status Lookup(uint32_t table_id, Slice key, RunEntry* out, bool* found);

  /// Merge all of `table_id`'s runs into one when at least
  /// run_compaction_min_runs have accumulated (newest commit_ts per key
  /// wins), streaming a k-way merge of the inputs' cursors into the
  /// replacement; delete the inputs once the replacement is durable. On
  /// any error (a cursor read included) no replacement or .tmp file is
  /// left and the inputs stay published. Called by the DB sweeper after
  /// its spill sweep and by each checkpoint after its runs.
  Status MaybeCompact(const ProducerLock& producers, uint32_t table_id);

  /// Recovery: open every run file in the directory, publish each under
  /// its table, and re-mark the covered chains evicted (Table::
  /// RecoverEvicted) so spilled values stay on disk instead of being
  /// replayed into RAM. Returns the highest commit_ts seen in any run.
  Status RecoverRuns(Catalog* catalog, Timestamp* max_commit_ts);

  size_t run_count(uint32_t table_id) const;

  // Spill/fault counters (relaxed; the DB registers them as tier.*). The
  // pool owns hits/misses/evictions/writebacks.
  uint64_t spilled_chains() const {
    return spilled_chains_.load(std::memory_order_relaxed);
  }
  uint64_t faulted_chains() const {
    return faulted_chains_.load(std::memory_order_relaxed);
  }
  void AddSpilled(uint64_t n) {
    spilled_chains_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddFaulted(uint64_t n) {
    faulted_chains_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Compactions completed (tier.compactions).
  uint64_t compactions() const {
    return compactions_.load(std::memory_order_relaxed);
  }
  /// Run pages pinned by Lookup (tier.lookup_probes): divided by
  /// tier.faulted_chains, the probes one fault costs.
  uint64_t lookup_probes() const {
    return lookup_probes_.load(std::memory_order_relaxed);
  }

  /// Run creations/compactions that failed on I/O (io.errors.tier).
  uint64_t io_errors() const {
    return io_errors_.load(std::memory_order_relaxed);
  }

  /// Receive a kIOError trace event per failed run write/compaction.
  void SetTraceRing(obs::TraceRing* trace) {
    trace_.store(trace, std::memory_order_release);
  }

 private:
  std::string RunPath(uint32_t table_id, uint64_t seq) const;

  /// Count + trace a failed durable-run operation; returns `st` through.
  Status NoteIOError(const Status& st, uint32_t table_id);

  const DBOptions options_;
  const std::string dir_;
  io::Env* const env_;
  BufferPool pool_;

  /// Serializes run producers (see "Producers" above).
  std::mutex producer_mu_;

  std::atomic<uint64_t> next_file_id_{1};
  std::atomic<uint64_t> next_seq_{1};

  mutable std::shared_mutex runs_mu_;
  /// Newest run first (descending seq).
  std::unordered_map<uint32_t, std::vector<std::shared_ptr<RunFile>>> runs_;

  std::atomic<uint64_t> spilled_chains_{0};
  std::atomic<uint64_t> faulted_chains_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> lookup_probes_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<obs::TraceRing*> trace_{nullptr};
};

}  // namespace ssidb

#endif  // SSIDB_STORAGE_STORAGE_TIER_H_
