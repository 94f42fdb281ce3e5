// Write-ahead log with group commit: simulated flush latency or a real
// file-backed segmented WAL.
//
// The paper's Berkeley DB evaluation contrasts two regimes: commits that
// return without waiting for the disk (~100us transactions, Fig 6.1) and
// commits that flush the log (~10ms, Fig 6.2). We reproduce the regimes
// with a background flusher thread that batches commit records — group
// commit exactly as both Berkeley DB and InnoDB implement it (§4.4).
//
// What the flusher does with a batch depends on LogOptions::wal_dir:
//   * empty: sleep for the configured latency and discard the records (the
//     simulated regime — format exercised, nothing persists);
//   * set: append the CRC-framed records to segment files in wal_dir and
//     fsync, so acknowledged (flushed) commits survive a process crash and
//     src/recovery replays them at DB::Open.
//
// Records carry per-key redo (table, key, value/tombstone) rather than an
// opaque blob, so replay can rebuild version chains with the original
// commit timestamps.

#ifndef SSIDB_TXN_LOG_MANAGER_H_
#define SSIDB_TXN_LOG_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/options.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/storage/version.h"

namespace ssidb {

namespace recovery {
class WalWriter;
struct WalFrame;
struct WalSegmentMeta;
}  // namespace recovery

using Lsn = uint64_t;

/// One key's redo in a commit record: enough to reinstall the committed
/// version at replay (table id, key, value or tombstone).
struct RedoEntry {
  uint32_t table = 0;  // TableId; plain uint32_t to avoid a storage include.
  std::string key;
  std::string value;
  bool tombstone = false;
};

enum class LogRecordType : uint8_t {
  /// A transaction commit: redo holds the write set.
  kCommit = 0,
  /// A table creation: redo holds one entry whose `table` is the assigned
  /// id and whose `key` is the table name. Replayed idempotently so the
  /// id→table mapping of commit records stays valid across restarts.
  kTableCreate = 1,
};

/// One log record. On-disk frame (also what Encode returns):
///
///   u32 crc      CRC32C of `body`
///   u32 len      length of `body` in bytes
///   body:
///     u8  type
///     u64 txn_id
///     u64 commit_ts
///     u32 redo_count
///     redo_count x { u32 table, len-prefixed key, u8 tombstone,
///                    len-prefixed value }
///
/// Decode distinguishes bytes *missing* (kTruncated — the shape a crash
/// leaves at the WAL tail) from bytes *damaged* (kCorruption — CRC or
/// structural mismatch); the recovery tail-scan relies on the distinction.
struct LogRecord {
  LogRecordType type = LogRecordType::kCommit;
  TxnId txn_id = 0;
  Timestamp commit_ts = 0;
  std::vector<RedoEntry> redo;

  /// Serialize the full frame (header + body).
  std::string Encode() const;

  /// Parse the frame starting at *offset, advancing *offset past it on
  /// success. kTruncated if `in` ends mid-frame (*offset unchanged);
  /// kCorruption on CRC mismatch or malformed body.
  static Status DecodeFrom(Slice in, size_t* offset, LogRecord* out);

  /// Whole-slice convenience: the frame must consume `in` exactly.
  static Status Decode(Slice in, LogRecord* out);
};

class LogManager {
 public:
  /// `env` (nullptr = real filesystem) carries all WAL file I/O in durable
  /// mode; ignored otherwise.
  explicit LogManager(const LogOptions& options, io::Env* env = nullptr);
  ~LogManager();

  /// Stop and join the group-commit flusher, then fire every remaining
  /// flush subscription with the sticky I/O status. Idempotent; the
  /// destructor calls it. TxnManager's destructor quiesces the log first
  /// so no flusher-thread callback (flush subscription -> FinalizeAcked ->
  /// suspended cleanup) can run concurrently with its teardown — the flusher
  /// outlives the TxnManager in every owner (DB members, test fixtures)
  /// because the log must be constructed first.
  void Quiesce();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Append a record; returns its LSN. Never blocks on the flusher. In
  /// the in-memory "no flush" regime (not durable, flush_on_commit unset,
  /// no retain) this is entirely lock-free: two fetch-adds, no encode, no
  /// mutex — the commit pipeline pays nothing for the log it discards.
  Lsn Append(LogRecord record);

  /// Block until a flush covering `lsn` completed and report whether it
  /// actually reached the disk. No-op (OK) unless flush_on_commit is set.
  /// kIOError is sticky: once a WAL write or fsync fails, every subsequent
  /// wait reports it — the in-memory commit stands, but it is not durable.
  Status WaitFlushed(Lsn lsn);

  /// The LSN of the newest appended record (0 before the first).
  Lsn appended_lsn() const {
    return next_lsn_.load(std::memory_order_relaxed) - 1;
  }

  /// Durable mode: block until a flush covering `lsn` completed, whatever
  /// flush_on_commit says — the write-ahead rule a checkpoint keeps before
  /// its runs reach the disk. Returns the sticky I/O status.
  Status WaitDurable(Lsn lsn);

  /// Flush-subscription callback: receives the sticky I/O status as of the
  /// covering flush (WaitFlushed's return value, without the block).
  using FlushCallback = std::function<void(Status)>;

  /// Asynchronous WaitFlushed: run `cb(status)` exactly once, as soon as a
  /// flush covering `lsn` has completed. Mirrors WaitFlushed's contract:
  /// fires immediately (inline, on the calling thread) when commits do not
  /// wait on flushes (!flush_on_commit), when the covering flush already
  /// happened, or during shutdown. Otherwise the group-commit flusher
  /// fires it right after the covering batch's bookkeeping, with mu_
  /// released — the callback may take engine locks and block briefly, but
  /// every subscriber behind it in the same batch waits for it, so keep it
  /// short.
  void OnFlushed(Lsn lsn, FlushCallback cb);

  /// Callback fired exactly once, at the *first* WAL write/fsync failure
  /// (the io_status_ OK -> failed transition), from the flusher thread
  /// with mu_ released. DB uses it to enter read-only mode. If the log is
  /// already poisoned when the callback is registered, it fires inline on
  /// the registering thread — the owner never misses the transition.
  using IOErrorCallback = std::function<void(const Status&)>;
  void SetIOErrorCallback(IOErrorCallback cb);

  /// Sticky WAL I/O status: OK until the first write/fsync failure, that
  /// failure forever after (the WAL never heals — see WalWriter's policy).
  Status io_status() const {
    std::lock_guard<std::mutex> guard(mu_);
    return io_status_;
  }

  /// Group-commit batches that failed to reach the disk (io.errors.wal).
  uint64_t io_errors() const {
    return io_errors_.load(std::memory_order_relaxed);
  }

  /// Retain encoded records in memory for test inspection. Set before any
  /// concurrent appends (flips Append off its lock-free fast path).
  void set_retain(bool retain) {
    retain_.store(retain, std::memory_order_release);
  }
  std::vector<std::string> RetainedRecords() const;

  uint64_t appended_records() const {
    return appended_records_.load(std::memory_order_relaxed);
  }
  uint64_t flush_batches() const {
    return flush_batches_.load(std::memory_order_relaxed);
  }
  /// Bytes written to WAL segment files (0 in simulated mode).
  uint64_t wal_bytes_written() const;

  /// Per-segment metadata registry (empty map in simulated mode): the
  /// input to metadata-driven WAL GC. See recovery::WalSegmentMeta.
  std::map<uint64_t, recovery::WalSegmentMeta> WalSegmentMetadata() const;
  /// Install metadata recovery reconstructed for pre-crash segments.
  void SeedWalSegmentMeta(const std::vector<recovery::WalSegmentMeta>& metas);
  /// Drop a GC'd segment's registry entry.
  void ForgetWalSegment(uint64_t seq);

  bool durable() const { return !options_.wal_dir.empty(); }

  /// Register the log counters (log.records, log.flush_batches,
  /// io.errors.wal) and the flush-batch latency histogram (the write+fsync
  /// — or simulated sleep — of one group-commit batch). Mean records per
  /// batch is the log.records / log.flush_batches ratio over a window.
  /// Always-on timing: the flusher runs off the commit path and each
  /// sample covers a whole batch, so the clock reads are free relative to
  /// the I/O they measure.
  void RegisterMetrics(obs::MetricsRegistry* registry);

 private:
  void FlusherLoop();

  const LogOptions options_;
  io::Env* const env_;
  /// Non-null in durable mode; written to only by the flusher thread.
  std::unique_ptr<recovery::WalWriter> wal_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable flushed_cv_;
  /// Atomic so the no-flush fast path can allocate LSNs without mu_; the
  /// flusher still reads it under mu_ when computing batch coverage.
  std::atomic<Lsn> next_lsn_{1};
  Lsn flushed_lsn_ = 0;
  std::vector<recovery::WalFrame> pending_;
  std::atomic<bool> retain_{false};
  std::vector<std::string> retained_;
  /// First WAL write/fsync failure, sticky (guarded by mu_).
  Status io_status_;
  /// Fired on io_status_'s OK -> failed transition (guarded by mu_; called
  /// with mu_ released).
  IOErrorCallback io_error_cb_;
  /// Failed flush batches.
  std::atomic<uint64_t> io_errors_{0};
  /// Flush subscriptions not yet covered by flushed_lsn_ (guarded by mu_;
  /// unordered — the flusher compares every entry against the batch end).
  struct FlushSub {
    Lsn lsn = 0;
    FlushCallback cb;
  };
  std::vector<FlushSub> flush_subs_;

  // Adaptive group-commit state (flusher thread only): EWMA of the
  // record arrival rate (records per microsecond, measured between batch
  // takes). The straggler wait fires when the batch on hand is small
  // relative to what that rate says a bounded wait would add.
  double arrival_rate_per_us_ = 0.0;
  uint64_t last_take_records_ = 0;
  std::chrono::steady_clock::time_point last_take_time_{};

  std::atomic<uint64_t> appended_records_{0};
  std::atomic<uint64_t> flush_batches_{0};
  /// Wall time of one group-commit flush (flusher thread only records).
  obs::Histogram flush_batch_ns_;

  std::atomic<bool> stop_{false};
  std::thread flusher_;
};

}  // namespace ssidb

#endif  // SSIDB_TXN_LOG_MANAGER_H_
