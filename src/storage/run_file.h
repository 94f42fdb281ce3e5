// RunFile: an immutable sorted run — the on-disk home of spilled version
// chains and of checkpoint cuts.
//
// A run holds one committed version per key (a spilled chain's anchor, or
// a key's newest version at a checkpoint watermark: key, commit_ts,
// tombstone flag, value), sorted by key, packed into
// fixed-size CRC-framed pages, with a fence-key sparse index in the footer
// so a point lookup touches exactly one data page through the buffer pool.
// A key may appear in several runs of a table (respilled or checkpointed
// again after new commits); lookups probe runs newest-first and stop at the first hit, and
// compaction merges a table's runs keeping the newest commit_ts per key.
//
// File layout (all integers big-endian via encoding.h):
//   page 0                        header: magic8 "SSIDBRUN", u32 table_id,
//                                 u32 page_bytes, u64 seq, zero padding
//   pages 1..page_count           data pages (format below)
//   footer (after the last page)  magic8 "SSIDBRIX", u32 page_count,
//                                 u32 entry_count_total,
//                                 page_count x { lp first_key },
//                                 u32 crc of the footer bytes above
//   trailer (last 16 bytes)       u64 footer_offset, magic8 "SSIDBEND"
//
// Data page (page_bytes long, zero-padded):
//   u32 crc          CRC32C of bytes [4, 12 + payload_bytes)
//   u32 payload_bytes
//   u32 entry_count
//   entry_count x { lp key, u64 commit_ts, u8 tombstone, lp value }
//
// Durability: the writer serializes into "<name>.tmp", writes data pages
// through the buffer pool (dirty frames, flushed back before the fsync so
// the pool's writeback path is the real write path), fsyncs, renames and
// fsyncs the directory. A run is only
// opened if its header, trailer and footer CRC validate; data pages are
// CRC-checked on every pool load parse.
//
// Streaming: the writer pulls entries from a RunEntrySource one at a time
// and holds one page of payload, and a Cursor reads a run one page at a
// time. Compaction (MergeRuns) joins the two, so merging k runs costs k
// input pages plus one output page of memory, whatever the table size.
// Entries are decoded in place (RunEntryView: slices over the page
// buffer); only a Lookup hit is copied out.

#ifndef SSIDB_STORAGE_RUN_FILE_H_
#define SSIDB_STORAGE_RUN_FILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/version.h"

namespace ssidb {

/// One spilled key: the version-chain anchor at spill time.
struct RunEntry {
  std::string key;
  std::string value;
  Timestamp commit_ts = 0;
  bool tombstone = false;
};

/// A run entry decoded in place: key and value point into a page buffer
/// (or the caller's RunEntry) and stay valid only until it is reused.
struct RunEntryView {
  Slice key;
  Slice value;
  Timestamp commit_ts = 0;
  bool tombstone = false;
};

/// A key-sorted entry stream feeding RunFile::Create. Each call either
/// sets *next (valid until the following call) or sets *done; a non-OK
/// status aborts the write.
using RunEntrySource = std::function<Status(RunEntryView* next, bool* done)>;

class RunFile {
 public:
  /// Largest encoded entry a page can hold.
  static uint64_t MaxEntryBytes(uint32_t page_bytes);
  /// Encoded size of an entry with this key and value.
  static uint64_t EncodedEntryBytes(size_t key_bytes, size_t value_bytes);

  /// Write the run `source` yields (sorted by key) for table `table` into
  /// `path` and open it: the data pages flow through `pool` (written back
  /// by FlushFile before the fsync) under the pool file id `file_id`, so
  /// the new run's pages are warm. On success *out holds the opened,
  /// pool-registered run. On any failure (ENOSPC, EIO, writeback, or an
  /// error from `source`) the partial "<path>.tmp" is removed and the pool
  /// purged of the file id before the rename — the directory never
  /// accumulates garbage and the caller may retry. `env` (nullptr = real
  /// filesystem) carries every byte.
  static Status Create(const std::string& path, uint32_t table_id,
                       uint64_t seq, uint64_t file_id, uint32_t page_bytes,
                       const RunEntrySource& source, BufferPool* pool,
                       bool fsync, std::shared_ptr<RunFile>* out,
                       io::Env* env = nullptr);

  /// Create from `entries` (sorted by key, non-empty): the spill path.
  static Status Create(const std::string& path, uint32_t table_id,
                       uint64_t seq, uint64_t file_id, uint32_t page_bytes,
                       const std::vector<RunEntry>& entries, BufferPool* pool,
                       bool fsync, std::shared_ptr<RunFile>* out,
                       io::Env* env = nullptr);

  /// Open an existing run (recovery): validate header/footer, load the
  /// fence index, register the descriptor with the pool under `file_id`.
  static Status Open(const std::string& path, uint64_t file_id,
                     BufferPool* pool, std::shared_ptr<RunFile>* out,
                     io::Env* env = nullptr);

  ~RunFile();

  RunFile(const RunFile&) = delete;
  RunFile& operator=(const RunFile&) = delete;

  uint32_t table_id() const { return table_id_; }
  uint64_t seq() const { return seq_; }
  uint64_t file_id() const { return file_->id(); }
  const std::string& path() const { return path_; }
  uint32_t page_count() const { return page_count_; }
  uint64_t entry_count() const { return entry_count_; }
  /// Size of the file on disk (pages, footer and trailer).
  uint64_t file_bytes() const { return file_bytes_; }

  /// Point lookup through the buffer pool: fence binary search picks the
  /// data page, the pinned page is CRC-checked and searched in place, and
  /// only the matching entry is copied into *out. *found=false (OK status)
  /// when the key is not in this run. *pinned (if non-null) tells whether
  /// a page was pinned: a key below the run's first key pins none.
  Status Lookup(BufferPool* pool, Slice key, RunEntry* out, bool* found,
                bool* pinned = nullptr) const;

  /// Sequential reader over the run's entries in key order, with direct
  /// pread into one page buffer: compaction and recovery bypass the pool
  /// so a full-file pass cannot thrash resident hot pages. The run must
  /// outlive the cursor.
  class Cursor {
   public:
    explicit Cursor(const RunFile* run);

    /// Step to the next entry (the first, on the first call). valid() is
    /// false once the run is exhausted.
    Status Next();
    bool valid() const { return valid_; }
    /// The current entry; its slices stay valid until the next Next().
    const RunEntryView& entry() const { return entry_; }

   private:
    const RunFile* const run_;
    std::string page_;
    Slice body_;              // Header + payload of the loaded page.
    size_t offset_ = 0;       // Next entry's offset within body_.
    uint32_t left_ = 0;       // Entries not yet decoded on this page.
    uint32_t next_page_ = 0;  // Next data page index to load.
    bool valid_ = false;
    RunEntryView entry_;
  };

  /// Visit every entry in key order through a Cursor.
  Status ForEachEntry(
      const std::function<void(const RunEntryView&)>& fn) const;

 private:
  RunFile(std::string path, std::shared_ptr<PoolFile> file, uint32_t table_id,
          uint64_t seq, uint32_t page_bytes, uint32_t page_count,
          uint64_t entry_count, uint64_t file_bytes,
          std::vector<std::string> fences, BufferPool* pool, io::Env* env);

  const std::string path_;
  const std::shared_ptr<PoolFile> file_;
  const uint32_t table_id_;
  const uint64_t seq_;
  const uint32_t page_bytes_;
  const uint32_t page_count_;
  const uint64_t entry_count_;
  const uint64_t file_bytes_;
  /// fences_[i] = first key of data page i (file page i + 1).
  const std::vector<std::string> fences_;
  /// The pool this run is registered with (for unregistration on destroy).
  BufferPool* const pool_;
  /// Carries the cursors' direct preads.
  io::Env* const env_;
};

/// K-way merge of `inputs` (newest run first) over one Cursor each: yields
/// every key once, the entry with the highest commit_ts winning (on a tie,
/// the earlier input), tombstones included. The source owns the inputs
/// until it is destroyed.
RunEntrySource MergeRuns(std::vector<std::shared_ptr<RunFile>> inputs);

}  // namespace ssidb

#endif  // SSIDB_STORAGE_RUN_FILE_H_
