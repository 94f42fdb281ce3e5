#include "src/recovery/recovery.h"

#include <filesystem>
#include <vector>

#include "src/recovery/manifest.h"
#include "src/recovery/wal.h"

namespace ssidb::recovery {

namespace {

/// Apply one replayed record to the catalog. Returns non-OK only for
/// defects that invalidate the log's internal consistency.
Status ApplyRecord(const LogRecord& record, Timestamp checkpoint_ts,
                   Catalog* catalog, RecoveryStats* stats) {
  if (record.type == LogRecordType::kTableCreate) {
    if (record.redo.size() != 1) {
      return Status::Corruption("table-create record without name entry");
    }
    const RedoEntry& e = record.redo[0];
    TableId existing = 0;
    if (catalog->FindTable(e.key, &existing).ok()) {
      return Status::OK();  // Already present (manifest or repeat replay).
    }
    TableId assigned = 0;
    Status st = catalog->CreateTable(e.key, &assigned);
    if (!st.ok()) return st;
    if (assigned != e.table) {
      // Ids are dense and allocated in creation order; a mismatch means
      // the log and the catalog tell different histories.
      return Status::Corruption("table id diverged during replay");
    }
    return Status::OK();
  }
  // Commit record.
  if (record.commit_ts == 0) {
    return Status::Corruption("commit record without timestamp");
  }
  if (record.commit_ts <= checkpoint_ts) {
    return Status::OK();  // Effects already captured by the checkpoint.
  }
  for (const RedoEntry& e : record.redo) {
    Table* table = catalog->table(e.table);
    if (table == nullptr) {
      // The table-create that must precede this commit in the log is
      // missing: the durable prefix ended before this commit's
      // dependencies, so the commit itself was never acknowledged.
      return Status::Corruption("commit references unknown table");
    }
    table->RecoverVersion(e.key, e.value, e.tombstone, record.commit_ts);
    ++stats->redo_entries_applied;
  }
  ++stats->commit_records_applied;
  if (record.commit_ts > stats->max_commit_ts) {
    stats->max_commit_ts = record.commit_ts;
  }
  return Status::OK();
}

}  // namespace

Status Recover(const std::string& dir, Catalog* catalog,
               RecoveryStats* stats, io::Env* env) {
  env = io::ResolveEnv(env);
  *stats = RecoveryStats{};
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return Status::OK();

  // 1. The newest valid manifest: its tables, recreated in id order so
  // WAL commit records (keyed by id) and run files bind to the same ids.
  // Segment GC only reclaims up to a manifest's watermark after that
  // manifest is durable, so the WAL past the chosen one is always there.
  Manifest manifest;
  bool have_manifest = false;
  Status st = LoadNewestManifest(dir, &manifest, &have_manifest);
  if (!st.ok()) return st;
  if (have_manifest) {
    for (const std::string& name : manifest.tables) {
      TableId assigned = 0;
      st = catalog->CreateTable(name, &assigned);
      if (!st.ok()) return st;
    }
    stats->checkpoint_ts = manifest.watermark;
    stats->max_commit_ts = manifest.watermark;
  }

  // 2. WAL replay past the checkpoint.
  std::vector<std::string> segments;
  st = ListWalSegments(dir, &segments);
  if (!st.ok()) return st;
  for (size_t i = 0; i < segments.size(); ++i) {
    WalScanResult scan;
    st = ScanWalSegment(segments[i], &scan, env);
    if (!st.ok()) return st;
    ++stats->segments_scanned;
    // Rebuild the segment's metadata from this (obligatory) scan, so the
    // engine's checkpoint GC never has to re-read it.
    WalSegmentMeta meta;
    ParseWalSegmentSeq(segments[i], &meta.seq);
    for (const LogRecord& record : scan.records) {
      const uint32_t created_table =
          record.type == LogRecordType::kTableCreate && !record.redo.empty()
              ? record.redo[0].table
              : 0;
      AccumulateSegmentMeta(record.type, record.commit_ts, created_table,
                            &meta);
      st = ApplyRecord(record, stats->checkpoint_ts, catalog, stats);
      if (!st.ok()) return st;
    }
    stats->wal_segments.push_back(meta);
    if (!scan.tail.ok()) {
      if (i + 1 == segments.size()) {
        // 3. Torn tail of the newest segment: the crash interrupted the
        // flusher mid-frame. Everything before it is the acknowledged
        // prefix; stop cleanly — after cutting the tear off. Without the
        // truncation, the next session's writer would open a fresh
        // segment past this one, leaving the tear mid-log where the
        // session after that must refuse it as corruption.
        stats->torn_tail = true;
        Status trunc = env->ResizeFile(segments[i], scan.valid_bytes);
        if (!trunc.ok()) return trunc;
        break;
      }
      return Status::Corruption("damaged record mid-log in " + segments[i] +
                                ": " + scan.tail.ToString());
    }
  }
  return Status::OK();
}

}  // namespace ssidb::recovery
