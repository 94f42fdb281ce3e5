// Crash recovery: rebuild committed state from the newest checkpoint
// manifest plus the WAL segments past it.
//
// Protocol (DB::Open runs this before the engine accepts transactions):
//   1. Load the newest manifest whose CRC validates (LoadNewestManifest;
//      a damaged newest one falls back to an older valid one, and
//      manifests that all fail are kCorruption) and create its tables in
//      id order. The checkpoint's data is not loaded here: it lives in
//      run files, which the DB registers afterwards
//      (StorageTier::RecoverRuns), leaving the covered chains evicted.
//   2. Scan WAL segments in sequence order and replay records:
//        - table creations are applied idempotently (skipped when the name
//          already exists — e.g. it was in the manifest);
//        - commit records at or below the manifest watermark are skipped
//          (their effects are in the runs); newer ones reinstall each
//          redo key's version, again idempotently, so replaying the same
//          log twice — or a log overlapping the checkpoint — is harmless.
//   3. A damaged record at the tail of the *newest* segment is the
//      expected torn write of a crash: replay stops cleanly there.
//      Damage in an older segment cannot come from a torn append (older
//      segments were sealed with an fsync) and fails recovery with
//      kCorruption.
//
// Replay leaves the directory untouched with one exception: a torn tail
// is *truncated* to its clean prefix, so the segment is sealed-clean
// before the new session's writer opens a fresh segment after it (an
// unrepaired tear would sit mid-log and read as corruption one session
// later). The truncation is idempotent — a crash *during* recovery just
// runs recovery again.
//
// After recovery the caller must advance the engine's clock past
// max_commit_ts so new transactions get snapshots that include every
// recovered version (TxnManager::AdvanceClockTo).

#ifndef SSIDB_RECOVERY_RECOVERY_H_
#define SSIDB_RECOVERY_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/io/env.h"
#include "src/recovery/wal.h"
#include "src/storage/catalog.h"

namespace ssidb::recovery {

struct RecoveryStats {
  /// Watermark of the manifest recovery started from (0: none): WAL
  /// replay resumes after this cut.
  Timestamp checkpoint_ts = 0;
  uint64_t segments_scanned = 0;
  uint64_t commit_records_applied = 0;
  uint64_t redo_entries_applied = 0;
  /// Replay ended at a damaged record in the newest segment (the normal
  /// post-crash shape when the flusher died mid-write).
  bool torn_tail = false;
  /// Newest commit timestamp recovered (manifest watermark if the WAL
  /// held nothing newer); 0 for a fresh directory.
  Timestamp max_commit_ts = 0;
  /// Per-segment metadata rebuilt from the one obligatory replay scan —
  /// seeded into the engine's WAL writer so checkpoint GC can decide
  /// segment coverage without ever re-reading a segment.
  std::vector<WalSegmentMeta> wal_segments;
};

/// Rebuild `catalog` (which must be empty) from `dir`. A missing or empty
/// directory is a fresh database: OK with zeroed stats. `env` (nullptr =
/// real filesystem) carries segment reads and the torn-tail truncation.
Status Recover(const std::string& dir, Catalog* catalog,
               RecoveryStats* stats, io::Env* env = nullptr);

}  // namespace ssidb::recovery

#endif  // SSIDB_RECOVERY_RECOVERY_H_
