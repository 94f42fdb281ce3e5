// Checkpoint manifest: the one small file that names a checkpoint's cut.
//
// A checkpoint writes the watermark cut as a run generation (one sorted
// run per table holding each key's newest version <= W committed since
// the previous checkpoint, tombstones included — see DB::Checkpoint) and
// then this manifest into wal_dir. The runs are the bulk data; the
// manifest only says where WAL replay resumes (W) and which tables exist
// (id -> name), so recovery can create them before replaying the WAL past
// W and registering every run (StorageTier::RecoverRuns).
//
// File "manifest-<W, 20 digits>.mf" (integers big-endian):
//   magic8 "SSIDBMF1"
//   u64 watermark
//   u32 table_count
//   table_count x { lp name }      ids are dense: entry i is table i
//   u32 crc                        CRC32C of every byte above
//
// Write protocol: serialize into <name>.tmp, fsync, rename, fsync the
// directory. A crash leaves a .tmp (ignored, removed by the next write) or
// the complete file; a manifest is trusted only if its CRC validates.

#ifndef SSIDB_RECOVERY_MANIFEST_H_
#define SSIDB_RECOVERY_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/io/env.h"
#include "src/storage/version.h"

namespace ssidb::recovery {

struct Manifest {
  /// The checkpoint's cut: every commit at or below it is in a run.
  Timestamp watermark = 0;
  /// Table names by id (dense, creation order).
  std::vector<std::string> tables;
};

std::string ManifestFileName(Timestamp watermark);

/// Durably write `manifest` into `dir` (created if missing). On failure
/// the partial .tmp is removed and older manifests are untouched. `bytes`
/// (optional) receives the file size.
Status WriteManifest(const std::string& dir, const Manifest& manifest,
                     bool fsync, io::Env* env, uint64_t* bytes);

/// Remove every manifest older than `watermark` and any stranded .tmp.
/// False when one could not be removed (WAL GC must then wait: recovery
/// could still fall back to it).
bool DropManifestsBefore(const std::string& dir, Timestamp watermark,
                         io::Env* env);

/// Load the newest manifest whose CRC validates, falling back to older
/// ones. *found=false with OK status when `dir` holds no manifest at all;
/// kCorruption when manifests exist but none validates.
Status LoadNewestManifest(const std::string& dir, Manifest* out,
                          bool* found);

}  // namespace ssidb::recovery

#endif  // SSIDB_RECOVERY_MANIFEST_H_
