#include "src/storage/version.h"

#include <cassert>

namespace ssidb {

VersionChain::~VersionChain() { FreeAllLocked(); }

void VersionChain::FreeAllLocked() {
  Version* v = newest_;
  while (v != nullptr) {
    Version* older = v->older;
    delete v;
    v = older;
  }
  newest_ = nullptr;
}

ReadResult VersionChain::Read(TxnId reader, Timestamp read_ts,
                              std::string* value) {
  ReadResult result;
  std::lock_guard<std::mutex> guard(latch_);
  accessed_ = true;
  for (Version* v = newest_; v != nullptr; v = v->older) {
    if (v->creator_txn_id == reader) {
      // A transaction always sees its own writes (§2.5).
      result.found = !v->tombstone;
      result.own_write = true;
      if (result.found && value != nullptr) *value = v->value;
      return result;
    }
    const Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts == 0) {
      // Uncommitted version of a concurrent writer. Invisible; the
      // rw-conflict with its creator is detected through the lock table
      // (Fig 3.4 line 3), not here, to close the §3.2 race.
      continue;
    }
    if (cts > read_ts) {
      result.newer.push_back(NewerVersionInfo{v->creator_txn_id, cts});
      continue;
    }
    result.found = !v->tombstone;
    result.version_cts = cts;
    if (result.found && value != nullptr) *value = v->value;
    return result;
  }
  // Nothing visible. If the chain's cold anchor was spilled to a run file
  // it IS visible to this snapshot (spilled cts <= prune horizon <=
  // read_ts), so the caller must fault it back and retry.
  result.evicted = evicted_;
  return result;
}

Version* VersionChain::InstallUncommitted(TxnId writer, Slice value,
                                          bool tombstone, bool* replaced_own) {
  std::lock_guard<std::mutex> guard(latch_);
  accessed_ = true;
  *replaced_own = false;
  if (newest_ != nullptr && newest_->creator_txn_id == writer &&
      newest_->commit_ts.load(std::memory_order_relaxed) == 0) {
    // Second write by the same transaction: overwrite in place.
    newest_->value = value.ToString();
    newest_->tombstone = tombstone;
    *replaced_own = true;
    return newest_;
  }
  // The exclusive lock held by the writer guarantees no other uncommitted
  // version exists at the head.
  assert(newest_ == nullptr ||
         newest_->commit_ts.load(std::memory_order_relaxed) != 0);
  Version* v = new Version(writer);
  v->value = value.ToString();
  v->tombstone = tombstone;
  v->older = newest_;
  newest_ = v;
  return v;
}

void VersionChain::InstallRecovered(Timestamp commit_ts, Slice value,
                                    bool tombstone) {
  assert(commit_ts != 0);
  std::lock_guard<std::mutex> guard(latch_);
  if (newest_ != nullptr &&
      newest_->commit_ts.load(std::memory_order_relaxed) >= commit_ts) {
    return;  // Already present (repeat replay) — keep the chain as is.
  }
  Version* v = new Version(/*creator=*/0);
  v->value = value.ToString();
  v->tombstone = tombstone;
  v->commit_ts.store(commit_ts, std::memory_order_release);
  v->older = newest_;
  newest_ = v;
}

void VersionChain::RemoveUncommitted(TxnId writer) {
  std::lock_guard<std::mutex> guard(latch_);
  if (newest_ != nullptr && newest_->creator_txn_id == writer &&
      newest_->commit_ts.load(std::memory_order_relaxed) == 0) {
    Version* dead = newest_;
    newest_ = dead->older;
    delete dead;
  }
}

bool VersionChain::HasCommittedVersionAfter(Timestamp since) {
  std::lock_guard<std::mutex> guard(latch_);
  for (Version* v = newest_; v != nullptr; v = v->older) {
    const Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts == 0) continue;
    // Versions are committed in timestamp order along the chain, so the
    // first committed version is the newest committed one.
    return cts > since;
  }
  return false;
}

bool VersionChain::LatestCommitted(Timestamp* commit_ts, bool* tombstone) {
  std::lock_guard<std::mutex> guard(latch_);
  for (Version* v = newest_; v != nullptr; v = v->older) {
    const Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts == 0) continue;
    if (commit_ts != nullptr) *commit_ts = cts;
    if (tombstone != nullptr) *tombstone = v->tombstone;
    return true;
  }
  return false;
}

size_t VersionChain::Prune(Timestamp min_read_ts) {
  std::lock_guard<std::mutex> guard(latch_);
  // Find the newest committed version visible at min_read_ts; everything
  // older is unreachable by any active or future snapshot.
  Version* anchor = nullptr;
  for (Version* v = newest_; v != nullptr; v = v->older) {
    const Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts != 0 && cts <= min_read_ts) {
      anchor = v;
      break;
    }
  }
  if (anchor == nullptr) return 0;
  size_t freed = 0;
  Version* v = anchor->older;
  anchor->older = nullptr;
  while (v != nullptr) {
    Version* older = v->older;
    delete v;
    v = older;
    ++freed;
  }
  return freed;
}

size_t VersionChain::size() const {
  std::lock_guard<std::mutex> guard(latch_);
  size_t n = 0;
  for (Version* v = newest_; v != nullptr; v = v->older) ++n;
  return n;
}

VersionChain::SpillAction VersionChain::SpillProbe(Timestamp horizon,
                                                   std::string* value,
                                                   Timestamp* commit_ts,
                                                   bool* tombstone) {
  std::lock_guard<std::mutex> guard(latch_);
  // Note: no evicted_ test — a chain can be evicted AND hold resident
  // versions (an upsert over an evicted chain installs at the head without
  // faulting the anchor in). Such a hybrid chain re-spills through the
  // normal path: its newest committed version becomes the new anchor and
  // shadows the stale run entry (newest-first lookup).
  if (newest_ == nullptr) return SpillAction::kSkip;
  if (accessed_) {
    accessed_ = false;  // Second chance: spill only if still cold next sweep.
    return SpillAction::kSkip;
  }
  const Timestamp cts = newest_->commit_ts.load(std::memory_order_acquire);
  if (cts == 0) return SpillAction::kSkip;  // Uncommitted head: in use.
  // Committed-at-head implies the whole chain is committed, and versions
  // commit in timestamp order, so `newest_` is the anchor.
  if (cts > horizon) return SpillAction::kSkip;  // Some snapshot may differ.
  if (cts == spilled_cts_) {
    // The anchor is already durable in a live run (an earlier CommitSpill
    // lost its re-verification race, or recovery kept a resident copy).
    FreeAllLocked();
    evicted_ = true;
    return SpillAction::kDropNow;
  }
  *value = newest_->value;
  *commit_ts = cts;
  *tombstone = newest_->tombstone;
  return SpillAction::kWrite;
}

bool VersionChain::CommitSpill(Timestamp cts) {
  std::lock_guard<std::mutex> guard(latch_);
  // The run is durable regardless of what happened to the chain since the
  // probe; remember that so a skipped eviction retries as kDropNow.
  if (cts > spilled_cts_) spilled_cts_ = cts;
  if (newest_ == nullptr) return false;
  if (accessed_) return false;  // Touched since the probe: stay resident.
  const Timestamp head_cts = newest_->commit_ts.load(std::memory_order_acquire);
  if (head_cts != cts) return false;  // New write (committed or not) arrived.
  FreeAllLocked();
  evicted_ = true;
  return true;
}

void VersionChain::FaultInstall(Timestamp cts, Slice value, bool tombstone) {
  assert(cts != 0);
  std::lock_guard<std::mutex> guard(latch_);
  accessed_ = true;
  if (!evicted_) return;  // Another faulter won the race.
  // Every resident version was installed after eviction and committed (or
  // will commit) past the prune horizon, hence past `cts`: append at the
  // tail to keep the chain newest-first.
  Version* v = new Version(/*creator=*/0);
  v->value = value.ToString();
  v->tombstone = tombstone;
  v->commit_ts.store(cts, std::memory_order_release);
  if (newest_ == nullptr) {
    newest_ = v;
  } else {
    Version* tail = newest_;
    while (tail->older != nullptr) tail = tail->older;
    tail->older = v;
  }
  evicted_ = false;
}

void VersionChain::SetEvictedRecovered(Timestamp cts) {
  assert(cts != 0);
  std::lock_guard<std::mutex> guard(latch_);
  if (cts <= spilled_cts_) return;  // An older run entry; already covered.
  spilled_cts_ = cts;
  if (newest_ != nullptr &&
      newest_->commit_ts.load(std::memory_order_relaxed) >= cts) {
    // WAL replay installed this version (or a newer one): the
    // resident copy wins; the run entry is merely its durable twin.
    return;
  }
  // The run holds a newer version than anything replayed: the replayed
  // versions are stale prefixes of history nothing can read (recovery
  // admits no active snapshots). Evict the chain so the run stays its home.
  FreeAllLocked();
  evicted_ = true;
}

bool VersionChain::evicted() const {
  std::lock_guard<std::mutex> guard(latch_);
  return evicted_;
}

}  // namespace ssidb
