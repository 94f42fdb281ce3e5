#include "src/txn/executor.h"

#include <cassert>
#include <unordered_set>
#include <vector>

#include "src/common/encoding.h"
#include "src/storage/storage_tier.h"

namespace ssidb {

Executor::Executor(const DBOptions& options, Catalog* catalog,
                   TxnManager* txns, LockManager* locks,
                   ConflictTracker* tracker, sgt::HistoryRecorder* history)
    : options_(options),
      catalog_(catalog),
      txns_(txns),
      locks_(locks),
      tracker_(tracker),
      history_(history),
      sample_mask_(obs::SampleMask(options.metrics_sample_period)) {}

void Executor::RegisterMetrics(obs::MetricsRegistry* registry,
                               obs::TraceRing* trace) {
  registry->RegisterHistogram("read.hit_ns", &read_hit_ns_);
  registry->RegisterHistogram("read.fault_ns", &read_fault_ns_);
  trace_ = trace;
}

Status Executor::CheckUsable(TxnCtx& txn) {
  if (txn.finished) {
    return Status::TxnInvalid("transaction already finished");
  }
  if (txn.state->marked_for_abort.load(std::memory_order_acquire)) {
    // §3.7.2: another transaction's conflict processing chose us as the
    // victim; honour the mark at the next operation.
    const Status reason = txn.state->abort_reason;
    return AbortWith(txn, reason.ok() ? Status::Unsafe("marked for abort")
                                      : reason);
  }
  return Status::OK();
}

void Executor::EnsureSnapshot(TxnCtx& txn) {
  txns_->EnsureSnapshot(txn.state.get());
  if (!txn.history_begin_recorded && history_ != nullptr) {
    history_->Begin(txn.state->id, txn.state->read_ts.load());
    txn.history_begin_recorded = true;
  }
}

Status Executor::AbortWith(TxnCtx& txn, const Status& cause) {
  // Taxonomy fallback from the status code. SetAbortCause is
  // first-writer-wins, so a more specific classification made at the
  // decision site (conflict tracker, FCW check) survives this mapping.
  TxnState* state = txn.state.get();
  if (cause.IsDeadlock()) {
    state->SetAbortCause(AbortReason::kDeadlock, 0);
  } else if (cause.IsTimedOut()) {
    state->SetAbortCause(AbortReason::kLockTimeout, 0);
  } else if (cause.IsUpdateConflict()) {
    state->SetAbortCause(AbortReason::kFcwRow, 0);
  } else if (cause.IsIOError()) {
    state->SetAbortCause(AbortReason::kTierIo, 0);
  } else if (cause.IsUnsafe()) {
    state->SetAbortCause(AbortReason::kSsiPivot, 0);
  }
  txns_->Abort(txn.state);
  if (!txn.finished && history_ != nullptr) {
    history_->Abort(txn.state->id);
  }
  txn.finished = true;
  return cause;
}

const LockKey& Executor::RowLockKeyInto(TxnCtx& txn, TableId table,
                                        Slice key) const {
  if (options_.granularity == LockGranularity::kPage) {
    txn.scratch_row_key.Assign(
        table, LockKind::kPage,
        EncodeU64Key(Table::PageOf(key, options_.rows_per_page)));
  } else {
    txn.scratch_row_key.Assign(table, LockKind::kRow, key);
  }
  return txn.scratch_row_key;
}

const LockKey& Executor::GapLockKeyInto(
    TxnCtx& txn, TableId table,
    const std::optional<std::string>& next_key) const {
  if (!next_key.has_value()) {
    txn.scratch_gap_key.Assign(table, LockKind::kSupremum, Slice());
  } else {
    txn.scratch_gap_key.Assign(table, LockKind::kGap, *next_key);
  }
  return txn.scratch_gap_key;
}

Status Executor::AcquireAndMark(TxnCtx& txn, const LockKey& lk,
                                LockMode mode) {
  assert(mode != LockMode::kSIRead);  // SIREAD uses AcquireSIReadAndMark.
  TxnState* state = txn.state.get();
  AcquireResult r = locks_->Acquire(state->id, lk, mode);
  if (!r.status.ok()) {
    return AbortWith(txn, r.status);
  }
  if (state->isolation == IsolationLevel::kSerializableSSI &&
      mode == LockMode::kExclusive) {
    for (TxnId other : r.rw_conflicts) {
      // Fig 3.5 line 4: the writer found SIREAD holders.
      Status st = tracker_->OnWriterSawSIReadHolder(state, other);
      if (!st.ok()) {
        return AbortWith(txn, st);
      }
    }
  }
  if (state->marked_for_abort.load(std::memory_order_acquire)) {
    const Status reason = state->abort_reason;
    return AbortWith(txn, reason.ok() ? Status::Unsafe("marked for abort")
                                      : reason);
  }
  return Status::OK();
}

Status Executor::AcquireSIReadAndMark(TxnCtx& txn, TableId table,
                                      LockKind kind, Slice key) {
  TxnState* state = txn.state.get();
  RwConflicts writers;
  locks_->AcquireSIRead(state->id, table, kind, key, &writers);
  for (TxnId other : writers) {
    // Fig 3.4 line 3: the reader found an EXCLUSIVE holder.
    Status st = tracker_->OnReaderSawExclusiveHolder(state, other);
    if (!st.ok()) {
      return AbortWith(txn, st);
    }
  }
  if (state->marked_for_abort.load(std::memory_order_acquire)) {
    const Status reason = state->abort_reason;
    return AbortWith(txn, reason.ok() ? Status::Unsafe("marked for abort")
                                      : reason);
  }
  return Status::OK();
}

Status Executor::ReadChainAndMark(TxnCtx& txn, const LockKey* page_lk,
                                  VersionChain* chain, std::string* value,
                                  ReadResult* out) {
  TxnState* state = txn.state.get();
  const bool locking_read =
      state->isolation == IsolationLevel::kSerializable2PL;
  const Timestamp read_ts =
      locking_read ? kMaxTimestamp : state->read_ts.load();
  if (chain != nullptr) {
    *out = chain->Read(state->id, read_ts, value);
  } else {
    *out = ReadResult{};
  }
  if (state->isolation != IsolationLevel::kSerializableSSI) {
    return Status::OK();
  }
  // Fig 3.4 lines 8-9: every ignored newer committed version is an
  // rw-antidependency from this reader to its creator.
  for (const NewerVersionInfo& n : out->newer) {
    Status st =
        tracker_->MarkReadOfNewerVersion(state, n.creator_txn_id, n.commit_ts);
    if (!st.ok()) {
      return AbortWith(txn, st);
    }
  }
  if (options_.granularity == LockGranularity::kPage) {
    // §4.2: Berkeley DB versions whole pages, so reading any row of a page
    // whose newest committed page version postdates the snapshot is a
    // conflict with that version's creator — even if the row itself is
    // unchanged. This is the source of the paper's page-level false
    // positives (§6.1.5). The page key was computed once by the caller
    // (it is the operation's lock key) and flows through here.
    assert(page_lk != nullptr && page_lk->kind == LockKind::kPage);
    Timestamp ts = 0;
    TxnId creator = 0;
    if (txns_->PageLastWrite(*page_lk, &ts, &creator) && ts > read_ts &&
        creator != state->id) {
      Status st = tracker_->MarkReadOfNewerVersion(state, creator, ts);
      if (!st.ok()) {
        return AbortWith(txn, st);
      }
    }
  }
  return Status::OK();
}

Status Executor::ReadChainFaulting(TxnCtx& txn, Table* t, Slice key,
                                   const LockKey* page_lk,
                                   VersionChain* chain, std::string* value,
                                   ReadResult* out) {
  // Hit latency is sampled; once a fault fires the I/O dominates, so an
  // unsampled read starts its clock at the first fault and the fault
  // histogram stays complete either way.
  thread_local uint32_t read_tick = 0;
  const bool sampled = obs::SampleTick(read_tick, sample_mask_);
  uint64_t t0 = sampled ? obs::NowNanos() : 0;
  int attempt = 0;
  // A faulted chain can in principle be re-evicted by the sweeper between
  // our install and the re-read; the bound turns a pathological loop into
  // an abort the application can retry.
  for (;; ++attempt) {
    Status st = ReadChainAndMark(txn, page_lk, chain, value, out);
    if (!st.ok()) return st;
    if (!out->evicted) break;
    if (attempt >= 8) {
      return AbortWith(txn, Status::IOError("version fault retry limit"));
    }
    if (attempt == 0 && !sampled) t0 = obs::NowNanos();
    st = t->FaultChain(key, chain);
    if (!st.ok()) return AbortWith(txn, st);
  }
  if (attempt > 0) {
    const uint64_t ns = obs::NowNanos() - t0;
    read_fault_ns_.Record(ns);
    if (trace_ != nullptr) {
      trace_->Emit(obs::TraceEvent::kFault, txn.state->id,
                   /*arg16=*/0, /*arg32=*/static_cast<uint32_t>(attempt), ns);
    }
  } else if (sampled) {
    read_hit_ns_.Record(obs::NowNanos() - t0);
  }
  return Status::OK();
}

Status Executor::Get(TxnCtx& txn, TableId table, Slice key,
                     std::string* value) {
  Status st = CheckUsable(txn);
  if (!st.ok()) return st;
  Table* t = catalog_->table(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  TxnState* state = txn.state.get();

  const bool page_mode = options_.granularity == LockGranularity::kPage;
  const LockKey* page_lk = nullptr;
  switch (state->isolation) {
    case IsolationLevel::kSerializable2PL:
      EnsureSnapshot(txn);
      st = AcquireAndMark(txn, RowLockKeyInto(txn, table, key),
                          LockMode::kShared);
      break;
    case IsolationLevel::kSerializableSSI:
      EnsureSnapshot(txn);
      if (page_mode) {
        // The page key is materialized once (scratch) and shared with the
        // §4.2 page-conflict check below.
        const LockKey& lk = RowLockKeyInto(txn, table, key);
        page_lk = &lk;
        st = AcquireSIReadAndMark(txn, table, LockKind::kPage, lk.key);
      } else {
        // Hot path: the SIREAD publication and the EXCLUSIVE-holder probe
        // take the key as a Slice — no LockKey, no copy, no allocation.
        st = AcquireSIReadAndMark(txn, table, LockKind::kRow, key);
      }
      break;
    case IsolationLevel::kSnapshot:
      EnsureSnapshot(txn);
      break;
  }
  if (!st.ok()) return st;

  VersionChain* chain = t->Find(key);
  ReadResult rr;
  st = ReadChainFaulting(txn, t, key, page_lk, chain, value, &rr);
  if (!st.ok()) return st;

  if (history_ != nullptr) {
    history_->Read(state->id, table, key, rr.version_cts, rr.own_write);
  }
  return rr.found ? Status::OK() : Status::NotFound();
}

Status Executor::GetForUpdate(TxnCtx& txn, TableId table, Slice key,
                              std::string* value) {
  Status st = CheckUsable(txn);
  if (!st.ok()) return st;
  Table* t = catalog_->table(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  TxnState* state = txn.state.get();

  // The write protocol's front half (§2.6.2 promotion semantics): lock
  // first, snapshot after (§4.5), then verify first-committer-wins. The
  // exclusive lock is held to commit, so the read "promotes" to an update
  // from every concurrent transaction's point of view.
  const LockKey& row_lk = RowLockKeyInto(txn, table, key);
  st = AcquireAndMark(txn, row_lk, LockMode::kExclusive);
  if (!st.ok()) return st;
  EnsureSnapshot(txn);

  const bool page_mode = options_.granularity == LockGranularity::kPage;
  const LockKey* page_lk = page_mode ? &row_lk : nullptr;

  VersionChain* chain = t->Find(key);
  if (chain != nullptr &&
      state->isolation != IsolationLevel::kSerializable2PL) {
    st = CheckFirstCommitterWins(txn, chain, row_lk);
    if (!st.ok()) return AbortWith(txn, st);
  }

  std::string local;
  if (value == nullptr) value = &local;
  ReadResult rr;
  st = ReadChainFaulting(txn, t, key, page_lk, chain, value, &rr);
  if (!st.ok()) return st;
  if (history_ != nullptr) {
    history_->Read(state->id, table, key, rr.version_cts, rr.own_write);
  }
  if (rr.found && !rr.own_write) {
    // Oracle semantics (§2.6.2): the locking read is "treated for
    // concurrency control exactly like an update" — install an identity
    // version so a concurrent writer's first-committer-wins check sees
    // this transaction's commit. Without it, the PostgreSQL interleaving
    // the paper documents (SFU commits, concurrent write slips through)
    // would be admitted.
    bool replaced_own = false;
    Version* v = chain->InstallUncommitted(state->id, *value,
                                           /*tombstone=*/false,
                                           &replaced_own);
    if (!replaced_own) {
      state->write_set.push_back(
          TxnState::WriteRecord{table, key.ToString(), chain, v, t});
    }
    if (page_mode && !replaced_own) {
      state->page_writes.push_back(row_lk);
    }
    if (history_ != nullptr) {
      history_->Write(state->id, table, key, /*tombstone=*/false);
    }
  }
  return rr.found ? Status::OK() : Status::NotFound();
}

Status Executor::CheckFirstCommitterWins(TxnCtx& txn, VersionChain* chain,
                                         const LockKey& row_lk) {
  const Timestamp read_ts = txn.state->read_ts.load();
  if (chain->HasCommittedVersionAfter(read_ts)) {
    txn.state->SetAbortCause(AbortReason::kFcwRow, 0);
    return Status::UpdateConflict("newer committed version");
  }
  if (options_.granularity == LockGranularity::kPage &&
      txns_->PageLastWriteTs(row_lk) > read_ts) {
    // §4.2: Berkeley DB applies first-committer-wins per page.
    txn.state->SetAbortCause(AbortReason::kFcwPage, 0);
    return Status::UpdateConflict("page modified since snapshot");
  }
  return Status::OK();
}

Status Executor::WriteImpl(TxnCtx& txn, TableId table, Slice key, Slice value,
                           WriteKind kind) {
  Status st = CheckUsable(txn);
  if (!st.ok()) return st;
  Table* t = catalog_->table(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  if (key.empty()) return Status::InvalidArgument("empty key");
  // With a storage tier every committed version must fit one run page:
  // runs are where spills and checkpoints put it.
  if (const StorageTier* tier = t->storage_tier();
      tier != nullptr && !tier->EntryFits(key, value)) {
    return Status::InvalidArgument("entry larger than a run page");
  }
  TxnState* state = txn.state.get();

  const bool new_index_entry = t->Find(key) == nullptr;
  const LockKey& row_lk = RowLockKeyInto(txn, table, key);

  // §4.5: the exclusive lock is acquired *before* the snapshot is chosen,
  // so a single-statement update always sees the latest committed version
  // and never aborts under first-committer-wins.
  st = AcquireAndMark(txn, row_lk, LockMode::kExclusive);
  if (!st.ok()) return st;

  if (new_index_entry && options_.granularity == LockGranularity::kRow) {
    // Fig 3.7: inserts take the gap lock on next(key) — an insert-intention
    // exclusive that conflicts with scanners' gap locks but not with other
    // inserts into the same gap (InnoDB semantics). Page locks subsume
    // phantoms in kPage mode (§3.5).
    st = AcquireAndMark(txn, GapLockKeyInto(txn, table, t->NextKey(key)),
                        LockMode::kExclusive);
    if (!st.ok()) return st;
  }

  EnsureSnapshot(txn);

  VersionChain* chain = t->GetOrCreate(key);

  if (state->isolation != IsolationLevel::kSerializable2PL) {
    st = CheckFirstCommitterWins(txn, chain, row_lk);
    if (!st.ok()) return AbortWith(txn, st);
  }

  // Visibility-dependent semantics: duplicate detection for Insert,
  // existence for Delete. These return without aborting — statement-level
  // errors the application may handle (SmallBank rolls back explicitly on
  // unknown customer names, §2.8.3).
  if (kind != WriteKind::kUpsert) {
    const Timestamp read_ts =
        state->isolation == IsolationLevel::kSerializable2PL
            ? kMaxTimestamp
            : state->read_ts.load();
    ReadResult rr = chain->Read(state->id, read_ts, nullptr);
    for (int attempt = 0; rr.evicted; ++attempt) {
      // The duplicate/existence verdict may hinge on the spilled anchor
      // (e.g. its tombstone): fault it back before deciding.
      if (attempt >= 8) {
        return AbortWith(txn, Status::IOError("version fault retry limit"));
      }
      st = t->FaultChain(key, chain);
      if (!st.ok()) return AbortWith(txn, st);
      rr = chain->Read(state->id, read_ts, nullptr);
    }
    if (kind == WriteKind::kInsert && rr.found) {
      return Status::DuplicateKey();
    }
    if (kind == WriteKind::kDelete && !rr.found) {
      return Status::NotFound();
    }
  }

  bool replaced_own = false;
  Version* v = chain->InstallUncommitted(
      state->id, value, kind == WriteKind::kDelete, &replaced_own);
  if (!replaced_own) {
    state->write_set.push_back(
        TxnState::WriteRecord{table, key.ToString(), chain, v, t});
    // Inline GC: drop versions no active snapshot (nor any in-progress
    // checkpoint sweep) can reach.
    const size_t freed = chain->Prune(txns_->prune_horizon());
    if (freed > 0) {
      versions_pruned_.fetch_add(freed, std::memory_order_relaxed);
    }
  }
  if (options_.granularity == LockGranularity::kPage && !replaced_own) {
    state->page_writes.push_back(row_lk);
  }

  if (history_ != nullptr) {
    history_->Write(state->id, table, key, kind == WriteKind::kDelete);
  }
  return Status::OK();
}

Status Executor::Put(TxnCtx& txn, TableId table, Slice key, Slice value) {
  return WriteImpl(txn, table, key, value, WriteKind::kUpsert);
}

Status Executor::Insert(TxnCtx& txn, TableId table, Slice key, Slice value) {
  return WriteImpl(txn, table, key, value, WriteKind::kInsert);
}

Status Executor::Delete(TxnCtx& txn, TableId table, Slice key) {
  return WriteImpl(txn, table, key, Slice(), WriteKind::kDelete);
}

Status Executor::Scan(TxnCtx& txn, TableId table, Slice lo, Slice hi,
                      const ScanCallback& fn) {
  Status st = CheckUsable(txn);
  if (!st.ok()) return st;
  Table* t = catalog_->table(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  if (hi.compare(lo) < 0) return Status::InvalidArgument("hi < lo");
  TxnState* state = txn.state.get();

  const IsolationLevel iso = state->isolation;
  EnsureSnapshot(txn);

  std::vector<ScanEntry> entries;
  std::optional<std::string> successor;
  t->CollectRange(lo, hi, &entries, &successor);

  const bool take_locks = iso != IsolationLevel::kSnapshot;
  const bool ssi = iso == IsolationLevel::kSerializableSSI;
  const bool page_mode = options_.granularity == LockGranularity::kPage;

  // One visited entry: row (or page) lock plus the gap below it. SSI
  // scans ride the allocation-free SIREAD lane; S2PL scans take blocking
  // shared locks through reused scratch keys.
  auto lock_entry = [&](Slice entry_key) {
    if (ssi) {
      Status s = AcquireSIReadAndMark(txn, table, LockKind::kRow, entry_key);
      if (!s.ok()) return s;
      return AcquireSIReadAndMark(txn, table, LockKind::kGap, entry_key);
    }
    Status s = AcquireAndMark(txn, RowLockKeyInto(txn, table, entry_key),
                              LockMode::kShared);
    if (!s.ok()) return s;
    txn.scratch_gap_key.Assign(table, LockKind::kGap, entry_key);
    return AcquireAndMark(txn, txn.scratch_gap_key, LockMode::kShared);
  };
  auto lock_successor_gap = [&](const std::optional<std::string>& next) {
    if (ssi) {
      return next.has_value()
                 ? AcquireSIReadAndMark(txn, table, LockKind::kGap, *next)
                 : AcquireSIReadAndMark(txn, table, LockKind::kSupremum,
                                        Slice());
    }
    return AcquireAndMark(txn, GapLockKeyInto(txn, table, next),
                          LockMode::kShared);
  };

  if (take_locks) {
    if (!page_mode) {
      // Next-key locking (§2.5.2 / Fig 3.6): each visited entry gets a row
      // lock plus the gap below it; the gap below the successor protects
      // (last entry, successor), so inserts anywhere in [lo, hi] conflict.
      for (const ScanEntry& e : entries) {
        st = lock_entry(e.key);
        if (!st.ok()) return st;
      }
      st = lock_successor_gap(successor);
      if (!st.ok()) return st;
    } else {
      // Page granularity: every page overlapping [lo, hi] must be read-
      // locked, or an insert into an *empty interior page* — one no
      // current entry occupies — would slip past phantom detection: the
      // writer locks only its own page, and none of our entry-derived
      // page locks collide with it. For 8-byte keys the page image of
      // [lo, hi] is the contiguous interval [PageOf(lo), PageOf(hi)]
      // (PageOf divides the decoded key), so lock exactly that interval.
      // Bounded by kMaxScanPageInterval so an unbounded range (the whole
      // key space is ~2^61 pages) degrades to the entry+bounds cover
      // rather than locking forever; non-8-byte keys hash to pages, so
      // the range has no contiguous page image and also keeps the
      // entry+bounds cover. In both fallback cases the residual hole is
      // exactly the empty interior buckets (non-empty ones are locked
      // via their entries).
      auto lock_page = [&](uint64_t p) {
        txn.scratch_row_key.Assign(table, LockKind::kPage, EncodeU64Key(p));
        if (ssi) {
          return AcquireSIReadAndMark(txn, table, LockKind::kPage,
                                      txn.scratch_row_key.key);
        }
        return AcquireAndMark(txn, txn.scratch_row_key, LockMode::kShared);
      };
      const uint64_t lo_page = Table::PageOf(lo, options_.rows_per_page);
      const uint64_t hi_page = Table::PageOf(hi, options_.rows_per_page);
      constexpr uint64_t kMaxScanPageInterval = 4096;
      if (lo.size() == 8 && hi.size() == 8 && lo_page <= hi_page &&
          hi_page - lo_page <= kMaxScanPageInterval) {
        for (uint64_t p = lo_page; p <= hi_page; ++p) {
          st = lock_page(p);
          if (!st.ok()) return st;
        }
      } else {
        std::unordered_set<uint64_t> pages;
        pages.insert(lo_page);
        pages.insert(hi_page);
        for (const ScanEntry& e : entries) {
          pages.insert(Table::PageOf(e.key, options_.rows_per_page));
        }
        for (uint64_t p : pages) {
          st = lock_page(p);
          if (!st.ok()) return st;
        }
      }
    }

    // Close the collect/lock race: an insert that committed and released
    // its gap lock between CollectRange and our acquisitions is invisible
    // to the lock table, but its version's commit timestamp postdates our
    // snapshot, so a second collection plus the modified read detects the
    // rw-conflict. Inserts *after* our gap locks are caught by the lock
    // table (the writer's probe sees our SIREAD/S locks).
    std::vector<ScanEntry> recheck;
    std::optional<std::string> successor2;
    t->CollectRange(lo, hi, &recheck, &successor2);
    if (recheck.size() != entries.size()) {
      if (!page_mode) {
        std::unordered_set<std::string_view> known;
        for (const ScanEntry& e : entries) known.insert(e.key);
        for (const ScanEntry& e : recheck) {
          if (known.count(e.key) > 0) continue;
          st = lock_entry(e.key);
          if (!st.ok()) return st;
        }
      }
      entries = std::move(recheck);
    }
  }

  const Timestamp scan_snapshot = iso == IsolationLevel::kSerializable2PL
                                      ? txns_->clock_now()
                                      : state->read_ts.load();

  std::string value;
  for (const ScanEntry& e : entries) {
    const LockKey* page_lk = nullptr;
    if (ssi && page_mode) {
      // Reuse the scratch key for each entry's §4.2 page check.
      page_lk = &RowLockKeyInto(txn, table, e.key);
    }
    ReadResult rr;
    st = ReadChainFaulting(txn, t, e.key, page_lk, e.chain, &value, &rr);
    if (!st.ok()) return st;
    if (history_ != nullptr) {
      history_->Read(state->id, table, e.key, rr.version_cts, rr.own_write);
    }
    if (rr.found) {
      if (!fn(e.key, value)) break;
    }
  }

  if (history_ != nullptr) {
    history_->Scan(state->id, table, lo, hi, scan_snapshot);
  }
  return Status::OK();
}

Status Executor::Commit(TxnCtx& txn) {
  if (txn.finished) {
    return Status::TxnInvalid("transaction already finished");
  }
  TxnState* state = txn.state.get();
  // Capture per-key redo from the write set: enough for WAL replay to
  // reinstall each committed version (table, key, value/tombstone).
  std::vector<RedoEntry> redo;
  redo.reserve(state->write_set.size());
  for (const TxnState::WriteRecord& w : state->write_set) {
    redo.push_back(RedoEntry{w.table, w.key, w.version->value,
                             w.version->tombstone});
  }

  TxnManager::CommitCheck check;
  if (state->isolation == IsolationLevel::kSerializableSSI) {
    ConflictTracker* tracker = tracker_;
    check = [tracker](TxnState* t) { return tracker->CommitCheck(t); };
  }

  const Status st = txns_->Commit(txn.state, check, std::move(redo));
  txn.finished = true;
  if (history_ != nullptr) {
    // kIOError means committed-in-memory but not durable: the history
    // oracle reasons about the in-memory execution, so it is a commit.
    if (st.ok() || st.IsIOError()) {
      history_->Commit(state->id, state->commit_ts.load());
    } else {
      history_->Abort(state->id);
    }
  }
  return st;
}

void Executor::CommitAsync(TxnCtx& txn, TxnManager::CommitCallback done) {
  if (txn.finished) {
    done(Status::TxnInvalid("transaction already finished"));
    return;
  }
  // Everything the acknowledgment path needs outlives the TxnCtx: the
  // TxnState travels by shared_ptr, the redo by value, the recorder by
  // pointer (it is engine-lifetime and mutex-guarded).
  std::shared_ptr<TxnState> state = txn.state;
  std::vector<RedoEntry> redo;
  redo.reserve(state->write_set.size());
  for (const TxnState::WriteRecord& w : state->write_set) {
    redo.push_back(RedoEntry{w.table, w.key, w.version->value,
                             w.version->tombstone});
  }

  TxnManager::CommitCheck check;
  if (state->isolation == IsolationLevel::kSerializableSSI) {
    ConflictTracker* tracker = tracker_;
    check = [tracker](TxnState* t) { return tracker->CommitCheck(t); };
  }

  // Finished at submit: the handle's job ends here, the outcome arrives
  // via `done`. Set before the call because an inline acknowledgment
  // (read-only, non-durable, or abort) fires inside it.
  txn.finished = true;
  sgt::HistoryRecorder* history = history_;
  txns_->CommitAsync(
      state, check, std::move(redo),
      [history, state, done = std::move(done)](Status st) {
        if (history != nullptr) {
          // kIOError means committed-in-memory but not durable: the
          // history oracle reasons about the in-memory execution, so it
          // is a commit.
          if (st.ok() || st.IsIOError()) {
            history->Commit(state->id, state->commit_ts.load());
          } else {
            history->Abort(state->id);
          }
        }
        done(st);
      });
}

Status Executor::Abort(TxnCtx& txn) {
  if (txn.finished) {
    return Status::OK();
  }
  txn.state->SetAbortCause(AbortReason::kExplicit, 0);
  txns_->Abort(txn.state);
  if (history_ != nullptr) {
    history_->Abort(txn.state->id);
  }
  txn.finished = true;
  return Status::OK();
}

}  // namespace ssidb
