// The DB façade: subsystem ownership and wiring. All operation protocols
// (read/write/scan/commit for the three concurrency-control modes) live in
// the executor layer, src/txn/executor.cc.

#include "src/db/db.h"

#include <chrono>
#include <cstdio>

#include "src/db/session.h"
#include "src/io/env.h"
#include "src/recovery/manifest.h"
#include "src/recovery/wal.h"

namespace ssidb {

namespace {

/// The checkpoint sweep's reader id: matches no version creator (real ids
/// come from the clock, recovered versions use 0), so VersionChain::Read
/// never takes the own-write path.
constexpr TxnId kSweepReader = UINT64_MAX;

}  // namespace

// --------------------------------------------------------------------------
// Transaction: a thin handle forwarding to the executor.
// --------------------------------------------------------------------------

Transaction::Transaction(Executor* executor, std::shared_ptr<TxnState> state)
    : executor_(executor) {
  ctx_.state = std::move(state);
}

Transaction::~Transaction() {
  if (!ctx_.finished) {
    executor_->Abort(ctx_);
  }
}

Status Transaction::Get(TableId table, Slice key, std::string* value) {
  return executor_->Get(ctx_, table, key, value);
}

Status Transaction::GetForUpdate(TableId table, Slice key,
                                 std::string* value) {
  return executor_->GetForUpdate(ctx_, table, key, value);
}

Status Transaction::Put(TableId table, Slice key, Slice value) {
  return executor_->Put(ctx_, table, key, value);
}

Status Transaction::Insert(TableId table, Slice key, Slice value) {
  return executor_->Insert(ctx_, table, key, value);
}

Status Transaction::Delete(TableId table, Slice key) {
  return executor_->Delete(ctx_, table, key);
}

Status Transaction::Scan(TableId table, Slice lo, Slice hi,
                         const ScanCallback& fn) {
  return executor_->Scan(ctx_, table, lo, hi, fn);
}

Status Transaction::Commit() { return executor_->Commit(ctx_); }

Status Transaction::Abort() { return executor_->Abort(ctx_); }

// --------------------------------------------------------------------------
// DB
// --------------------------------------------------------------------------

DB::DB(const DBOptions& options)
    : options_(options),
      log_manager_(std::make_unique<LogManager>(options.log, options.env)),
      lock_manager_(std::make_unique<LockManager>(LockManager::Config{
          options.deadlock_policy, options.deadlock_scan_interval_ms,
          options.lock_timeout_ms, options.upgrade_siread_locks})),
      txn_manager_(std::make_unique<TxnManager>(options, lock_manager_.get(),
                                                log_manager_.get())),
      tracker_(std::make_unique<ConflictTracker>(options, txn_manager_.get())) {
  if (!options.log.wal_dir.empty() ||
      (options.buffer_pool_bytes > 0 && !options.data_dir.empty())) {
    // Every durable engine has a tier (checkpoints are runs); an in-memory
    // one only when it spills. Runs live in data_dir, defaulting to a
    // subdirectory of the WAL directory.
    const std::string dir = options.data_dir.empty()
                                ? options.log.wal_dir + "/runs"
                                : options.data_dir;
    tier_ = std::make_unique<StorageTier>(options, dir);
    catalog_.SetStorageTier(tier_.get());
  }
  if (options.record_history) {
    history_ = std::make_unique<sgt::HistoryRecorder>();
  }
  executor_ = std::make_unique<Executor>(options_, &catalog_,
                                         txn_manager_.get(),
                                         lock_manager_.get(), tracker_.get(),
                                         history_.get());
  // Degraded-mode wiring: the WAL flusher's first unrecoverable I/O
  // failure flips the DB read-only. Registered after txn_manager_ exists
  // (the callback targets it); fires inline if the flusher already failed.
  log_manager_->SetIOErrorCallback(
      [this](const Status& cause) { EnterReadOnlyMode(cause); });
  RegisterAllMetrics();
}

void DB::EnterReadOnlyMode(const Status& cause) {
  (void)cause;
  if (read_only_.exchange(true, std::memory_order_acq_rel)) return;
  // Gate up before any commit can observe the WAL failure status: the
  // LogManager fires this callback before waking matured flush waiters.
  txn_manager_->EnterReadOnly();
  trace_.Emit(obs::TraceEvent::kIOError, /*txn=*/0, /*arg16=*/1,
              /*arg32=*/0, /*payload=*/0);
}

DB::~DB() {
  StopMetricsDumper();
  StopCheckpointer();
  StopVersionSweeper();
}

void DB::RegisterAllMetrics() {
  obs::MetricsRegistry* r = &metrics_;
  // Each subsystem registers the counters and histograms it owns, and
  // hooks the trace ring where it emits events.
  txn_manager_->RegisterMetrics(r, &trace_);
  executor_->RegisterMetrics(r, &trace_);
  log_manager_->RegisterMetrics(r);
  if (tier_ != nullptr) {
    tier_->pool()->RegisterMetrics(r, &trace_);
    tier_->SetTraceRing(&trace_);
  }

  // The rest read through their owners' relaxed accessors: the recording
  // site stays a single fetch-add (or narrow mutex), and the registry only
  // attaches names at collection time.
  ConflictTracker* tracker = tracker_.get();
  r->RegisterCounter("ssi.unsafe_aborts",
                     [tracker] { return tracker->unsafe_aborts(); });
  LockManager* locks = lock_manager_.get();
  r->RegisterCounter("lock.waits", [locks] { return locks->waits(); });
  r->RegisterCounter("lock.deadlocks",
                     [locks] { return locks->deadlocks_detected(); });
  r->RegisterGauge("lock.grants", [locks] {
    return static_cast<uint64_t>(locks->GrantCount());
  });
  r->RegisterGauge("session.open", [this] {
    return static_cast<uint64_t>(
        sessions_open_.load(std::memory_order_relaxed));
  });
  r->RegisterCounter("ckpt.taken", [this] { return checkpoints_taken(); });
  r->RegisterCounter("ckpt.bytes_written",
                     [this] { return checkpoint_bytes_written(); });
  r->RegisterCounter("wal.segments_deleted", [this] {
    return wal_segments_deleted_.load(std::memory_order_relaxed);
  });
  // Inline write-path prunes plus the background sweep plus manual
  // PruneVersions calls.
  Executor* exec = executor_.get();
  r->RegisterCounter("gc.versions_pruned", [this, exec] {
    return versions_pruned_.load(std::memory_order_relaxed) +
           exec->versions_pruned();
  });
  // Fault model / degraded mode (ARCHITECTURE.md "Fault model &
  // degradation"): the read-only gate plus per-subsystem I/O failure
  // counters, one per failure domain so forensics can tell which artifact
  // the disk hurt (io.errors.wal and io.errors.pool register with their
  // owners).
  r->RegisterGauge("db.read_only",
                   [this] { return read_only() ? uint64_t{1} : uint64_t{0}; });
  r->RegisterCounter("io.errors.checkpoint", [this] {
    return checkpoint_io_errors_.load(std::memory_order_relaxed);
  });
  if (io::Env* env = options_.env; env != nullptr) {
    r->RegisterCounter("io.injected_faults",
                       [env] { return env->injected_faults(); });
  }
  if (tier_ != nullptr) {
    StorageTier* tier = tier_.get();
    r->RegisterCounter("tier.spilled_chains",
                       [tier] { return tier->spilled_chains(); });
    r->RegisterCounter("tier.faulted_chains",
                       [tier] { return tier->faulted_chains(); });
    r->RegisterCounter("tier.compactions",
                       [tier] { return tier->compactions(); });
    r->RegisterCounter("tier.lookup_probes",
                       [tier] { return tier->lookup_probes(); });
    r->RegisterCounter("io.errors.tier",
                       [tier] { return tier->io_errors(); });
  }
}

std::string DB::DumpMetrics(obs::MetricsFormat format) {
  return obs::Render(metrics_.Collect(), format);
}

Status DB::DumpTrace(const std::string& path) const {
  return trace_.DumpTo(path);
}

void DB::StartMetricsDumper() {
  if (options_.metrics_dump_interval_ms == 0 ||
      options_.metrics_dump_path.empty()) {
    return;
  }
  dumper_ = std::thread([this] {
    const auto interval =
        std::chrono::milliseconds(options_.metrics_dump_interval_ms);
    std::unique_lock<std::mutex> guard(dumper_mu_);
    while (!dumper_stop_) {
      if (dumper_cv_.wait_for(guard, interval,
                              [this] { return dumper_stop_; })) {
        return;
      }
      guard.unlock();
      // Append one JSON line per tick — a flight-recorder time series.
      // Best effort: an unwritable path just skips the tick.
      const std::string line = DumpMetrics(obs::MetricsFormat::kJson);
      if (FILE* f = std::fopen(options_.metrics_dump_path.c_str(), "a")) {
        std::fwrite(line.data(), 1, line.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      }
      guard.lock();
    }
  });
}

void DB::StopMetricsDumper() {
  {
    std::lock_guard<std::mutex> guard(dumper_mu_);
    dumper_stop_ = true;
  }
  dumper_cv_.notify_all();
  if (dumper_.joinable()) dumper_.join();
}

Status DB::Open(const DBOptions& options, std::unique_ptr<DB>* db) {
  if (options.rows_per_page == 0) {
    return Status::InvalidArgument("rows_per_page must be positive");
  }
  db->reset(new DB(options));
  if ((*db)->tier_ != nullptr) {
    // Without a WAL the runs cannot be reconciled with any recovered
    // state, so a fresh in-memory engine wipes leftovers from a previous
    // process instead of resurrecting them.
    Status st = (*db)->tier_->Init(/*wipe=*/options.log.wal_dir.empty());
    if (!st.ok()) {
      db->reset();
      return st;
    }
  }
  if (!options.log.wal_dir.empty()) {
    // Crash recovery runs before the first transaction — and before the
    // engine's own WAL writer creates its first segment, so the newest
    // on-disk segment is exactly the pre-crash tail.
    Status st = (*db)->RecoverOnOpen();
    if (!st.ok()) {
      db->reset();
      return st;
    }
    (*db)->StartCheckpointer();
  }
  (*db)->StartVersionSweeper();
  (*db)->StartMetricsDumper();
  return Status::OK();
}

Status DB::RecoverOnOpen() {
  Status st = recovery::Recover(options_.log.wal_dir, &catalog_,
                                &recovery_stats_, options_.env);
  if (!st.ok()) return st;
  // New transactions must draw ids/snapshots above every recovered commit.
  txn_manager_->AdvanceClockTo(recovery_stats_.max_commit_ts);
  if (tier_ != nullptr) {
    // Open the run files and re-mark their chains evicted: checkpointed
    // and spilled state stays on disk across restarts instead of being
    // replayed into RAM. A run may hold commits newer than the WAL's
    // (a spill of a commit whose record was lost with an unflushed tail);
    // the clock still must clear them.
    Timestamp max_run_cts = 0;
    st = tier_->RecoverRuns(&catalog_, &max_run_cts);
    if (!st.ok()) return st;
    txn_manager_->AdvanceClockTo(max_run_cts);
  }
  // Seed the WAL writer's per-segment metadata from recovery's scan, so
  // checkpoint GC can judge pre-crash segments without re-reading them.
  log_manager_->SeedWalSegmentMeta(recovery_stats_.wal_segments);
  // The next checkpoint sweeps only what committed past the recovered
  // manifest. No lock needed — no checkpointer runs yet.
  last_checkpoint_watermark_ = recovery_stats_.checkpoint_ts;
  return Status::OK();
}

void DB::StartCheckpointer() {
  if (options_.log.checkpoint_interval_ms == 0) return;
  checkpointer_ = std::thread([this] {
    const auto interval =
        std::chrono::milliseconds(options_.log.checkpoint_interval_ms);
    std::unique_lock<std::mutex> guard(checkpointer_mu_);
    while (!checkpointer_stop_) {
      if (checkpointer_cv_.wait_for(guard, interval,
                                    [this] { return checkpointer_stop_; })) {
        return;
      }
      guard.unlock();
      Checkpoint();  // Best effort; failures retried next interval.
      guard.lock();
    }
  });
}

void DB::StopCheckpointer() {
  {
    std::lock_guard<std::mutex> guard(checkpointer_mu_);
    checkpointer_stop_ = true;
  }
  checkpointer_cv_.notify_all();
  if (checkpointer_.joinable()) checkpointer_.join();
}

void DB::StartVersionSweeper() {
  if (options_.version_gc_interval_ms == 0) return;
  sweeper_ = std::thread([this] {
    const auto interval =
        std::chrono::milliseconds(options_.version_gc_interval_ms);
    std::unique_lock<std::mutex> guard(sweeper_mu_);
    while (!sweeper_stop_) {
      if (sweeper_cv_.wait_for(guard, interval,
                               [this] { return sweeper_stop_; })) {
        return;
      }
      guard.unlock();
      SweepVersions();
      guard.lock();
    }
  });
}

void DB::StopVersionSweeper() {
  {
    std::lock_guard<std::mutex> guard(sweeper_mu_);
    sweeper_stop_ = true;
  }
  sweeper_cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
}

void DB::SweepVersions() {
  // Inline pruning only fires when the same key is written again, so a
  // chain that stops being written keeps every version that piled up
  // behind a since-finished snapshot. This sweep is the backstop: one
  // shard latch at a time, per chain O(dropped). The horizon is capped by
  // any in-progress checkpoint sweep (prune_horizon), so the sweep can
  // never delete a version a concurrent checkpoint still has to write.
  const Timestamp horizon = txn_manager_->prune_horizon();
  const size_t tables = catalog_.table_count();
  size_t freed = 0;
  for (TableId id = 0; id < tables; ++id) {
    Table* t = catalog_.table(id);
    if (t != nullptr) freed += t->PruneShards(horizon);
  }
  if (freed > 0) {
    versions_pruned_.fetch_add(freed, std::memory_order_relaxed);
  }
  if (spilling() && !read_only()) {
    // Spill the cold tail the prune left behind: chains whose anchor is at
    // or below the horizon and that stayed untouched for two sweeps move
    // to a run file; the merge daemon then keeps each table's run count
    // bounded. Best effort — a failed run write just retries next sweep.
    // Skipped entirely in degraded mode: spills and compactions write new
    // durable artifacts, and the chains they would evict are safer
    // resident (pruning above still runs — it only frees memory).
    for (TableId id = 0; id < tables; ++id) {
      Table* t = catalog_.table(id);
      if (t == nullptr) continue;
      const StorageTier::ProducerLock producers = tier_->LockProducers();
      t->SpillShards(producers, horizon);
      tier_->MaybeCompact(producers, id);
    }
  }
}

Status DB::Checkpoint() {
  if (options_.log.wal_dir.empty()) {
    return Status::InvalidArgument("checkpoint requires LogOptions::wal_dir");
  }
  if (read_only()) {
    // Degraded mode: the WAL can no longer extend the durable history, so
    // a new cut would cover commits whose log records may be lost.
    return Status::IOError("database is read-only: WAL I/O failure");
  }
  // One run producer at a time (storage_tier.h "Producers"): this also
  // serializes a manual call with the background tick.
  const StorageTier::ProducerLock producers = tier_->LockProducers();
  // Every commit at or below the stable watermark has fully stamped its
  // versions (txn_manager.h), so the sweep observes a consistent cut.
  // BeginCheckpointSweep also floors version pruning at the watermark for
  // the duration of the sweep, so no pruner can delete a key's newest
  // version <= watermark out from under it.
  const Timestamp watermark = txn_manager_->BeginCheckpointSweep();
  const Timestamp since = last_checkpoint_watermark_;
  if (watermark == since) {
    txn_manager_->EndCheckpointSweep();
    return Status::OK();  // Nothing committed since the previous cut.
  }
  // Write-ahead rule: every commit <= watermark appended its WAL record
  // before the watermark could cover it, so once the log is durable up to
  // here no run of this cut can hold a commit (or a table) that a crash
  // would take out of the WAL — even a run whose manifest never lands.
  Status st = log_manager_->WaitDurable(log_manager_->appended_lsn());
  // The run generation: per table, each key's newest version <= watermark
  // that committed after the previous cut, tombstones included. Shards
  // whose commit hint is at or below `since` are skipped unlatched, so
  // the sweep is O(changed shards). A chain with nothing resident visible
  // at the watermark is evicted, and its run is already durable.
  recovery::Manifest manifest;
  manifest.watermark = watermark;
  uint64_t bytes = 0;
  std::vector<TableId> written;
  const size_t tables = catalog_.table_count();
  for (TableId id = 0; st.ok() && id < tables; ++id) {
    Table* table = catalog_.table(id);
    manifest.tables.push_back(table->name());
    std::vector<RunEntry> cut;
    std::string value;
    table->ForEachChain(since, [&](const std::string& key,
                                   VersionChain* chain) {
      const ReadResult rr = chain->Read(kSweepReader, watermark, &value);
      if (rr.version_cts <= since) return;  // Older cut, or none visible.
      cut.push_back(RunEntry{key, rr.found ? value : std::string(),
                             rr.version_cts, !rr.found});
    });
    if (cut.empty()) continue;
    uint64_t run_bytes = 0;
    st = tier_->WriteRun(producers, id, cut, &run_bytes);
    bytes += run_bytes;
    written.push_back(id);
  }
  txn_manager_->EndCheckpointSweep();
  uint64_t manifest_bytes = 0;
  if (st.ok()) {
    st = recovery::WriteManifest(options_.log.wal_dir, manifest,
                                 options_.log.wal_fsync, options_.env,
                                 &manifest_bytes);
  }
  if (!st.ok()) {
    // The failed write removed its .tmp, and the previous manifest still
    // names a complete cut (runs this attempt published hold committed
    // versions and are harmless). The next call retries from `since`.
    checkpoint_io_errors_.fetch_add(1, std::memory_order_relaxed);
    trace_.Emit(obs::TraceEvent::kIOError, /*txn=*/0, /*arg16=*/2,
                /*arg32=*/0, /*payload=*/watermark);
    return st;
  }
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_bytes_written_.fetch_add(bytes + manifest_bytes,
                                      std::memory_order_relaxed);
  trace_.Emit(obs::TraceEvent::kCheckpoint, /*txn=*/0, /*arg16=*/0,
              /*arg32=*/static_cast<uint32_t>(tables), /*payload=*/watermark);
  last_checkpoint_watermark_ = watermark;
  // Compaction keeps each table's run count bounded even when no sweeper
  // runs. Best effort.
  for (const TableId id : written) tier_->MaybeCompact(producers, id);

  // WAL GC, decided from per-segment metadata counters — zero segment
  // re-reads — and only once no older manifest remains for recovery to
  // fall back to. A segment goes when every commit it holds is at or below
  // the watermark AND any table-create it holds binds an id the manifest
  // names (ids are dense: id < table count — the create-watermark rule).
  // The highest-sequence segment always stays (it may be the flusher's
  // live file), as does any segment the registry does not know (never the
  // case in practice: this session's segments are registered at append
  // time, pre-crash ones by recovery's scan). Best effort: a kept segment
  // just replays idempotently.
  std::vector<std::string> segments;
  if (!recovery::DropManifestsBefore(options_.log.wal_dir, watermark,
                                     options_.env) ||
      !recovery::ListWalSegments(options_.log.wal_dir, &segments).ok()) {
    return Status::OK();
  }
  const std::map<uint64_t, recovery::WalSegmentMeta> meta =
      log_manager_->WalSegmentMetadata();
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    uint64_t seq = 0;
    if (!recovery::ParseWalSegmentSeq(segments[i], &seq)) continue;
    auto it = meta.find(seq);
    if (it == meta.end()) continue;  // Unknown provenance: keep.
    const recovery::WalSegmentMeta& m = it->second;
    if (m.max_commit_ts > watermark) continue;
    if (m.has_table_create && m.max_table_id_created >= tables) continue;
    if (io::ResolveEnv(options_.env)->RemoveFile(segments[i]).ok()) {
      wal_segments_deleted_.fetch_add(1, std::memory_order_relaxed);
      log_manager_->ForgetWalSegment(seq);
    }
  }
  return Status::OK();
}

Status DB::CreateTable(const std::string& name, TableId* id) {
  TableId created = 0;
  Lsn lsn = 0;
  const bool durable = log_manager_->durable();
  // The (id, name) binding is logged through the catalog's pre-publish
  // hook: still inside the creation critical section, so concurrent
  // creates append their records in id order, and no transaction can
  // commit against the table before its create record is in the log —
  // replay never meets a commit whose table-create is missing or
  // misordered.
  Status st = catalog_.CreateTable(name, &created, [&](TableId tid) {
    if (!durable) return;
    LogRecord record;
    record.type = LogRecordType::kTableCreate;
    record.redo.push_back(RedoEntry{tid, name, std::string(), false});
    lsn = log_manager_->Append(std::move(record));
  });
  if (!st.ok()) return st;
  if (id != nullptr) *id = created;
  if (durable && options_.log.flush_on_commit) {
    // The durability wait happens outside the catalog lock.
    return log_manager_->WaitFlushed(lsn);
  }
  return Status::OK();
}

Status DB::FindTable(const std::string& name, TableId* id) const {
  return catalog_.FindTable(name, id);
}

std::unique_ptr<Transaction> DB::Begin(const TxnOptions& options) {
  return std::unique_ptr<Transaction>(new Transaction(
      executor_.get(), txn_manager_->Begin(options.isolation)));
}

std::unique_ptr<Session> DB::CreateSession() {
  sessions_open_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Session>(new Session(this));
}

size_t DB::SpillChains(TableId id) {
  // Read-only gate: a spill evicts chains to a new run file, and in
  // degraded mode that run could durably capture in-memory commits whose
  // WAL records never reached the disk — recovery would then resurrect
  // unacknowledged writes. No new durable artifacts past the failure.
  if (!spilling() || read_only()) return 0;
  Table* t = catalog_.table(id);
  if (t == nullptr) return 0;
  return t->SpillShards(tier_->LockProducers(),
                        txn_manager_->prune_horizon());
}

size_t DB::PruneVersions(TableId id) {
  Table* t = catalog_.table(id);
  if (t == nullptr) return 0;
  const size_t freed = t->PruneShards(txn_manager_->prune_horizon());
  if (freed > 0) {
    versions_pruned_.fetch_add(freed, std::memory_order_relaxed);
  }
  return freed;
}

}  // namespace ssidb
