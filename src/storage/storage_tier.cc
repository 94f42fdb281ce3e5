#include "src/storage/storage_tier.h"

#include <algorithm>
#include <filesystem>

#include "src/obs/trace_ring.h"
#include "src/recovery/fs_util.h"
#include "src/storage/catalog.h"

namespace ssidb {

namespace fs = std::filesystem;

StorageTier::StorageTier(const DBOptions& options, std::string dir)
    : options_(options),
      dir_(std::move(dir)),
      env_(io::ResolveEnv(options.env)),
      pool_(options.buffer_pool_bytes, options.run_page_bytes, options.env) {}

StorageTier::~StorageTier() {
  // Run lists drop first (each RunFile purges its pool pages), then the
  // pool — member order guarantees it; nothing to do here.
}

Status StorageTier::Init(bool wipe) {
  std::error_code ec;
  Status st = env_->CreateDirs(dir_);
  if (!st.ok()) return st;
  if (wipe) {
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      if (entry.path().extension() == ".run" ||
          entry.path().extension() == ".tmp") {
        fs::remove(entry.path(), ec);
      }
    }
  }
  return Status::OK();
}

std::string StorageTier::RunPath(uint32_t table_id, uint64_t seq) const {
  char name[64];
  snprintf(name, sizeof(name), "run-%06u-%020llu.run", table_id,
           static_cast<unsigned long long>(seq));
  return dir_ + "/" + name;
}

Status StorageTier::NoteIOError(const Status& st, uint32_t table_id) {
  io_errors_.fetch_add(1, std::memory_order_relaxed);
  if (obs::TraceRing* trace = trace_.load(std::memory_order_acquire)) {
    trace->Emit(obs::TraceEvent::kIOError, 0, /*arg16=*/4,
                /*arg32=*/table_id, /*payload=*/0);
  }
  return st;
}

Status StorageTier::WriteRun(uint32_t table_id,
                             const std::vector<RunEntry>& entries) {
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t file_id =
      next_file_id_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<RunFile> run;
  Status st = RunFile::Create(RunPath(table_id, seq), table_id, seq, file_id,
                              options_.run_page_bytes, entries, &pool_,
                              /*fsync=*/true, &run, env_);
  if (!st.ok()) return NoteIOError(st, table_id);
  std::unique_lock<std::shared_mutex> guard(runs_mu_);
  auto& list = runs_[table_id];
  list.insert(list.begin(), std::move(run));  // Newest first.
  return Status::OK();
}

Status StorageTier::Lookup(uint32_t table_id, Slice key, RunEntry* out,
                           bool* found) {
  *found = false;
  // Copy the shared_ptrs out before any I/O so a concurrent compaction's
  // replace cannot free a run under us (deleted files stay readable
  // through their open descriptors).
  std::vector<std::shared_ptr<RunFile>> snapshot;
  {
    std::shared_lock<std::shared_mutex> guard(runs_mu_);
    auto it = runs_.find(table_id);
    if (it == runs_.end()) return Status::OK();
    snapshot = it->second;
  }
  for (const std::shared_ptr<RunFile>& run : snapshot) {
    bool pinned = false;
    Status st = run->Lookup(&pool_, key, out, found, &pinned);
    if (pinned) lookup_probes_.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) return st;
    if (*found) return Status::OK();  // Newest-first: first hit wins.
  }
  return Status::OK();
}

Status StorageTier::MaybeCompact(uint32_t table_id) {
  const uint32_t min_runs = std::max<uint32_t>(
      2, options_.run_compaction_min_runs);
  std::vector<std::shared_ptr<RunFile>> inputs;
  {
    std::shared_lock<std::shared_mutex> guard(runs_mu_);
    auto it = runs_.find(table_id);
    if (it == runs_.end() || it->second.size() < min_runs) {
      return Status::OK();
    }
    inputs = it->second;
  }
  // Stream a k-way merge of the inputs straight into the replacement run:
  // one cursor per input reads its run sequentially with direct preads
  // (bypassing the pool so a full-table pass cannot evict hot pages), the
  // newest commit_ts per key wins, and the writer holds one output page.
  // Tombstones are kept — an evicted chain whose anchor is a tombstone
  // still faults it back as the §3.5 delete marker. A cursor read error
  // fails the write before the rename: the inputs stay published.
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t file_id =
      next_file_id_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<RunFile> replacement;
  Status st = RunFile::Create(RunPath(table_id, seq), table_id, seq, file_id,
                              options_.run_page_bytes, MergeRuns(inputs),
                              &pool_, /*fsync=*/true, &replacement, env_);
  if (!st.ok()) return NoteIOError(st, table_id);

  // Publish the replacement and unlink the inputs. Only after the rename +
  // dir fsync above: a crash in between leaves both generations on disk,
  // which recovery resolves by commit_ts (the merged run carries the
  // newest per key). The sweeper thread is the only run producer per
  // table, so `inputs` is still exactly the list's tail.
  std::vector<std::shared_ptr<RunFile>> dead;
  {
    std::unique_lock<std::shared_mutex> guard(runs_mu_);
    auto& list = runs_[table_id];
    dead.assign(list.begin() + static_cast<ptrdiff_t>(list.size()) -
                    static_cast<ptrdiff_t>(inputs.size()),
                list.end());
    list.resize(list.size() - inputs.size());
    list.push_back(std::move(replacement));
    // Keep newest-first: the replacement's seq exceeds every survivor's
    // (runs that appeared since the snapshot sit at the front with lower
    // seqs than the replacement only if written before it — sort settles
    // it either way).
    std::sort(list.begin(), list.end(),
              [](const auto& a, const auto& b) { return a->seq() > b->seq(); });
  }
  for (const std::shared_ptr<RunFile>& run : dead) {
    env_->RemoveFile(run->path());  // In-flight faulters read the open fd.
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status StorageTier::RecoverRuns(Catalog* catalog, Timestamp* max_commit_ts) {
  *max_commit_ts = 0;
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".run") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  Timestamp max_cts = 0;
  std::unique_lock<std::shared_mutex> guard(runs_mu_);
  for (const std::string& path : paths) {
    const uint64_t file_id =
        next_file_id_.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<RunFile> run;
    Status st = RunFile::Open(path, file_id, &pool_, &run, env_);
    if (!st.ok()) return st;
    Table* table = catalog->table(run->table_id());
    if (table == nullptr) {
      // A run for a table the checkpoint/WAL never saw cannot happen: the
      // table-create record is durable before any commit (hence any
      // spill) against the table. Treat it as corruption.
      return Status::Corruption("run for unknown table: " + path);
    }
    st = run->ForEachEntry([&](const RunEntryView& e) {
      table->RecoverEvicted(e.key, e.commit_ts);
      max_cts = std::max(max_cts, e.commit_ts);
    });
    if (!st.ok()) return st;
    if (run->seq() >= next_seq_.load(std::memory_order_relaxed)) {
      next_seq_.store(run->seq() + 1, std::memory_order_relaxed);
    }
    runs_[run->table_id()].push_back(std::move(run));
  }
  for (auto& [tid, list] : runs_) {
    std::sort(list.begin(), list.end(),
              [](const auto& a, const auto& b) { return a->seq() > b->seq(); });
  }
  *max_commit_ts = max_cts;
  return Status::OK();
}

size_t StorageTier::run_count(uint32_t table_id) const {
  std::shared_lock<std::shared_mutex> guard(runs_mu_);
  auto it = runs_.find(table_id);
  return it == runs_.end() ? 0 : it->second.size();
}

}  // namespace ssidb
