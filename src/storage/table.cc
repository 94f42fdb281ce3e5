#include "src/storage/table.h"

#include <algorithm>
#include <cassert>

#include "src/common/encoding.h"
#include "src/storage/storage_tier.h"

namespace ssidb {

Table::Table(TableId id, std::string name, size_t split_threshold)
    : id_(id),
      name_(std::move(name)),
      split_threshold_(split_threshold < 2 ? 2 : split_threshold) {
  shards_.push_back(std::make_unique<Shard>(""));
}

Table::~Table() = default;

size_t Table::RouteLocked(std::string_view key) const {
  // Last shard with lower <= key. shards_[0].lower == "" so the search
  // always succeeds.
  size_t lo = 0;
  size_t hi = shards_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (shards_[mid]->lower <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

VersionChain* Table::Find(Slice key) const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  const Shard& shard = *shards_[RouteLocked(key.view())];
  shard.reads.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> guard(shard.mu);
  auto it = shard.index.find(key.view());
  return it == shard.index.end() ? nullptr : it->second.get();
}

VersionChain* Table::GetOrCreate(Slice key) {
  size_t shard_size = 0;
  VersionChain* chain = nullptr;
  {
    std::shared_lock<std::shared_mutex> route(routing_mu_);
    Shard& shard = *shards_[RouteLocked(key.view())];
    {
      shard.reads.fetch_add(1, std::memory_order_relaxed);
      std::shared_lock<std::shared_mutex> guard(shard.mu);
      auto it = shard.index.find(key.view());
      if (it != shard.index.end()) return it->second.get();
    }
    shard.writes.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::shared_mutex> guard(shard.mu);
    auto [it, inserted] = shard.index.try_emplace(
        key.ToString(), std::make_unique<VersionChain>());
    (void)inserted;
    chain = it->second.get();
    shard_size = shard.index.size();
  }
  if (shard_size > split_threshold_) {
    MaybeSplit(key.ToString());
  }
  return chain;
}

void Table::MaybeSplit(const std::string& hint_key) {
  // Exclusive routing latch: no operation holds any shard latch without
  // the shared routing latch, so we have exclusive access to every shard.
  std::unique_lock<std::shared_mutex> route(routing_mu_);
  const size_t idx = RouteLocked(hint_key);
  Shard& shard = *shards_[idx];
  if (shard.index.size() <= split_threshold_) return;  // Raced; resolved.

  auto mid = shard.index.begin();
  std::advance(mid, shard.index.size() / 2);
  auto right = std::make_unique<Shard>(mid->first);
  // Both halves inherit the parent's commit hint: an overstated hint only
  // costs a visit, an understated one would hide commits from checkpoint sweeps.
  right->max_commit_ts.store(
      shard.max_commit_ts.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  // Move [median, end) into the new right shard; node handles keep the
  // heap-allocated chains (and their addresses) intact.
  while (mid != shard.index.end()) {
    auto next = std::next(mid);
    right->index.insert(shard.index.extract(mid));
    mid = next;
  }
  shards_.insert(shards_.begin() + static_cast<ptrdiff_t>(idx) + 1,
                 std::move(right));
}

std::optional<std::string> Table::NextKey(Slice key) const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  for (size_t idx = RouteLocked(key.view()); idx < shards_.size(); ++idx) {
    const Shard& shard = *shards_[idx];
    shard.reads.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> guard(shard.mu);
    auto it = shard.index.upper_bound(key.view());
    if (it != shard.index.end()) return it->first;
  }
  return std::nullopt;
}

std::optional<std::string> Table::SeekCeil(Slice lo) const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  for (size_t idx = RouteLocked(lo.view()); idx < shards_.size(); ++idx) {
    const Shard& shard = *shards_[idx];
    shard.reads.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> guard(shard.mu);
    auto it = shard.index.lower_bound(lo.view());
    if (it != shard.index.end()) return it->first;
  }
  return std::nullopt;
}

void Table::CollectRange(Slice lo, Slice hi, std::vector<ScanEntry>* entries,
                         std::optional<std::string>* successor) const {
  entries->clear();
  *successor = std::nullopt;
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  // Left-to-right over the contiguous shard ranges; the shared routing
  // latch pins the partition, so the concatenation of per-shard segments
  // is exactly the single-map iteration of the unsharded index.
  const size_t start = RouteLocked(lo.view());
  for (size_t idx = start; idx < shards_.size(); ++idx) {
    const Shard& shard = *shards_[idx];
    shard.reads.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> guard(shard.mu);
    auto it = idx == start ? shard.index.lower_bound(lo.view())
                           : shard.index.begin();
    for (; it != shard.index.end(); ++it) {
      if (Slice(it->first).compare(hi) > 0) {
        *successor = it->first;
        return;
      }
      entries->push_back(ScanEntry{it->first, it->second.get()});
    }
  }
}

void Table::ForEachChain(
    const std::function<void(const std::string&, VersionChain*)>& fn) const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    shard.reads.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> guard(shard.mu);
    for (const auto& [key, chain] : shard.index) {
      fn(key, chain.get());
    }
  }
}

void Table::ForEachChain(
    Timestamp since,
    const std::function<void(const std::string&, VersionChain*)>& fn) const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    if (shard.max_commit_ts.load(std::memory_order_relaxed) <= since) {
      continue;  // Cold shard: skipped without touching its latch.
    }
    shard.reads.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> guard(shard.mu);
    for (const auto& [key, chain] : shard.index) {
      fn(key, chain.get());
    }
  }
}

void Table::NoteCommit(Slice key, Timestamp commit_ts) {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  Shard& shard = *shards_[RouteLocked(key.view())];
  Timestamp cur = shard.max_commit_ts.load(std::memory_order_relaxed);
  while (cur < commit_ts &&
         !shard.max_commit_ts.compare_exchange_weak(
             cur, commit_ts, std::memory_order_relaxed)) {
  }
}

void Table::RecoverVersion(Slice key, Slice value, bool tombstone,
                           Timestamp commit_ts) {
  GetOrCreate(key)->InstallRecovered(commit_ts, value, tombstone);
  NoteCommit(key, commit_ts);
}

Status Table::FaultChain(Slice key, VersionChain* chain) {
  if (tier_ == nullptr) {
    return Status::Corruption("evicted chain in table '" + name_ +
                              "' but no storage tier attached");
  }
  RunEntry entry;
  bool found = false;
  Status st = tier_->Lookup(id_, key, &entry, &found);
  if (!st.ok()) return st;
  if (!found) {
    // Violates the durability contract: evicted => durable in a live run.
    return Status::Corruption("evicted key missing from runs: " +
                              key.ToString());
  }
  chain->FaultInstall(entry.commit_ts, entry.value, entry.tombstone);
  tier_->AddFaulted(1);
  return Status::OK();
}

size_t Table::SpillShards(const std::unique_lock<std::mutex>& producers,
                          Timestamp horizon) {
  if (tier_ == nullptr || horizon == 0) return 0;
  // Phase A: probe under the shard latches (lock order shard -> chain, the
  // same as every reader). ForEachChain walks shards in range order, so
  // `entries` comes out sorted by key — ready for RunFile::Create.
  std::vector<RunEntry> entries;
  std::vector<VersionChain*> chains;
  size_t evicted = 0;
  ForEachChain([&](const std::string& key, VersionChain* chain) {
    RunEntry e;
    switch (chain->SpillProbe(horizon, &e.value, &e.commit_ts, &e.tombstone)) {
      case VersionChain::SpillAction::kSkip:
        break;
      case VersionChain::SpillAction::kDropNow:
        ++evicted;  // Anchor already durable; freed inline.
        break;
      case VersionChain::SpillAction::kWrite:
        e.key = key;
        entries.push_back(std::move(e));
        chains.push_back(chain);
        break;
    }
  });
  // Phase B: no latches held. Persist the run, then re-verify and evict
  // each chain; a chain touched since its probe stays resident and retries
  // as kDropNow on a later sweep (its anchor is durable now).
  if (!entries.empty()) {
    if (tier_->WriteRun(producers, id_, entries).ok()) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (chains[i]->CommitSpill(entries[i].commit_ts)) ++evicted;
      }
    }
  }
  if (evicted != 0) tier_->AddSpilled(evicted);
  return evicted;
}

void Table::RecoverEvicted(Slice key, Timestamp commit_ts) {
  GetOrCreate(key)->SetEvictedRecovered(commit_ts);
  NoteCommit(key, commit_ts);
}

size_t Table::PruneShards(Timestamp min_read_ts) {
  size_t freed = 0;
  ForEachChain([&](const std::string&, VersionChain* chain) {
    freed += chain->Prune(min_read_ts);
  });
  return freed;
}

size_t Table::EntryCount() const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  size_t n = 0;
  for (const auto& shard_ptr : shards_) {
    std::shared_lock<std::shared_mutex> guard(shard_ptr->mu);
    n += shard_ptr->index.size();
  }
  return n;
}

size_t Table::ShardCount() const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  return shards_.size();
}

std::vector<TableShardStats> Table::ShardStats() const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  std::vector<TableShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    TableShardStats s;
    s.lower_bound = shard_ptr->lower;
    {
      std::shared_lock<std::shared_mutex> guard(shard_ptr->mu);
      s.entries = shard_ptr->index.size();
    }
    s.reads = shard_ptr->reads.load(std::memory_order_relaxed);
    s.writes = shard_ptr->writes.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

uint64_t Table::PageOf(Slice key, uint32_t rows_per_page) {
  if (rows_per_page == 0) rows_per_page = 1;
  if (key.size() == 8) {
    return DecodeU64Key(key) / rows_per_page;
  }
  // FNV-1a, truncated to a coarse page id space.
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < key.size(); ++i) {
    h ^= static_cast<unsigned char>(key[i]);
    h *= 1099511628211ULL;
  }
  return h % (1u << 20);
}

}  // namespace ssidb
