#include "workloads.h"

#include <charconv>
#include <cstdio>
#include <cstring>

namespace perfbench {

using ssidb::DB;
using ssidb::DBOptions;
using ssidb::Slice;
using ssidb::Status;
using ssidb::TableId;

namespace {

constexpr const char* kLo = "00000000";
constexpr const char* kHi = "99999999";

int64_t ParseInt(Slice s) {
  int64_t v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

std::string IntText(int64_t v) { return std::to_string(v); }

/// Load rows in transactions of `batch` rows each.
template <class RowFn>
Status LoadRows(DB* db, TableId table, uint64_t rows, RowFn&& value_of) {
  constexpr uint64_t kBatch = 500;
  for (uint64_t lo = 0; lo < rows; lo += kBatch) {
    auto txn = db->Begin();
    for (uint64_t id = lo; id < std::min(rows, lo + kBatch); ++id) {
      Status s = txn->Put(table, KeyOf(id), value_of(id));
      if (!s.ok()) return s;
    }
    Status s = txn->Commit();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

/// Read every row of `tables` in one SSI transaction, calling fn(table
/// index, key, value); returns rows seen per table.
template <class Fn>
Status ScanAll(DB* db, const std::vector<TableId>& tables,
               std::vector<uint64_t>* counts, Fn&& fn) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto txn = db->Begin();
    counts->assign(tables.size(), 0);
    Status s;
    for (size_t i = 0; i < tables.size() && s.ok(); ++i) {
      s = txn->Scan(tables[i], kLo, kHi, [&](Slice k, Slice v) {
        ++(*counts)[i];
        fn(i, k, v);
        return true;
      });
    }
    if (s.ok()) s = txn->Commit();
    if (!s.IsAbort()) return s;
  }
  return Status::TimedOut("check scan kept aborting");
}

// ---------------------------------------------------------------------------
// smallbank-pipelined
// ---------------------------------------------------------------------------

enum SmallbankProgram : uint8_t {
  kBalance,
  kDepositChecking,
  kTransactSaving,
  kAmalgamate,
  kWriteCheck,
  kSmallbankPrograms,
};

class SmallbankPipelined final : public Workload {
 public:
  SmallbankPipelined(uint64_t seed, Scale scale)
      : seed_(seed),
        customers_(scale == Scale::kFull   ? 2000
                   : scale == Scale::kTiny ? 100
                                           : 6),
        zipf_(customers_, 0.8, StreamSeed(seed, 1u << 20)) {}

  const char* name() const override { return "smallbank-pipelined"; }
  int clients() const override { return 2; }
  int pipeline_depth() const override { return 8; }
  // Every commit waits for the group-commit flusher, but the log stays in
  // memory: with a WAL file the figures followed the shared virtual disk
  // (its fsync latency, and its write-back of earlier runs' log). The
  // durable image (recover_s) and the history run write a WAL. Eight in
  // flight: at 32 some runs fell into a slow, abort-heavy mode.
  DBOptions Options(const std::string&) const override {
    DBOptions o;
    o.log.flush_on_commit = true;
    o.log.flush_latency_us = 0;
    return o;
  }

  /// Initial balance of a customer's account (0 saving, 1 checking).
  int64_t InitialBalance(uint64_t id, int account) const {
    Rng r(StreamSeed(seed_, (1u << 21) + id * 2 + account));
    return 10000 + static_cast<int64_t>(r.Uniform(10000));
  }

  Status Load(DB* db) override {
    acked_delta_ = 0;
    Status s = db->CreateTable("saving", &saving_);
    if (s.ok()) s = db->CreateTable("checking", &checking_);
    if (!s.ok()) return s;
    initial_total_ = 0;
    for (uint64_t id = 0; id < customers_; ++id) {
      initial_total_ += InitialBalance(id, 0) + InitialBalance(id, 1);
    }
    s = LoadRows(db, saving_, customers_,
                 [&](uint64_t id) { return IntText(InitialBalance(id, 0)); });
    if (!s.ok()) return s;
    return LoadRows(db, checking_, customers_,
                    [&](uint64_t id) { return IntText(InitialBalance(id, 1)); });
  }
  Status Bind(DB* db) override {
    Status s = db->FindTable("saving", &saving_);
    return s.ok() ? db->FindTable("checking", &checking_) : s;
  }

  // The five programs in equal shares; Amalgamate's second customer is a
  // distinct Zipf draw.
  Op NextOp(Rng* rng) const override {
    Op op;
    op.program = static_cast<uint8_t>(rng->Uniform(kSmallbankPrograms));
    op.a = static_cast<uint32_t>(zipf_.Next(rng));
    do {
      op.b = static_cast<uint32_t>(zipf_.Next(rng));
    } while (op.b == op.a);
    op.amount = 1 + static_cast<int64_t>(rng->Uniform(100));
    return op;
  }
  bool ReadOnly(const Op& op) const override {
    return op.program == kBalance;
  }

  Status Execute(Exec& x, const Op& op, Effect* e) const override {
    const std::string a = KeyOf(op.a);
    std::string sv, cv;
    Status s;
    switch (op.program) {
      case kBalance:
        s = x.Get(saving_, a, &sv);
        if (s.ok()) s = x.Get(checking_, a, &cv);
        return s;
      case kDepositChecking:
        s = x.Get(checking_, a, &cv);
        if (s.ok()) s = x.Put(checking_, a, IntText(ParseInt(cv) + op.amount));
        e->delta = op.amount;
        return s;
      case kTransactSaving:
        s = x.Get(saving_, a, &sv);
        if (s.ok()) s = x.Put(saving_, a, IntText(ParseInt(sv) + op.amount));
        e->delta = op.amount;
        return s;
      case kAmalgamate: {
        const std::string b = KeyOf(op.b);
        std::string bv;
        s = x.Get(saving_, a, &sv);
        if (s.ok()) s = x.Get(checking_, a, &cv);
        if (s.ok()) s = x.Get(checking_, b, &bv);
        const int64_t moved = ParseInt(sv) + ParseInt(cv);
        if (s.ok()) s = x.Put(saving_, a, IntText(0));
        if (s.ok()) s = x.Put(checking_, a, IntText(0));
        if (s.ok()) s = x.Put(checking_, b, IntText(ParseInt(bv) + moved));
        e->delta = 0;
        return s;
      }
      case kWriteCheck: {
        s = x.Get(saving_, a, &sv);
        if (s.ok()) s = x.Get(checking_, a, &cv);
        // Overdraft penalty of 1 when the combined balance is short.
        const int64_t debit =
            ParseInt(sv) + ParseInt(cv) < op.amount ? op.amount + 1 : op.amount;
        if (s.ok()) s = x.Put(checking_, a, IntText(ParseInt(cv) - debit));
        e->delta = -debit;
        return s;
      }
    }
    return Status::InvalidArgument("unknown SmallBank program");
  }

  void OnCommitted(const Op&, const Effect& e) override {
    acked_delta_.fetch_add(e.delta, std::memory_order_relaxed);
  }
  std::string Check(DB* db) override {
    return CheckSmallbank(db, saving_, checking_, customers_,
                          initial_total_ + acked_delta_.load());
  }

  // The audit: every account of both tables.
  Status ScanQuery(Exec& x, uint64_t* rows) const override {
    *rows = 0;
    for (TableId t : {saving_, checking_}) {
      Status s = x.Scan(t, kLo, kHi, [&](Slice, Slice) {
        ++*rows;
        return true;
      });
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  uint64_t image_txns_before_checkpoint() const override { return 20000; }
  uint64_t image_txns_after_checkpoint() const override { return 300000; }

 private:
  const uint64_t seed_;
  const uint64_t customers_;
  const Zipf zipf_;
  TableId saving_ = 0;
  TableId checking_ = 0;
  int64_t initial_total_ = 0;
  std::atomic<int64_t> acked_delta_{0};
};

// ---------------------------------------------------------------------------
// kv-past-ram
// ---------------------------------------------------------------------------

class KvPastRam final : public Workload {
 public:
  KvPastRam(uint64_t seed, Scale scale)
      : seed_(seed),
        pool_bytes_(scale == Scale::kFull ? (8u << 20) : (256u << 10)),
        keys_(4 * pool_bytes_ / kValueBytes),
        zipf_(keys_, 0.9, StreamSeed(seed, 1u << 20)),
        acked_(keys_) {}

  static constexpr uint64_t kValueBytes = 1024;

  const char* name() const override { return "kv-past-ram"; }
  int clients() const override { return 2; }
  DBOptions Options(const std::string& dir) const override {
    DBOptions o;
    o.buffer_pool_bytes = pool_bytes_;
    o.data_dir = dir + "/runs";
    return o;
  }

  /// Row value: its own key id, its update counter, then seeded filler.
  std::string ValueOf(uint64_t id, uint64_t updates) const {
    char head[32];
    const int n = std::snprintf(head, sizeof(head), "k%08llu u%010llu ",
                                static_cast<unsigned long long>(id),
                                static_cast<unsigned long long>(updates));
    std::string v(head, static_cast<size_t>(n));
    v.resize(kValueBytes, static_cast<char>('a' + (id ^ seed_) % 26));
    return v;
  }

  Status Load(DB* db) override {
    for (auto& a : acked_) a.store(0, std::memory_order_relaxed);
    Status s = db->CreateTable("kv", &table_);
    if (!s.ok()) return s;
    s = LoadRows(db, table_, keys_,
                 [&](uint64_t id) { return ValueOf(id, 0); });
    if (!s.ok()) return s;
    // Set-up ends with the table spilled (two sweeps: the first clears the
    // just-written chains' clock bits), so it always does the same work.
    // Left to the engine's 100 ms background sweep, a load that ran past
    // the first tick spilled concurrently and one that did not left the
    // spilling to the warm-up, so set-up times fell into two modes.
    db->SpillChains(table_);
    db->SpillChains(table_);
    return Status::OK();
  }
  Status Bind(DB* db) override { return db->FindTable("kv", &table_); }

  // Program 0: Get (90%). Program 1: GetForUpdate + Put (10%).
  Op NextOp(Rng* rng) const override {
    Op op;
    op.program = rng->Uniform(10) == 0 ? 1 : 0;
    op.a = static_cast<uint32_t>(zipf_.Next(rng));
    return op;
  }
  bool ReadOnly(const Op& op) const override { return op.program == 0; }

  Status Execute(Exec& x, const Op& op, Effect* e) const override {
    const std::string key = KeyOf(op.a);
    std::string v;
    Status s = op.program == 0 ? x.Get(table_, key, &v)
                               : x.GetForUpdate(table_, key, &v);
    if (!s.ok()) return s;
    uint64_t id = 0, updates = 0;
    if (!Parse(v, &id, &updates) || id != op.a) {
      e->bad_read = true;
      return s;
    }
    if (op.program == 0) return s;
    e->updated = true;
    e->key = op.a;
    return x.Put(table_, key, ValueOf(op.a, updates + 1));
  }

  void OnCommitted(const Op&, const Effect& e) override {
    if (e.updated) acked_[e.key].fetch_add(1, std::memory_order_relaxed);
  }
  std::string Check(DB* db) override {
    std::vector<uint64_t> expected(keys_);
    for (uint64_t k = 0; k < keys_; ++k) expected[k] = acked_[k].load();
    return CheckKv(db, table_, expected);
  }

  static bool Parse(Slice v, uint64_t* id, uint64_t* updates) {
    unsigned long long i = 0, u = 0;
    if (v.size() < 21) return false;
    const std::string head(v.data(), 21);
    if (std::sscanf(head.c_str(), "k%8llu u%10llu", &i, &u) != 2) return false;
    *id = i;
    *updates = u;
    return true;
  }

  uint64_t image_txns_before_checkpoint() const override { return 10000; }
  uint64_t image_txns_after_checkpoint() const override { return 30000; }

 private:
  const uint64_t seed_;
  const uint64_t pool_bytes_;
  const uint64_t keys_;
  const Zipf zipf_;
  TableId table_ = 0;
  std::vector<std::atomic<uint64_t>> acked_;
};

}  // namespace

std::string KeyOf(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%08llu", static_cast<unsigned long long>(id));
  return buf;
}

DBOptions Workload::DurableOptions(const std::string& dir) const {
  DBOptions o = Options(dir);
  o.log.wal_dir = dir + "/wal";
  o.log.flush_on_commit = true;
  return o;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "smallbank-pipelined", "kv-past-ram"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Scale scale) {
  if (name == "smallbank-pipelined") {
    return std::make_unique<SmallbankPipelined>(seed, scale);
  }
  if (name == "kv-past-ram") return std::make_unique<KvPastRam>(seed, scale);
  return nullptr;
}

std::string CheckSmallbank(DB* db, TableId saving, TableId checking,
                           uint64_t customers, int64_t expected_total) {
  std::vector<uint64_t> counts;
  int64_t total = 0;
  Status s = ScanAll(db, {saving, checking}, &counts,
                     [&](size_t, Slice, Slice v) { total += ParseInt(v); });
  if (!s.ok()) return "smallbank-pipelined: check scan failed: " + s.ToString();
  if (counts[0] != customers || counts[1] != customers) {
    return "smallbank-pipelined: account rows missing";
  }
  if (total != expected_total) {
    return "smallbank-pipelined: total balance " + std::to_string(total) +
           ", expected " + std::to_string(expected_total);
  }
  return "";
}

std::string CheckKv(DB* db, TableId table,
                    const std::vector<uint64_t>& expected_updates) {
  std::vector<uint64_t> counts;
  std::string problem;
  Status s = ScanAll(db, {table}, &counts, [&](size_t, Slice k, Slice v) {
    uint64_t id = 0, updates = 0;
    const uint64_t key = static_cast<uint64_t>(ParseInt(k));
    if (!problem.empty()) return;
    if (!KvPastRam::Parse(v, &id, &updates) || id != key) {
      problem = "kv-past-ram: row " + std::string(k.data(), k.size()) +
                " carries another key's value";
    } else if (key >= expected_updates.size() ||
               updates != expected_updates[key]) {
      problem = "kv-past-ram: row " + std::string(k.data(), k.size()) +
                " has " + std::to_string(updates) + " updates, acknowledged " +
                (key < expected_updates.size()
                     ? std::to_string(expected_updates[key])
                     : std::string("none"));
    }
  });
  if (!s.ok()) return "kv-past-ram: check scan failed: " + s.ToString();
  if (!problem.empty()) return problem;
  if (counts[0] != expected_updates.size()) {
    return "kv-past-ram: " + std::to_string(counts[0]) + " rows, expected " +
           std::to_string(expected_updates.size());
  }
  return "";
}

}  // namespace perfbench
