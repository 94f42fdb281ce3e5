// The benchmark's own tests: seeded inputs are reproducible, a tiny run of
// every workload passes its checks (traced and untraced), and each check
// rejects a deliberately wrong expected value.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Scratch databases go under the working directory (the build tree when
// run through ctest).
std::string TestDir(const std::string& name) {
  const std::string dir =
      (fs::current_path() / "perfbench_test_tmp" / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<Op> Ops(const std::string& workload, uint64_t seed,
                    uint64_t stream, int n) {
  auto w = MakeWorkload(workload, seed);
  Rng rng(StreamSeed(seed, stream));
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) ops.push_back(w->NextOp(&rng));
  return ops;
}

TEST(Determinism, SameSeedGivesSameOperations) {
  for (const std::string& name : WorkloadNames()) {
    SCOPED_TRACE(name);
    for (uint64_t stream = 0; stream < 4; ++stream) {
      EXPECT_EQ(Ops(name, 7, stream, 2000), Ops(name, 7, stream, 2000));
    }
    EXPECT_NE(Ops(name, 7, 0, 2000), Ops(name, 8, 0, 2000));
    EXPECT_NE(Ops(name, 7, 0, 2000), Ops(name, 7, 1, 2000));
  }
}

TEST(Determinism, ZipfStaysInRangeAndIsSkewed) {
  Zipf z(1000, 0.9, 3);
  Rng rng(5);
  std::vector<int> hits(1000);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t k = z.Next(&rng);
    ASSERT_LT(k, 1000u);
    ++hits[k];
  }
  std::sort(hits.begin(), hits.end());
  // The hottest key draws far more than a uniform share (100).
  EXPECT_GT(hits.back(), 2000);
}

TEST(Statistics, PercentileInterpolates) {
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Percentile({4, 1, 3, 2}, 0.25), 1.75);
  EXPECT_EQ(Percentile({4, 1, 3, 2}, 0.75), 3.25);
  std::vector<uint64_t> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Quantile(&v, 0.5), 3);
  EXPECT_EQ(Quantile(&v, 0.99), 5);
}

class TinyRun : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyRun, PassesChecks) {
  for (bool trace : {false, true}) {
    SCOPED_TRACE(trace ? "traced" : "untraced");
    RunConfig cfg;
    cfg.workload = GetParam();
    cfg.seed = 3;
    cfg.seconds = 0.4;
    cfg.trace = trace;
    cfg.tiny = true;
    cfg.work_dir = TestDir(GetParam());
    const RunResult r = perfbench::Run(cfg);
    for (const auto& n : r.notes) SCOPED_TRACE(n);
    EXPECT_TRUE(r.correct);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_FALSE(r.metrics.empty());
    bool serializability_passed = false;
    for (const auto& n : r.notes) {
      if (n.find("serializability") == 0 && n.find("passed") != n.npos) {
        serializability_passed = true;
      }
      EXPECT_EQ(n.find("FAILED"), std::string::npos) << n;
    }
    EXPECT_TRUE(serializability_passed);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyRun,
                         ::testing::ValuesIn(WorkloadNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

/// Load a tiny database and commit `n` writing transactions serially,
/// tracking their effects independently of the workload's own bookkeeping.
struct Loaded {
  std::unique_ptr<Workload> w;
  std::unique_ptr<ssidb::DB> db;
  std::vector<std::pair<Op, Effect>> committed;

  Loaded(const std::string& name, int n)
      : w(MakeWorkload(name, 9, Scale::kTiny)) {
    const std::string dir = TestDir("check_" + name);
    EXPECT_TRUE(ssidb::DB::Open(w->Options(dir), &db).ok());
    EXPECT_TRUE(w->Load(db.get()).ok());
    Rng rng(11);
    while (static_cast<int>(committed.size()) < n) {
      const Op op = w->NextOp(&rng);
      if (w->ReadOnly(op)) continue;
      auto txn = db->Begin();
      Exec x(txn.get(), SpanCtx{});
      Effect e;
      ssidb::Status s = w->Execute(x, op, &e);
      if (s.ok()) s = txn->Commit();
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (!s.ok()) break;
      committed.emplace_back(op, e);
    }
  }
  ssidb::TableId Table(const char* name) const {
    ssidb::TableId t = 0;
    EXPECT_TRUE(db->FindTable(name, &t).ok());
    return t;
  }
};

TEST(ScanQuery, SmallbankAuditVisitsEveryAccount) {
  Loaded l("smallbank-pipelined", 10);
  auto txn = l.db->Begin();
  Exec x(txn.get(), SpanCtx{});
  uint64_t rows = 0;
  ASSERT_TRUE(l.w->ScanQuery(x, &rows).ok());
  EXPECT_EQ(rows, 2u * 100u);  // Saving and checking, 100 tiny customers.
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(Checks, SmallbankRejectsWrongTotal) {
  Loaded l("smallbank-pipelined", 40);
  const ssidb::TableId saving = l.Table("saving");
  const ssidb::TableId checking = l.Table("checking");
  // The total before the writes, read key by key (not through the check's
  // scan), plus the committed programs' deltas.
  int64_t total = 0;
  {
    auto w0 = MakeWorkload("smallbank-pipelined", 9, Scale::kTiny);
    std::unique_ptr<ssidb::DB> fresh;
    ASSERT_TRUE(ssidb::DB::Open(w0->Options(TestDir("check_sb_fresh")), &fresh)
                    .ok());
    ASSERT_TRUE(w0->Load(fresh.get()).ok());
    auto txn = fresh->Begin();
    for (uint64_t id = 0; id < 100; ++id) {
      for (const char* table : {"saving", "checking"}) {
        ssidb::TableId t = 0;
        ASSERT_TRUE(fresh->FindTable(table, &t).ok());
        std::string v;
        ASSERT_TRUE(txn->Get(t, KeyOf(id), &v).ok());
        total += std::stoll(v);
      }
    }
  }
  for (const auto& [op, e] : l.committed) total += e.delta;
  EXPECT_EQ(CheckSmallbank(l.db.get(), saving, checking, 100, total), "");
  EXPECT_NE(CheckSmallbank(l.db.get(), saving, checking, 100, total + 1), "");
  EXPECT_NE(CheckSmallbank(l.db.get(), saving, checking, 100, total - 1), "");
}

TEST(Checks, KvRejectsWrongCounterAndForeignValue) {
  Loaded l("kv-past-ram", 50);
  const ssidb::TableId t = l.Table("kv");
  std::vector<uint64_t> expected(1024);  // 4 x 256 KiB pool / 1 KiB values.
  for (const auto& [op, e] : l.committed) {
    ASSERT_TRUE(e.updated);
    ++expected[e.key];
  }
  EXPECT_EQ(CheckKv(l.db.get(), t, expected), "");
  auto wrong = expected;
  ++wrong[l.committed[0].second.key];
  EXPECT_NE(CheckKv(l.db.get(), t, wrong), "");
  wrong = expected;
  wrong.pop_back();
  EXPECT_NE(CheckKv(l.db.get(), t, wrong), "");

  // A row holding another key's value is caught too.
  std::string v;
  {
    auto txn = l.db->Begin();
    ASSERT_TRUE(txn->Get(t, KeyOf(1), &v).ok());
    ASSERT_TRUE(txn->Put(t, KeyOf(2), v).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  expected[2] = expected[1];
  EXPECT_NE(CheckKv(l.db.get(), t, expected), "");
}

}  // namespace
}  // namespace perfbench
