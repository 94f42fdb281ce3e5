// The obs metrics layer: log-linear histogram bucket math, shard-merge
// equivalence, the quantile error bound the header promises (<= 1/16,
// asserted at 12.5%), window deltas, registry collection, name lookup and
// duplicate rejection, and the engine's metrics: unique names covering
// every engine counter, stage histograms actually filling under load
// (metrics_sample_period = 1 makes every commit record, so short tests are
// deterministic), and per-site sampling at the default period.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "src/io/env.h"
#include "src/obs/exporter.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;

// ---- Bucket math ----------------------------------------------------------

TEST(HistogramBucketTest, LowValuesGetExactUnitBuckets) {
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::BucketOf(v), v);
    EXPECT_EQ(Histogram::BucketLower(static_cast<uint32_t>(v)), v);
    EXPECT_EQ(Histogram::BucketWidth(static_cast<uint32_t>(v)), 1u);
  }
}

TEST(HistogramBucketTest, BoundariesAreExactAcrossTheRange) {
  // For every reachable bucket: its lower bound maps into it, its last
  // value maps into it, and the next value maps into the next bucket —
  // i.e. BucketLower/BucketWidth are the exact inverse of BucketOf.
  const uint32_t last = Histogram::BucketOf(~uint64_t{0});
  ASSERT_LT(last, Histogram::kBuckets);
  for (uint32_t b = 0; b <= last; ++b) {
    const uint64_t lower = Histogram::BucketLower(b);
    const uint64_t width = Histogram::BucketWidth(b);
    EXPECT_EQ(Histogram::BucketOf(lower), b) << "lower of bucket " << b;
    EXPECT_EQ(Histogram::BucketOf(lower + width - 1), b)
        << "last value of bucket " << b;
    if (b < last) {
      EXPECT_EQ(Histogram::BucketLower(b + 1), lower + width)
          << "buckets must tile without gaps at " << b;
      EXPECT_EQ(Histogram::BucketOf(lower + width), b + 1)
          << "first value past bucket " << b;
    }
  }
}

TEST(HistogramBucketTest, BucketIndexIsMonotone) {
  uint32_t prev = 0;
  for (uint64_t v = 0; v < (1u << 20); v += 17) {
    const uint32_t b = Histogram::BucketOf(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

// ---- Recording and merging ------------------------------------------------

TEST(HistogramTest, MergeOfShardsEqualsSerialRecording) {
  // The same value stream recorded (a) spread round-robin across every
  // shard and (b) serially into one shard must produce identical
  // snapshots: Snapshot() is a pure merge.
  Histogram sharded;
  Histogram serial;
  Random rng(97);
  const size_t shards = sharded.shards();
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = rng.Uniform(1u << 20);
    sharded.RecordAt(static_cast<size_t>(i) % shards, v);
    serial.RecordAt(0, v);
  }
  const HistogramSnapshot a = sharded.Snapshot();
  const HistogramSnapshot b = serial.Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
  }
}

TEST(HistogramTest, QuantileRelativeErrorIsBounded) {
  // Log-linear with 8 sub-buckets: reporting the bucket midpoint is off by
  // at most half a bucket width relative to the bucket's lower bound,
  // i.e. <= 1/16. Assert 12.5% for slack, over several magnitudes.
  Histogram h;
  std::vector<uint64_t> values;
  Random rng(131);
  for (int i = 0; i < 50000; ++i) {
    // Log-uniform-ish spread: pick a magnitude, then a value within it.
    const uint32_t mag = static_cast<uint32_t>(rng.Uniform(30));
    const uint64_t v = (uint64_t{1} << mag) + rng.Uniform(uint64_t{1} << mag);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const uint64_t exact = values[rank == 0 ? 0 : rank - 1];
    const uint64_t approx = snap.Quantile(q);
    const double err =
        std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
        static_cast<double>(exact);
    EXPECT_LE(err, 0.125) << "q=" << q << " exact=" << exact
                          << " approx=" << approx;
  }
  // Q(1.0) reports the top bucket's midpoint clamped to max: never above
  // max, never below the top bucket's lower bound.
  EXPECT_LE(snap.Quantile(1.0), snap.max);
  EXPECT_GE(snap.Quantile(1.0),
            Histogram::BucketLower(Histogram::BucketOf(snap.max)));
}

TEST(HistogramTest, QuantileExactForUnitBuckets) {
  Histogram h;
  for (uint64_t v = 1; v <= 10; ++v) h.Record(v);  // 1..10, all unit buckets.
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.Quantile(0.5), 5u);
  EXPECT_EQ(snap.Quantile(1.0), 10u);
  EXPECT_EQ(snap.count, 10u);
  EXPECT_EQ(snap.sum, 55u);
  EXPECT_EQ(snap.max, 10u);
}

TEST(HistogramTest, DeltaIsolatesTheWindow) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(3);
  const HistogramSnapshot before = h.Snapshot();
  for (int i = 0; i < 50; ++i) h.Record(7);
  const HistogramSnapshot window = h.Snapshot().Delta(before);
  EXPECT_EQ(window.count, 50u);
  EXPECT_EQ(window.sum, 50u * 7);
  EXPECT_EQ(window.Quantile(0.5), 7u);  // The pre-window 3s are gone.
  EXPECT_EQ(window.buckets[3], 0u);
  EXPECT_EQ(window.buckets[7], 50u);
}

TEST(HistogramTest, ConcurrentRecordersLoseNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  // A snapshotter races the recorders; its only job is to not crash and
  // to see monotone counts (each shard counter is individually coherent).
  std::thread snapshotter([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t c = h.Snapshot().count;
      EXPECT_GE(c, last);
      last = c;
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) + 5);
      for (int i = 0; i < kPerThread; ++i) {
        h.RecordAt(static_cast<size_t>(t), rng.Uniform(1 << 16));
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true);
  snapshotter.join();
  EXPECT_EQ(h.Snapshot().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---- Sampling tick --------------------------------------------------------

TEST(SampleTest, MaskZeroAlwaysSamples) {
  uint32_t tick = 0;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(obs::SampleTick(tick, 0));
}

TEST(SampleTest, MaskFromPeriodSamplesOneInPeriod) {
  EXPECT_EQ(obs::SampleMask(0), 0u);
  EXPECT_EQ(obs::SampleMask(1), 0u);
  EXPECT_EQ(obs::SampleMask(16), 15u);
  EXPECT_EQ(obs::SampleMask(10), 15u);  // Rounded up to a power of two.
  const uint32_t mask = obs::SampleMask(16);
  uint32_t tick = 0;
  int sampled = 0;
  for (int i = 0; i < 1600; ++i) {
    if (obs::SampleTick(tick, mask)) ++sampled;
  }
  EXPECT_EQ(sampled, 100);
}

// ---- Registry -------------------------------------------------------------

TEST(MetricsRegistryTest, CollectsCountersGaugesAndHistogramsSorted) {
  obs::MetricsRegistry reg;
  std::atomic<uint64_t> c{42};
  reg.RegisterCounter("z.counter", [&] { return c.load(); });
  reg.RegisterCounter("a.counter", [] { return uint64_t{7}; });
  reg.RegisterGauge("g.gauge", [] { return uint64_t{3}; });
  Histogram h;
  h.Record(100);
  reg.RegisterHistogram("h.hist", &h);

  obs::MetricsSnapshot snap = reg.Collect();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.counter");  // Sorted by name.
  EXPECT_EQ(snap.counters[1].second, 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 3u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);

  // The callback reads live state: bump and re-collect.
  c.store(43);
  EXPECT_EQ(reg.Collect().counters[1].second, 43u);
}

TEST(MetricsRegistryTest, SnapshotLooksUpByNameAndKind) {
  obs::MetricsRegistry reg;
  for (const char* name : {"m.b", "m.d", "m.a", "m.c"}) {
    ASSERT_TRUE(reg.RegisterCounter(name, [name] {
                     return uint64_t{static_cast<unsigned char>(name[2])};
                   }).ok());
  }
  ASSERT_TRUE(reg.RegisterGauge("g", [] { return uint64_t{9}; }).ok());
  Histogram h;
  h.Record(5);
  ASSERT_TRUE(reg.RegisterHistogram("h", &h).ok());

  const obs::MetricsSnapshot snap = reg.Collect();
  EXPECT_EQ(snap.Counter("m.a"), uint64_t{'a'});
  EXPECT_EQ(snap.Counter("m.c"), uint64_t{'c'});
  EXPECT_EQ(snap.Counter("m.d"), uint64_t{'d'});
  EXPECT_EQ(snap.Gauge("g"), 9u);
  EXPECT_EQ(snap.Histogram("h").count, 1u);
  // Absent names — and names of another kind — read as never-moved.
  EXPECT_EQ(snap.Counter("m.e"), 0u);
  EXPECT_EQ(snap.Counter("g"), 0u);
  EXPECT_EQ(snap.Gauge("m.a"), 0u);
  EXPECT_EQ(snap.Histogram("nope").count, 0u);
}

TEST(MetricsRegistryTest, DuplicateNamesAreRejectedAcrossKinds) {
  obs::MetricsRegistry reg;
  ASSERT_TRUE(reg.RegisterCounter("dup", [] { return uint64_t{1}; }).ok());
  EXPECT_TRUE(reg.RegisterCounter("dup", [] { return uint64_t{2}; })
                  .IsInvalidArgument());
  EXPECT_TRUE(reg.RegisterGauge("dup", [] { return uint64_t{3}; })
                  .IsInvalidArgument());
  Histogram h;
  EXPECT_TRUE(reg.RegisterHistogram("dup", &h).IsInvalidArgument());
  // The first registration stands alone.
  const obs::MetricsSnapshot snap = reg.Collect();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsRegistryTest, DeltaSubtractsCountersKeepsGaugesWindowsHistograms) {
  obs::MetricsRegistry reg;
  std::atomic<uint64_t> c{10};
  std::atomic<uint64_t> g{5};
  Histogram h;
  ASSERT_TRUE(reg.RegisterCounter("c", [&] { return c.load(); }).ok());
  ASSERT_TRUE(reg.RegisterGauge("g", [&] { return g.load(); }).ok());
  ASSERT_TRUE(reg.RegisterHistogram("h", &h).ok());
  for (int i = 0; i < 100; ++i) h.Record(3);
  const obs::MetricsSnapshot before = reg.Collect();
  c.store(25);
  g.store(2);
  for (int i = 0; i < 50; ++i) h.Record(7);
  const obs::MetricsSnapshot window = reg.Collect().Delta(before);
  EXPECT_EQ(window.Counter("c"), 15u);
  EXPECT_EQ(window.Gauge("g"), 2u);  // End value, not a difference.
  EXPECT_EQ(window.Histogram("h").count, 50u);
  EXPECT_EQ(window.Histogram("h").Quantile(0.5), 7u);
  // A counter the earlier snapshot lacked counts from zero.
  EXPECT_EQ(reg.Collect().Delta(obs::MetricsSnapshot{}).Counter("c"), 25u);
}

// ---- Exporter -------------------------------------------------------------

TEST(ExporterTest, JsonAndPrometheusRenderAllSections) {
  obs::MetricsRegistry reg;
  reg.RegisterCounter("ssi.unsafe-aborts", [] { return uint64_t{5}; });
  reg.RegisterGauge("engine.active_txns", [] { return uint64_t{2}; });
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000);
  reg.RegisterHistogram("commit.total_ns", &h);

  const std::string json = obs::Render(reg.Collect(), obs::MetricsFormat::kJson);
  EXPECT_NE(json.find("\"ssi.unsafe-aborts\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"engine.active_txns\":2"), std::string::npos);
  EXPECT_NE(json.find("\"commit.total_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "single line";

  const std::string prom =
      obs::Render(reg.Collect(), obs::MetricsFormat::kPrometheus);
  EXPECT_NE(prom.find("ssidb_ssi_unsafe_aborts 5"), std::string::npos) << prom;
  EXPECT_NE(prom.find("ssidb_commit_total_ns_count 100"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
}

// ---- Engine integration ---------------------------------------------------

TEST(EngineMetricsTest, StageHistogramsFillUnderCommitLoad) {
  DBOptions opts;
  opts.metrics_sample_period = 1;  // Every commit records its stages.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  for (int i = 0; i < 64; ++i) {
    auto txn = db->Begin({IsolationLevel::kSerializableSSI});
    std::string v;
    txn->Get(table, EncodeU64Key(static_cast<uint64_t>(i)), &v);
    ASSERT_TRUE(txn->Put(table, EncodeU64Key(static_cast<uint64_t>(i)), "x")
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  // The six commit-pipeline stage histograms all saw every commit.
  const char* kStages[] = {"commit.certify_ns",  "commit.stamp_publish_ns",
                           "commit.watermark_ns", "commit.wal_append_ns",
                           "commit.fsync_wait_ns", "commit.total_ns"};
  const obs::MetricsSnapshot snap = db->metrics()->Collect();
  for (const char* name : kStages) {
    EXPECT_EQ(snap.Histogram(name).count, 64u) << name;
  }
  // Read path: every Get above hit in memory.
  EXPECT_EQ(snap.Histogram("read.hit_ns").count, 64u);

  // DumpMetrics carries them all in one JSON line.
  const std::string json = db->DumpMetrics();
  for (const char* name : kStages) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  }
  EXPECT_NE(json.find("\"abort.ssi_pivot\""), std::string::npos);
  EXPECT_NE(json.find("\"log.records\""), std::string::npos);
}

TEST(EngineMetricsTest, DefaultPeriodSamplesBothReadsAndCommits) {
  // One read and one commit per transaction at the default period, on a
  // fresh thread (fresh thread_local ticks). Each sampling site keeps its
  // own tick, so both histograms record; a tick shared by the read path
  // and the commit path would land every sample on the read.
  DBOptions opts;
  ASSERT_EQ(opts.metrics_sample_period, 16u);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  std::thread client([&] {
    for (int i = 0; i < 64; ++i) {
      auto txn = db->Begin({IsolationLevel::kSerializableSSI});
      const std::string key = EncodeU64Key(static_cast<uint64_t>(i));
      std::string v;
      txn->Get(table, key, &v);
      EXPECT_TRUE(txn->Put(table, key, "x").ok());
      EXPECT_TRUE(txn->Commit().ok());
    }
  });
  client.join();
  const obs::MetricsSnapshot snap = db->metrics()->Collect();
  EXPECT_GT(snap.Histogram("commit.total_ns").count, 0u);
  EXPECT_GT(snap.Histogram("read.hit_ns").count, 0u);
}

/// Every metric name is registered once, under one kind, and the engine
/// registers each name it has ever published (the pre-registry stats
/// struct's fields included; CHANGES.md maps them) — in-memory, and
/// durable with a storage tier and an explicit Env.
TEST(EngineMetricsTest, NamesAreUniqueAndCoverEveryEngineMetric) {
  std::vector<std::string> counters = {
      "ssi.unsafe_aborts", "lock.waits", "lock.deadlocks",
      "log.records", "log.flush_batches",
      "commit.waits", "commit.wakeups", "commit.ring_full_stalls",
      "commit.combine_batches",
      "commit.combined_txns", "commit.fastpath", "ckpt.taken",
      "ckpt.bytes_written", "wal.segments_deleted", "gc.versions_pruned",
      "io.errors.wal", "io.errors.checkpoint"};
  for (size_t i = 1; i < kAbortReasonCount; ++i) {
    counters.push_back(std::string("abort.") +
                       AbortReasonName(static_cast<AbortReason>(i)));
  }
  const std::vector<std::string> gauges = {
      "lock.grants",          "engine.active_txns",
      "engine.suspended_txns", "session.open",
      "commit.max_window_depth", "commit.max_batch",
      "commit.inflight",      "txn.page_fcw_entries",
      "db.read_only"};
  const std::vector<std::string> histograms = {
      "commit.certify_ns",    "commit.stamp_publish_ns",
      "commit.watermark_ns",  "commit.wal_append_ns",
      "commit.fsync_wait_ns", "commit.ack_lag_ns",
      "commit.total_ns",      "read.hit_ns",
      "read.fault_ns",        "log.flush_batch_ns"};
  const std::vector<std::string> tier_counters = {
      "pool.hits",          "pool.misses",        "pool.evictions",
      "pool.writebacks",    "tier.spilled_chains", "tier.faulted_chains",
      "tier.compactions",   "tier.lookup_probes",
      "io.retries",         "io.errors.pool",     "io.errors.tier",
      "io.injected_faults"};
  const std::vector<std::string> tier_histograms = {"pool.read_io_ns",
                                                    "pool.write_io_ns"};

  const auto check = [&](DB* db, bool tier) {
    const obs::MetricsSnapshot snap = db->metrics()->Collect();
    std::map<std::string, std::string> kind_of;
    const auto note = [&](const auto& entries, const char* kind) {
      for (const auto& entry : entries) {
        EXPECT_TRUE(kind_of.emplace(entry.first, kind).second)
            << "registered twice: " << entry.first;
      }
    };
    note(snap.counters, "counter");
    note(snap.gauges, "gauge");
    note(snap.histograms, "histogram");
    const auto expect = [&](const std::vector<std::string>& names,
                            const char* kind) {
      for (const std::string& name : names) {
        EXPECT_EQ(kind_of[name], kind) << name;
      }
    };
    expect(counters, "counter");
    expect(gauges, "gauge");
    expect(histograms, "histogram");
    if (tier) {
      expect(tier_counters, "counter");
      expect(tier_histograms, "histogram");
    }
  };

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  check(db.get(), /*tier=*/false);
  db.reset();

  ScratchDir dir;
  DBOptions opts;
  opts.log.wal_dir = dir.path;
  opts.buffer_pool_bytes = 1 << 16;
  opts.env = io::Env::Default();
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  ASSERT_NE(db->storage_tier(), nullptr);
  check(db.get(), /*tier=*/true);
}

TEST(EngineMetricsTest, RegistrySnapshotsStayMonotoneUnderConcurrentLoad) {
  // The stats-invariant satellite at the registry level: cumulative
  // counters and histogram counts sampled while workers commit never
  // regress between snapshots.
  DBOptions opts;
  opts.metrics_sample_period = 1;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Random rng(static_cast<uint64_t>(w) * 17 + 3);
      while (!stop.load(std::memory_order_relaxed)) {
        auto txn = db->Begin({IsolationLevel::kSerializableSSI});
        std::string v;
        txn->Get(table, EncodeU64Key(rng.Uniform(8)), &v);
        txn->Put(table, EncodeU64Key(rng.Uniform(8)), "x");
        txn->Commit();
      }
    });
  }

  std::map<std::string, uint64_t> last_counter;
  std::map<std::string, uint64_t> last_hist_count;
  for (int i = 0; i < 500; ++i) {
    const obs::MetricsSnapshot snap = db->metrics()->Collect();
    for (const auto& [name, value] : snap.counters) {
      auto it = last_counter.find(name);
      if (it != last_counter.end()) {
        EXPECT_GE(value, it->second) << "counter regressed: " << name;
        it->second = value;
      } else {
        last_counter.emplace(name, value);
      }
    }
    for (const auto& [name, hist] : snap.histograms) {
      auto it = last_hist_count.find(name);
      if (it != last_hist_count.end()) {
        EXPECT_GE(hist.count, it->second) << "histogram regressed: " << name;
        it->second = hist.count;
      } else {
        last_hist_count.emplace(name, hist.count);
      }
    }
  }
  stop.store(true);
  for (auto& t : workers) t.join();
}

/// Sum of every abort.* taxonomy counter in `s`.
uint64_t AbortTotal(const obs::MetricsSnapshot& s) {
  uint64_t total = 0;
  for (const auto& [name, value] : s.counters) {
    if (name.rfind("abort.", 0) == 0) total += value;
  }
  return total;
}

TEST(EngineMetricsTest, AbortBreakdownFoldsIntoRegistry) {
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(seed->Put(table, "x", "50").ok());
    ASSERT_TRUE(seed->Put(table, "y", "50").ok());
    ASSERT_TRUE(seed->Commit().ok());
  }
  EXPECT_EQ(AbortTotal(db->metrics()->Collect()), 0u);

  // An explicit rollback is the simplest taxonomy entry.
  {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(table, "x", "1").ok());
    txn->Abort();
  }
  obs::MetricsSnapshot s = db->metrics()->Collect();
  EXPECT_EQ(CounterOf(s, "abort.explicit"), 1u);
  EXPECT_EQ(AbortTotal(s), 1u);

  // A write-skew SSI abort lands in an SSI taxonomy slot.
  {
    auto t1 = db->Begin({IsolationLevel::kSerializableSSI});
    auto t2 = db->Begin({IsolationLevel::kSerializableSSI});
    std::string v;
    ASSERT_TRUE(t1->Get(table, "x", &v).ok());
    ASSERT_TRUE(t1->Get(table, "y", &v).ok());
    ASSERT_TRUE(t2->Get(table, "x", &v).ok());
    ASSERT_TRUE(t2->Get(table, "y", &v).ok());
    ASSERT_TRUE(t1->Put(table, "x", "-20").ok());
    Status c1 = t1->Commit();
    Status c2 = t2->active() ? [&] {
      Status w = t2->Put(table, "y", "-30");
      return w.ok() ? t2->Commit() : w;
    }() : Status::Unsafe("marked");
    EXPECT_NE(c1.ok(), c2.ok());
    if (t1->active()) t1->Abort();
    if (t2->active()) t2->Abort();
  }
  s = db->metrics()->Collect();
  const uint64_t ssi_aborts = CounterOf(s, "abort.ssi_pivot") +
                              CounterOf(s, "abort.ssi_in_side") +
                              CounterOf(s, "abort.ssi_out_side");
  EXPECT_EQ(ssi_aborts, 1u);
  EXPECT_EQ(AbortTotal(s), 2u);
  // DumpMetrics renders the same counters.
  EXPECT_NE(db->DumpMetrics().find("\"abort.explicit\":1"), std::string::npos);
}

TEST(EngineMetricsTest, BackgroundDumperWritesSnapshots) {
  char tmpl[] = "/tmp/ssidb_metrics_XXXXXX";
  int fd = mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  close(fd);
  const std::string path = tmpl;
  {
    DBOptions opts;
    opts.metrics_dump_interval_ms = 20;
    opts.metrics_dump_path = path;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId table = 0;
    ASSERT_TRUE(db->CreateTable("t", &table).ok());
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(table, "k", "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }  // ~DB stops the dumper.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_NE(line.find("\"log.records\""), std::string::npos);
  }
  EXPECT_GE(lines, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ssidb
