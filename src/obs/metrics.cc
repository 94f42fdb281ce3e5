#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace ssidb {
namespace obs {

namespace {

/// Histogram shards cost ~4 KiB each, so size from the topology but cap
/// the footprint: 16 shards already give distinct cache lines to every
/// hardware thread this container will realistically run.
size_t HistogramShards() {
  const uint64_t t = TopologyShards(/*floor=*/1);
  return static_cast<size_t>(t < 16 ? t : 16);
}

/// Binary search over one of MetricsSnapshot's name-sorted vectors.
template <typename V>
const typename V::value_type* FindByName(const V& v, std::string_view name) {
  auto it = std::lower_bound(
      v.begin(), v.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
  return it != v.end() && it->first == name ? &*it : nullptr;
}

}  // namespace

uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t target = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (target == 0) target = 1;
  if (target > count) target = count;
  uint64_t seen = 0;
  for (uint32_t b = 0; b < kBuckets && b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= target) {
      const uint64_t lower = Histogram::BucketLower(b);
      const uint64_t width = Histogram::BucketWidth(b);
      const uint64_t mid = width <= 1 ? lower : lower + width / 2;
      return mid < max ? mid : max;
    }
  }
  return max;
}

HistogramSnapshot HistogramSnapshot::Delta(
    const HistogramSnapshot& since) const {
  HistogramSnapshot d;
  d.count = count >= since.count ? count - since.count : 0;
  d.sum = sum >= since.sum ? sum - since.sum : 0;
  d.max = max;  // Cumulative max: the only sound bound for the window.
  if (!buckets.empty()) {
    d.buckets.resize(kBuckets, 0);
    for (uint32_t b = 0; b < kBuckets; ++b) {
      const uint64_t before =
          b < since.buckets.size() ? since.buckets[b] : 0;
      const uint64_t now = b < buckets.size() ? buckets[b] : 0;
      d.buckets[b] = now >= before ? now - before : 0;
    }
  }
  return d;
}

Histogram::Histogram()
    : shard_mask_(RoundUpPow2(HistogramShards(), 1) - 1),
      shards_(new Shard[shard_mask_ + 1]) {}

void Histogram::RecordAt(size_t slot, uint64_t v) {
  Shard& s = shards_[slot & shard_mask_];
  s.buckets[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  uint64_t seen = s.max.load(std::memory_order_relaxed);
  while (v > seen &&
         !s.max.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  out.buckets.assign(kBuckets, 0);
  for (size_t i = 0; i <= shard_mask_; ++i) {
    const Shard& s = shards_[i];
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    const uint64_t m = s.max.load(std::memory_order_relaxed);
    if (m > out.max) out.max = m;
    for (uint32_t b = 0; b < kBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

uint64_t MetricsSnapshot::Counter(std::string_view name) const {
  const auto* e = FindByName(counters, name);
  return e != nullptr ? e->second : 0;
}

uint64_t MetricsSnapshot::Gauge(std::string_view name) const {
  const auto* e = FindByName(gauges, name);
  return e != nullptr ? e->second : 0;
}

const HistogramSnapshot& MetricsSnapshot::Histogram(
    std::string_view name) const {
  static const HistogramSnapshot kEmpty;
  const auto* e = FindByName(histograms, name);
  return e != nullptr ? e->second : kEmpty;
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& since) const {
  MetricsSnapshot d;
  d.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    const uint64_t before = since.Counter(name);
    d.counters.emplace_back(name, value >= before ? value - before : 0);
  }
  d.gauges = gauges;
  d.histograms.reserve(histograms.size());
  for (const auto& [name, h] : histograms) {
    d.histograms.emplace_back(name, h.Delta(since.Histogram(name)));
  }
  return d;
}

bool MetricsRegistry::TakenLocked(std::string_view name) const {
  const auto named = [name](const auto& entry) { return entry.first == name; };
  return std::any_of(counters_.begin(), counters_.end(), named) ||
         std::any_of(gauges_.begin(), gauges_.end(), named) ||
         std::any_of(histograms_.begin(), histograms_.end(), named);
}

Status MetricsRegistry::RegisterCounter(std::string name, ValueFn fn) {
  std::lock_guard<std::mutex> guard(mu_);
  if (TakenLocked(name)) return Status::InvalidArgument("duplicate metric");
  counters_.emplace_back(std::move(name), std::move(fn));
  return Status::OK();
}

Status MetricsRegistry::RegisterGauge(std::string name, ValueFn fn) {
  std::lock_guard<std::mutex> guard(mu_);
  if (TakenLocked(name)) return Status::InvalidArgument("duplicate metric");
  gauges_.emplace_back(std::move(name), std::move(fn));
  return Status::OK();
}

Status MetricsRegistry::RegisterHistogram(std::string name,
                                          const Histogram* histogram) {
  std::lock_guard<std::mutex> guard(mu_);
  if (TakenLocked(name)) return Status::InvalidArgument("duplicate metric");
  histograms_.emplace_back(std::move(name), histogram);
  return Status::OK();
}

MetricsSnapshot MetricsRegistry::Collect() const {
  MetricsSnapshot out;
  {
    std::lock_guard<std::mutex> guard(mu_);
    out.counters.reserve(counters_.size());
    for (const auto& [name, fn] : counters_) {
      out.counters.emplace_back(name, fn());
    }
    out.gauges.reserve(gauges_.size());
    for (const auto& [name, fn] : gauges_) {
      out.gauges.emplace_back(name, fn());
    }
    out.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      out.histograms.emplace_back(name, h->Snapshot());
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

}  // namespace obs
}  // namespace ssidb
