#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

using ssidb::Slice;
using ssidb::Status;

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng r(seed * 0x2545F4914F6CDD1Dull + stream * 0x9E3779B97F4A7C15ull + 1);
  r.Next();
  return r.Next();
}

Zipf::Zipf(uint64_t n, double theta, uint64_t seed) : n_(n) {
  zetan_ = 0;
  for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(double(i), theta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
  half_pow_theta_ = std::pow(0.5, theta);
  perm_.resize(n);
  for (uint64_t i = 0; i < n; ++i) perm_[i] = static_cast<uint32_t>(i);
  Rng r(seed);
  for (uint64_t i = n - 1; i > 0; --i) std::swap(perm_[i], perm_[r.Uniform(i + 1)]);
}

uint64_t Zipf::Next(Rng* rng) const {
  const double u = rng->NextDouble();
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + half_pow_theta_) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(double(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= n_) rank = n_ - 1;
  }
  return perm_[rank];
}

static uint64_t ReadProcField(const char* path, const std::string& field,
                              uint64_t scale) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0) {
      std::istringstream rest(line.substr(field.size()));
      uint64_t v = 0;
      rest >> v;
      return v * scale;
    }
  }
  return 0;
}

uint64_t PeakRssBytes() {
  return ReadProcField("/proc/self/status", "VmHWM:", 1024);
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

uint64_t ProcWriteBytes() {
  return ReadProcField("/proc/self/io", "write_bytes:", 1);
}

double Quantile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * double(v->size())));
  if (k > 0) --k;
  if (k >= v->size()) k = v->size() - 1;
  std::nth_element(v->begin(), v->begin() + k, v->end());
  return static_cast<double>((*v)[k]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * double(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

const char* SpanNameString(SpanName n) {
  switch (n) {
    case kSpanTxn: return "txn";
    case kSpanAttempt: return "attempt";
    case kSpanOpen: return "open";
    case kSpanBegin: return "begin";
    case kSpanGet: return "get";
    case kSpanGetForUpdate: return "get_for_update";
    case kSpanPut: return "put";
    case kSpanScan: return "scan";
    case kSpanCommit: return "commit";
    case kSpanCommitSubmit: return "commit_submit";
    case kSpanAckWait: return "ack_wait";
    case kSpanCount: break;
  }
  return "unknown";
}

Status Exec::Get(ssidb::TableId t, Slice key, std::string* value) {
  return Timed(kSpanGet, [&] {
    return txn_ != nullptr ? txn_->Get(t, key, value)
                           : session_->Get(handle_, t, key, value);
  });
}

Status Exec::GetForUpdate(ssidb::TableId t, Slice key, std::string* value) {
  return Timed(kSpanGetForUpdate, [&] {
    return txn_ != nullptr ? txn_->GetForUpdate(t, key, value)
                           : session_->GetForUpdate(handle_, t, key, value);
  });
}

Status Exec::Put(ssidb::TableId t, Slice key, Slice value) {
  return Timed(kSpanPut, [&] {
    return txn_ != nullptr ? txn_->Put(t, key, value)
                           : session_->Put(handle_, t, key, value);
  });
}

Status Exec::Scan(ssidb::TableId t, Slice lo, Slice hi,
                  const ssidb::ScanCallback& fn) {
  auto call = [&](const ssidb::ScanCallback& cb) {
    return txn_ != nullptr ? txn_->Scan(t, lo, hi, cb)
                           : session_->Scan(handle_, t, lo, hi, cb);
  };
  if (ctx_.tracer == nullptr) return call(fn);
  // The callback is the benchmark's own work; time it so the span's self
  // time is the engine's share alone.
  uint64_t callback_ns = 0;
  uint32_t rows = 0;
  const uint64_t t0 = NowNs();
  Status s = call([&](Slice k, Slice v) {
    const uint64_t c0 = NowNs();
    const bool more = fn(k, v);
    callback_ns += NowNs() - c0;
    ++rows;
    return more;
  });
  ctx_.tracer->Record(kSpanScan, ctx_.tracer->NewId(), ctx_.attempt,
                      ctx_.txn, t0, NowNs(), callback_ns, false, rows);
  return s;
}

Status TimedOpen(const ssidb::DBOptions& options,
                 std::unique_ptr<ssidb::DB>* db, Tracer* tracer) {
  const uint64_t t0 = NowNs();
  Status s = ssidb::DB::Open(options, db);
  if (tracer != nullptr) {
    tracer->Record(kSpanOpen, tracer->NewId(), 0, 0, t0, NowNs());
  }
  return s;
}

}  // namespace perfbench
