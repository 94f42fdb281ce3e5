// Shared pieces of the benchmark: seeded input generation, clocks, the
// per-client result record, /proc readers and the span tracer.
//
// Everything here is the benchmark's own code. It calls the engine only
// through its public API (DB, Transaction, Session), so each call into a
// layer can be timed from outside the engine.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/db/db.h"
#include "src/db/session.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Seed of one input stream, derived from the run seed and a stream id so
/// streams are independent and each is fixed by the run seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Zipf-distributed ranks in [0, n) (Gray et al.'s generator, as in YCSB),
/// mapped through a seeded permutation so the hot keys are scattered over
/// the key space instead of sitting in its first pages.
class Zipf {
 public:
  Zipf(uint64_t n, double theta, uint64_t seed);
  uint64_t Next(Rng* rng) const;

 private:
  uint64_t n_;
  double zetan_, alpha_, eta_, half_pow_theta_;
  std::vector<uint32_t> perm_;
};

/// One generated transaction input. Each workload gives the fields its
/// own meaning; a retried attempt reuses the same Op.
struct Op {
  uint8_t program = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  int64_t amount = 0;
  bool operator==(const Op&) const = default;
};

/// What a committed attempt did, for the correctness bookkeeping.
struct Effect {
  int64_t delta = 0;     ///< Change to a conserved total.
  uint32_t key = 0;      ///< Row the program updated.
  bool updated = false;  ///< The program wrote `key`.
  bool bad_read = false; ///< A read returned a value that fails validation.
};

/// The measurement window is cut into this many slices. Commits and
/// latencies are kept per slice; the end-to-end rate and quantiles are the
/// medians over slices, so a host stall confined to a few slices does not
/// set them.
constexpr size_t kWindowSlices = 20;

/// Latencies of one client and one transaction class over the window, per
/// slice, each slice in a fixed-capacity reservoir. The storage is
/// allocated and written up front, so the benchmark's own memory (which
/// peak_rss_mb includes) does not grow with the engine's throughput. Past
/// capacity a slice keeps a uniform random subset of its samples.
class SampleSet {
 public:
  static constexpr size_t kCapacity = 1 << 13;  ///< Per slice.

  SampleSet() : buf_(kCapacity * kWindowSlices) {}

  void Add(size_t slice, uint64_t latency_ns) {
    const uint64_t n = seen_[slice]++;
    const uint64_t j = n < kCapacity ? n : rng_.Uniform(n + 1);
    if (j < kCapacity) buf_[slice * kCapacity + j] = latency_ns;
  }
  /// Samples added to `slice` (stored or not).
  uint64_t seen(size_t slice) const { return seen_[slice]; }
  /// The stored samples of `slice`.
  std::span<const uint64_t> stored(size_t slice) const {
    return {buf_.data() + slice * kCapacity,
            std::min<uint64_t>(seen_[slice], kCapacity)};
  }

 private:
  std::vector<uint64_t> buf_;
  std::array<uint64_t, kWindowSlices> seen_{};
  Rng rng_{0x5EED};
};

/// Results of one client thread. Latencies are per logical transaction,
/// from its first Begin to its successful commit (retries included), and
/// only for transactions that completed inside the measurement window.
struct ClientStats {
  uint64_t commits = 0;   ///< Logical transactions committed in window.
  uint64_t attempts = 0;  ///< Attempts that ended in window.
  uint64_t aborts = 0;    ///< Aborted attempts in window.
  uint64_t failed = 0;    ///< Logical transactions that hit a hard error.
  uint64_t wasted_ns = 0; ///< Time spent in aborted attempts, in window.
  uint64_t redrives = 0;        ///< Liveness re-drives of the pipeline.
  uint64_t useful_redrives = 0; ///< Re-drives that delivered an ack.
  uint64_t bad_reads = 0;       ///< Reads that failed validation.
  SampleSet ro;  ///< Read-only transactions.
  SampleSet rw;  ///< Writing transactions.
  std::array<uint64_t, kWindowSlices> slice_commits{};
  std::string error;  ///< First hard error, with the workload named.
};

/// Peak resident set (VmHWM) in bytes, 0 if unavailable.
uint64_t PeakRssBytes();
/// Restart VmHWM from the current resident set (/proc/self/clear_refs);
/// without kernel support the peak keeps covering the whole process life.
void ResetPeakRss();
/// write_bytes from /proc/self/io, 0 if unavailable.
uint64_t ProcWriteBytes();

/// Value at quantile q of `v` (sorts a copy's prefix in place); 0 if empty.
double Quantile(std::vector<uint64_t>* v, double q);
double Median(std::vector<double> v);
/// The p-th percentile of `v`, interpolated between neighbours (p in [0,1],
/// Median == Percentile(v, 0.5)); 0 if empty.
double Percentile(std::vector<double> v, double p);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

enum SpanName : uint8_t {
  kSpanTxn,           ///< Logical transaction, first Begin to ack.
  kSpanAttempt,       ///< One attempt (retries are sibling attempts).
  kSpanOpen,          ///< DB::Open.
  kSpanBegin,
  kSpanGet,
  kSpanGetForUpdate,
  kSpanPut,
  kSpanScan,          ///< Self time excludes the benchmark's callback.
  kSpanCommit,        ///< Blocking Transaction::Commit.
  kSpanCommitSubmit,  ///< Session::CommitAsync until it returns.
  kSpanAckWait,       ///< Submit return until the ack callback ran.
  kSpanCount,
};
const char* SpanNameString(SpanName n);

struct Span {
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t child_ns = 0;  ///< Part of the interval covered by children.
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t txn = 0;
  uint32_t items = 0;  ///< Rows a scan visited.
  SpanName name = kSpanTxn;
  bool aborted = false;
};

/// Per-thread span buffer. Spans stay in memory until the run ends; the
/// reducer turns them into per-name self-time distributions. A thread owns
/// its tracer, so recording takes no lock.
class Tracer {
 public:
  explicit Tracer(uint32_t thread_index)
      : next_id_((thread_index + 1) << 26) {}
  uint32_t NewId() { return next_id_++; }
  void Record(SpanName name, uint32_t id, uint32_t parent, uint32_t txn,
              uint64_t start, uint64_t end, uint64_t child_ns = 0,
              bool aborted = false, uint32_t items = 0) {
    spans_.push_back(Span{start, end - start, child_ns, id, parent, txn,
                          items, name, aborted});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t next_id_;
  std::vector<Span> spans_;
};

/// Where the spans of one attempt go (a null tracer records nothing).
struct SpanCtx {
  Tracer* tracer = nullptr;
  uint32_t txn = 0;
  uint32_t attempt = 0;
};

/// The calls a transaction program makes, against either a Transaction or
/// a Session handle, each wrapped in a span when tracing.
class Exec {
 public:
  Exec(ssidb::Transaction* txn, SpanCtx ctx) : txn_(txn), ctx_(ctx) {}
  Exec(ssidb::Session* session, ssidb::TxnHandle handle, SpanCtx ctx)
      : session_(session), handle_(handle), ctx_(ctx) {}

  ssidb::Status Get(ssidb::TableId t, ssidb::Slice key, std::string* value);
  ssidb::Status GetForUpdate(ssidb::TableId t, ssidb::Slice key,
                             std::string* value);
  ssidb::Status Put(ssidb::TableId t, ssidb::Slice key, ssidb::Slice value);
  ssidb::Status Scan(ssidb::TableId t, ssidb::Slice lo, ssidb::Slice hi,
                     const ssidb::ScanCallback& fn);

 private:
  template <class F>
  ssidb::Status Timed(SpanName name, F&& call) {
    if (ctx_.tracer == nullptr) return call();
    const uint64_t t0 = NowNs();
    ssidb::Status s = call();
    ctx_.tracer->Record(name, ctx_.tracer->NewId(), ctx_.attempt, ctx_.txn,
                        t0, NowNs());
    return s;
  }

  ssidb::Transaction* txn_ = nullptr;
  ssidb::Session* session_ = nullptr;
  ssidb::TxnHandle handle_ = 0;
  SpanCtx ctx_;
};

/// Open a DB inside a span when tracing.
ssidb::Status TimedOpen(const ssidb::DBOptions& options,
                        std::unique_ptr<ssidb::DB>* db, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
