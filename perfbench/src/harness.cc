#include "harness.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include <malloc.h>

#include "src/sgt/mvsg.h"

namespace perfbench {

namespace fs = std::filesystem;
using ssidb::DB;
using ssidb::DBOptions;
using ssidb::Status;

namespace {

/// The measurement window: transactions completing inside it count.
struct Window {
  std::atomic<uint64_t> start_ns{UINT64_MAX};
  std::atomic<uint64_t> end_ns{UINT64_MAX};
  /// Planned length, which cuts the window into kWindowSlices.
  uint64_t length_ns = 1;
  bool In(uint64_t t) const {
    return t >= start_ns.load(std::memory_order_relaxed) &&
           t < end_ns.load(std::memory_order_relaxed);
  }
  /// Slice of a time inside the window.
  size_t Slice(uint64_t t) const {
    const uint64_t off = t - start_ns.load(std::memory_order_relaxed);
    return std::min<size_t>(kWindowSlices - 1,
                            off * kWindowSlices / length_ns);
  }
};

struct ClientControl {
  std::atomic<bool> stop{false};
  Window window;
  /// Logical transactions per client before it stops; 0 = until `stop`.
  uint64_t max_txns = 0;
  /// Trace one logical transaction in this many (1 = all).
  uint32_t trace_every = 1;
};

/// Bounds of a measurement window.
struct Interval {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  double seconds() const { return double(end_ns - start_ns) / 1e9; }
};

/// An ack still missing after this long fails the run.
constexpr uint64_t kAckBoundNs = 10'000'000'000ull;
/// How long a pipelined client waits for an ack before re-driving.
constexpr auto kAckWait = std::chrono::milliseconds(10);

std::string Named(const Workload* w, const std::string& what) {
  return std::string(w->name()) + ": " + what;
}

/// Closed loop over Transaction handles: each logical transaction retries
/// with the same input until it commits.
void BlockingClient(Workload* w, DB* db, Rng rng, ClientControl* ctl,
                    ClientStats* st, Tracer* tr) {
  for (uint64_t n = 0; !ctl->stop.load(std::memory_order_relaxed) &&
                       (ctl->max_txns == 0 || n < ctl->max_txns);
       ++n) {
    const Op op = w->NextOp(&rng);
    Tracer* t = (tr != nullptr && n % ctl->trace_every == 0) ? tr : nullptr;
    const uint32_t txn_span = t != nullptr ? t->NewId() : 0;
    const uint64_t t_begin = NowNs();
    Effect e;
    Status s;
    for (;;) {
      SpanCtx ctx{t, txn_span, t != nullptr ? t->NewId() : 0};
      const uint64_t a0 = NowNs();
      auto txn = db->Begin();
      if (t != nullptr) {
        t->Record(kSpanBegin, t->NewId(), ctx.attempt, txn_span, a0, NowNs());
      }
      Exec x(txn.get(), ctx);
      e = Effect{};
      s = w->Execute(x, op, &e);
      if (s.ok()) {
        const uint64_t c0 = NowNs();
        s = txn->Commit();
        if (t != nullptr) {
          t->Record(kSpanCommit, t->NewId(), ctx.attempt, txn_span, c0,
                    NowNs());
        }
      }
      const uint64_t a1 = NowNs();
      if (t != nullptr) {
        t->Record(kSpanAttempt, ctx.attempt, txn_span, txn_span, a0, a1, 0,
                  !s.ok());
      }
      const bool in = ctl->window.In(a1);
      if (in) ++st->attempts;
      if (s.ok() || !s.IsAbort()) break;
      if (in) {
        ++st->aborts;
        st->wasted_ns += a1 - a0;
      }
    }
    if (!s.ok()) {
      ++st->failed;
      if (st->error.empty()) st->error = Named(w, s.ToString());
      return;
    }
    const uint64_t t_end = NowNs();
    w->OnCommitted(op, e);
    if (e.bad_read) ++st->bad_reads;
    if (t != nullptr) {
      t->Record(kSpanTxn, txn_span, 0, txn_span, t_begin, t_end);
    }
    if (ctl->window.In(t_end)) {
      const size_t slice = ctl->window.Slice(t_end);
      ++st->commits;
      ++st->slice_commits[slice];
      (w->ReadOnly(op) ? st->ro : st->rw).Add(slice, t_end - t_begin);
    }
  }
}

/// One logical transaction of a pipelined client, alive from its first
/// Begin until its commit is acknowledged.
struct InFlight {
  Op op;
  Effect effect;
  Tracer* tracer = nullptr;
  uint32_t txn_span = 0;
  uint32_t attempt_span = 0;
  uint64_t t_begin = 0;
  uint64_t attempt_start = 0;
  uint64_t submit_end = 0;
  // Written by the ack callback before it queues this record.
  uint64_t ack_ns = 0;
  Status ack;
};

/// Closed loop over one Session: up to pipeline_depth() logical
/// transactions in flight, each submitted with CommitAsync. The thread
/// waits on ack callbacks; when none arrives within kAckWait it re-drives
/// the commit pipeline (TxnManager::DriveCommitPipeline, the idle backstop
/// for async clients), and an ack missing past kAckBoundNs fails the run.
void PipelinedClient(Workload* w, DB* db, Rng rng, ClientControl* ctl,
                     ClientStats* st, Tracer* tr) {
  auto session = db->CreateSession();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<InFlight*> acked;  // Guarded by mu.
  const size_t depth = static_cast<size_t>(w->pipeline_depth());
  size_t inflight = 0;
  uint64_t started = 0;
  bool failing = false;

  auto fail = [&](const std::string& why) {
    ++st->failed;
    if (st->error.empty()) st->error = Named(w, why);
    failing = true;
  };

  // Run attempts of `f` until one is submitted; false on a hard error.
  auto submit = [&](InFlight* f) {
    Tracer* t = f->tracer;
    for (;;) {
      f->attempt_span = t != nullptr ? t->NewId() : 0;
      f->attempt_start = NowNs();
      const ssidb::TxnHandle h = session->Begin();
      if (t != nullptr) {
        t->Record(kSpanBegin, t->NewId(), f->attempt_span, f->txn_span,
                  f->attempt_start, NowNs());
      }
      Exec x(session.get(), h, SpanCtx{t, f->txn_span, f->attempt_span});
      f->effect = Effect{};
      Status s = w->Execute(x, f->op, &f->effect);
      if (s.ok()) {
        const uint64_t s0 = NowNs();
        session->CommitAsync(h, [&mu, &cv, &acked, f](Status ack) {
          f->ack_ns = NowNs();
          f->ack = std::move(ack);
          {
            std::lock_guard<std::mutex> g(mu);
            acked.push_back(f);
          }
          cv.notify_one();
        });
        const uint64_t s1 = NowNs();
        // An ack may already be queued (read-only and abort verdicts are
        // acknowledged inline); submit_end is only read by this thread.
        f->submit_end = s1;
        if (t != nullptr) {
          t->Record(kSpanCommitSubmit, t->NewId(), f->attempt_span,
                    f->txn_span, s0, s1);
        }
        return true;
      }
      const uint64_t a1 = NowNs();
      if (t != nullptr) {
        t->Record(kSpanAttempt, f->attempt_span, f->txn_span, f->txn_span,
                  f->attempt_start, a1, 0, true);
      }
      const bool in = ctl->window.In(a1);
      if (in) ++st->attempts;
      if (!s.IsAbort()) {
        session->Abort(h);
        fail(s.ToString());
        return false;
      }
      if (in) {
        ++st->aborts;
        st->wasted_ns += a1 - f->attempt_start;
      }
    }
  };

  uint64_t last_progress = NowNs();
  for (;;) {
    const bool draining = failing || ctl->stop.load(std::memory_order_relaxed) ||
                          (ctl->max_txns != 0 && started >= ctl->max_txns);
    while (!draining && inflight < depth &&
           (ctl->max_txns == 0 || started < ctl->max_txns)) {
      auto* f = new InFlight;
      f->op = w->NextOp(&rng);
      f->tracer =
          (tr != nullptr && started % ctl->trace_every == 0) ? tr : nullptr;
      f->txn_span = f->tracer != nullptr ? f->tracer->NewId() : 0;
      f->t_begin = NowNs();
      ++started;
      if (!submit(f)) {
        delete f;
        break;
      }
      ++inflight;
    }
    if (inflight == 0) {
      if (draining || failing) break;
      continue;
    }

    std::vector<InFlight*> got;
    {
      std::unique_lock<std::mutex> l(mu);
      if (!cv.wait_for(l, kAckWait, [&] { return !acked.empty(); })) {
        l.unlock();
        ++st->redrives;
        db->txn_manager()->DriveCommitPipeline();
        l.lock();
        if (!acked.empty()) {
          ++st->useful_redrives;
        } else if (NowNs() - last_progress > kAckBoundNs) {
          // Callbacks still reference this frame: the run cannot unwind.
          std::fprintf(stderr,
                       "%s: commit acknowledgment missing for over %llu s "
                       "with %zu commits in flight\n",
                       w->name(),
                       static_cast<unsigned long long>(kAckBoundNs / 1000000000),
                       inflight);
          std::fflush(stderr);
          std::_Exit(3);
        }
      }
      got.swap(acked);
    }
    if (!got.empty()) last_progress = NowNs();

    for (InFlight* f : got) {
      Tracer* t = f->tracer;
      const uint64_t a1 = f->ack_ns;
      if (t != nullptr) {
        t->Record(kSpanAckWait, t->NewId(), f->attempt_span, f->txn_span,
                  std::min(f->submit_end, a1), a1);
        t->Record(kSpanAttempt, f->attempt_span, f->txn_span, f->txn_span,
                  f->attempt_start, a1, 0, !f->ack.ok());
      }
      const bool in = ctl->window.In(a1);
      if (in) ++st->attempts;
      if (f->ack.ok()) {
        --inflight;
        w->OnCommitted(f->op, f->effect);
        if (f->effect.bad_read) ++st->bad_reads;
        if (t != nullptr) {
          t->Record(kSpanTxn, f->txn_span, 0, f->txn_span, f->t_begin, a1);
        }
        if (in) {
          const size_t slice = ctl->window.Slice(a1);
          ++st->commits;
          ++st->slice_commits[slice];
          (w->ReadOnly(f->op) ? st->ro : st->rw).Add(slice, a1 - f->t_begin);
        }
        delete f;
      } else if (f->ack.IsAbort()) {
        if (in) {
          ++st->aborts;
          st->wasted_ns += a1 - f->attempt_start;
        }
        if (!submit(f)) {
          --inflight;
          delete f;
        }
      } else {
        --inflight;
        fail("commit acknowledged with " + f->ack.ToString());
        delete f;
      }
    }
  }
}

Status OpenAndLoad(Workload* w, const DBOptions& o, std::unique_ptr<DB>* db) {
  Status s = DB::Open(o, db);
  return s.ok() ? w->Load(db->get()) : s;
}

/// Run `count` writing transactions of `w`'s stream one at a time.
Status RunSerialWrites(Workload* w, DB* db, uint64_t seed, uint64_t count) {
  Rng rng(seed);
  for (uint64_t n = 0; n < count;) {
    const Op op = w->NextOp(&rng);
    if (w->ReadOnly(op)) continue;
    ++n;
    for (;;) {
      auto txn = db->Begin();
      Exec x(txn.get(), SpanCtx{});
      Effect e;
      Status s = w->Execute(x, op, &e);
      if (s.ok()) s = txn->Commit();
      if (s.ok()) {
        w->OnCommitted(op, e);
        break;
      }
      if (!s.IsAbort()) return s;
    }
  }
  return Status::OK();
}

struct Registry {
  ssidb::obs::MetricsSnapshot before, after;

  uint64_t Counter(const std::string& name) const {
    return Find(after.counters, name) - Find(before.counters, name);
  }
  double Quantile(const std::string& name, double q) const {
    const auto* a = FindHist(after, name);
    const auto* b = FindHist(before, name);
    if (a == nullptr || b == nullptr) return 0;
    return static_cast<double>(a->Delta(*b).Quantile(q));
  }

 private:
  static uint64_t Find(const std::vector<std::pair<std::string, uint64_t>>& v,
                       const std::string& name) {
    for (const auto& [n, x] : v) {
      if (n == name) return x;
    }
    return 0;
  }
  static const ssidb::obs::HistogramSnapshot* FindHist(
      const ssidb::obs::MetricsSnapshot& s, const std::string& name) {
    for (const auto& [n, h] : s.histograms) {
      if (n == name) return &h;
    }
    return nullptr;
  }
};

/// Samples gauges while the traced window runs, keeping their peaks.
class GaugePeaks {
 public:
  explicit GaugePeaks(DB* db) : db_(db), thread_([this] { Loop(); }) {}
  ~GaugePeaks() { Stop(); }
  GaugePeaks(const GaugePeaks&) = delete;
  GaugePeaks& operator=(const GaugePeaks&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> g(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }
  uint64_t Peak(const std::string& name) const {
    auto it = peaks_.find(name);
    return it == peaks_.end() ? 0 : it->second;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> l(mu_);
    while (!stop_) {
      l.unlock();
      const auto snap = db_->metrics()->Collect();
      l.lock();
      for (const auto& [n, v] : snap.gauges) {
        peaks_[n] = std::max(peaks_[n], v);
      }
      cv_.wait_for(l, std::chrono::milliseconds(20), [&] { return stop_; });
    }
  }

  DB* const db_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;                      // Guarded by mu_.
  std::map<std::string, uint64_t> peaks_;  // Guarded by mu_ until joined.
  std::thread thread_;
};

/// Samples each weighted by the transactions it stands for.
using WeightedSamples = std::vector<std::pair<uint64_t, double>>;

/// The q-quantile of weighted samples; 0 if empty.
double WeightedQuantile(WeightedSamples v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double total = 0;
  for (const auto& [x, wt] : v) total += wt;
  double below = 0;
  for (const auto& [x, wt] : v) {
    below += wt;
    if (below >= q * total) return double(x);
  }
  return double(v.back().first);
}

/// Latency samples of one transaction class from every client, per window
/// slice, each weighted by the transactions it stands for (its client's
/// seen/stored in that slice).
struct Weighted {
  std::array<WeightedSamples, kWindowSlices> slices;
  uint64_t seen = 0;

  void Add(const SampleSet& s) {
    for (size_t i = 0; i < kWindowSlices; ++i) {
      const auto stored = s.stored(i);
      seen += s.seen(i);
      for (uint64_t v : stored) {
        slices[i].emplace_back(v, double(s.seen(i)) / double(stored.size()));
      }
    }
  }
  /// The median over the window's slices of each slice's q-quantile
  /// (slices without a sample skipped).
  double SliceMedian(double q) const {
    std::vector<double> per_slice;
    for (const auto& v : slices) {
      if (!v.empty()) per_slice.push_back(WeightedQuantile(v, q));
    }
    return Median(per_slice);
  }
  /// The q-quantile of every transaction of the class in the window.
  double Whole(double q) const {
    WeightedSamples all;
    for (const auto& v : slices) all.insert(all.end(), v.begin(), v.end());
    return WeightedQuantile(std::move(all), q);
  }
};

struct Totals {
  uint64_t commits = 0, attempts = 0, aborts = 0, failed = 0, wasted_ns = 0,
           redrives = 0, useful_redrives = 0, bad_reads = 0;
  Weighted ro, rw;
  std::array<uint64_t, kWindowSlices> slice_commits{};
  std::vector<std::string> errors;
};

Totals Sum(std::vector<ClientStats>* stats) {
  Totals t;
  for (ClientStats& s : *stats) {
    t.commits += s.commits;
    t.attempts += s.attempts;
    t.aborts += s.aborts;
    t.failed += s.failed;
    t.wasted_ns += s.wasted_ns;
    t.redrives += s.redrives;
    t.useful_redrives += s.useful_redrives;
    t.bad_reads += s.bad_reads;
    t.ro.Add(s.ro);
    t.rw.Add(s.rw);
    for (size_t i = 0; i < kWindowSlices; ++i) {
      t.slice_commits[i] += s.slice_commits[i];
    }
    if (!s.error.empty()) t.errors.push_back(s.error);
  }
  return t;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Commit rates of the window's slices.
std::vector<double> SliceRates(const Totals& t, const Interval& w) {
  std::vector<double> rates;
  for (uint64_t n : t.slice_commits) {
    rates.push_back(double(n) / (w.seconds() / kWindowSlices));
  }
  return rates;
}

/// How steady the host was: the spread of the slices' commit rates and
/// the whole-window figures beside the gated medians over slices.
std::string SliceNote(const Totals& t, const Interval& w) {
  const auto rates = SliceRates(t, w);
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "slice commit rates (1/s): min %.0f, median %.0f, max %.0f; "
                "whole window: %.0f commits/s, ro p50 %.1f p99 %.1f us, "
                "rw p50 %.1f p99 %.1f us",
                Percentile(rates, 0), Median(rates), Percentile(rates, 1),
                Ratio(double(t.commits), w.seconds()), t.ro.Whole(0.5) / 1e3,
                t.ro.Whole(0.99) / 1e3, t.rw.Whole(0.5) / 1e3,
                t.rw.Whole(0.99) / 1e3);
  return buf;
}

/// Self times (duration minus children) of every span named `name`.
std::vector<uint64_t> SelfTimes(const std::vector<Tracer>& tracers,
                                SpanName name, uint64_t* items = nullptr) {
  std::vector<uint64_t> v;
  for (const Tracer& t : tracers) {
    for (const Span& s : t.spans()) {
      if (s.name != name) continue;
      v.push_back(s.dur_ns - std::min(s.dur_ns, s.child_ns));
      if (items != nullptr) *items += s.items;
    }
  }
  return v;
}

void WriteSpans(const std::vector<Tracer>& tracers, const std::string& path) {
  constexpr size_t kMaxLines = 50000;
  std::ofstream out(path);
  out << "name\tid\tparent\ttxn\tstart_ns\tdur_ns\tchild_ns\titems\taborted\n";
  size_t lines = 0;
  for (const Tracer& t : tracers) {
    for (const Span& s : t.spans()) {
      if (++lines > kMaxLines) return;
      out << SpanNameString(s.name) << '\t' << s.id << '\t' << s.parent << '\t'
          << s.txn << '\t' << s.start_ns << '\t' << s.dur_ns << '\t'
          << s.child_ns << '\t' << s.items << '\t' << int(s.aborted) << '\n';
    }
  }
}

/// The traced run's scan probe, on the quiet database after the window:
/// the workload's scan query alternately at SI and at SSI.
struct ScanProbe {
  /// Spans of the SSI scans (self time excludes the benchmark's callback).
  std::vector<Tracer> tracers;
  /// Median SSI query time minus median SI query time, per row.
  double siread_ns_per_row = 0;
};

ScanProbe RunScanProbe(Workload* w, DB* db) {
  constexpr int kScans = 100;
  ScanProbe p;
  // Span ids apart from the clients' and the open spans'.
  p.tracers.emplace_back(w->clients() + 1);
  std::vector<double> si, ssi;
  uint64_t rows = 0;
  for (int i = 0; i < 2 * kScans; ++i) {
    const bool ssi_scan = i % 2 == 1;
    const auto iso = ssi_scan ? ssidb::IsolationLevel::kSerializableSSI
                              : ssidb::IsolationLevel::kSnapshot;
    const uint64_t t0 = NowNs();
    auto txn = db->Begin({.isolation = iso});
    Exec x(txn.get(), SpanCtx{ssi_scan ? &p.tracers[0] : nullptr});
    Status s = w->ScanQuery(x, &rows);
    if (s.ok()) s = txn->Commit();
    if (rows == 0) return p;
    (ssi_scan ? ssi : si).push_back(double(NowNs() - t0));
  }
  p.siread_ns_per_row = (Median(ssi) - Median(si)) / double(rows);
  return p;
}

/// Upper bound on set-up and reopen repetitions in one run.
constexpr int kMaxRepeats = 500;

/// Call `once` (which appends one duration to `*times`) at least
/// `min_count` times and until the calls total `min_seconds`; false as soon
/// as a call fails.
template <class F>
bool Repeat(std::vector<double>* times, int min_count, double min_seconds,
            F&& once) {
  double total = 0;
  for (int k = 0; k < kMaxRepeats && (k < min_count || total < min_seconds);
       ++k) {
    if (!once()) return false;
    total += times->back();
  }
  return true;
}

/// Seconds since `*since` as text; restarts the phase clock.
std::string Seconds(uint64_t& since) {
  const uint64_t now = NowNs();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f s", double(now - since) / 1e9);
  since = now;
  return buf;
}

/// Start `w->clients()` client threads on input streams `stream_base + c`,
/// run until they stop and join them. `tracers` (one per client) may be
/// null or empty for an untraced run.
std::vector<ClientStats> RunClients(Workload* w, DB* db, uint64_t seed,
                                    uint64_t stream_base, ClientControl* ctl,
                                    std::vector<Tracer>* tracers) {
  const int n = w->clients();
  std::vector<ClientStats> stats(n);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    Tracer* tr = (tracers != nullptr && !tracers->empty()) ? &(*tracers)[c]
                                                           : nullptr;
    Rng rng(StreamSeed(seed, stream_base + c));
    threads.emplace_back([=, &stats] {
      if (w->pipeline_depth() > 0) {
        PipelinedClient(w, db, rng, ctl, &stats[c], tr);
      } else {
        BlockingClient(w, db, rng, ctl, &stats[c], tr);
      }
    });
  }
  for (auto& t : threads) t.join();
  return stats;
}

/// Run clients over a timed window: `warmup` seconds unmeasured, then
/// `seconds` measured. `window` receives the measured interval.
std::vector<ClientStats> RunTimed(Workload* w, DB* db, uint64_t seed,
                                  uint64_t stream_base, double warmup,
                                  double seconds, std::vector<Tracer>* tracers,
                                  Interval* window) {
  ClientControl ctl;
  ctl.window.length_ns = std::max<uint64_t>(1, uint64_t(seconds * 1e9));
  std::thread timer([&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
    ctl.window.start_ns = NowNs();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    ctl.window.end_ns = NowNs();
    ctl.stop = true;
  });
  if (tracers != nullptr && !tracers->empty()) {
    // Trace a share of transactions that keeps the span buffers within a
    // few tens of MB.
    ctl.trace_every = 4;
  }
  auto stats = RunClients(w, db, seed, stream_base, &ctl, tracers);
  timer.join();
  *window = Interval{ctl.window.start_ns, ctl.window.end_ns};
  return stats;
}

/// The short untimed run with DBOptions::record_history on, over the
/// workload's hot set (Scale::kHot) and `txns_per_client` logical
/// transactions per client, on a write+fsync WAL (the workload's durable
/// options). Returns the failure, or "" with `note` saying "passed: ..."
/// when the committed history is acyclic or "skipped: ..." when the engine
/// recorded none. Either way the database is then reopened and must hold
/// every acknowledged write.
std::string SerializabilityCheck(const RunConfig& cfg,
                                 uint64_t txns_per_client, std::string* note) {
  auto w = MakeWorkload(cfg.workload, cfg.seed, Scale::kHot);
  const std::string dir = cfg.work_dir + "/history";
  fs::create_directories(dir);
  DBOptions o = w->DurableOptions(dir);
  o.record_history = true;
  std::unique_ptr<DB> db;
  Status s = OpenAndLoad(w.get(), o, &db);
  if (!s.ok()) return Named(w.get(), "history run set-up: " + s.ToString());
  ClientControl ctl;
  ctl.max_txns = txns_per_client;
  auto stats = RunClients(w.get(), db.get(), cfg.seed, 1000, &ctl, nullptr);
  Totals t = Sum(&stats);
  if (!t.errors.empty()) return t.errors[0];
  std::string check = w->Check(db.get());
  if (!check.empty()) return check;
  if (db->history() == nullptr) {
    *note = "skipped: the engine recorded no history";
  } else {
    const auto result = ssidb::sgt::AnalyzeHistory(db->history()->Snapshot());
    if (result.committed_txns == 0) {
      return Named(w.get(), "history holds no committed transaction");
    }
    if (!result.serializable) {
      std::string cycle;
      for (auto id : result.cycle) cycle += " " + std::to_string(id);
      return Named(w.get(), "committed SSI history has a cycle:" + cycle);
    }
    *note = "passed: " + std::to_string(result.committed_txns) +
            " committed transactions, serialization graph acyclic";
  }
  db.reset();
  s = DB::Open(w->DurableOptions(dir), &db);
  if (s.ok()) s = w->Bind(db.get());
  check = s.ok() ? w->Check(db.get())
                 : Named(w.get(), "history run reopen: " + s.ToString());
  if (!check.empty()) return check + " (after reopen)";
  *note += "; acknowledged writes survived reopen";
  return "";
}

/// How much a run repeats and warms up; fixed, smaller for `tiny`.
struct Effort {
  double warmup_s;
  /// Set-up and image reopen each repeat at least `repeats` times and for
  /// at least `repeat_s` in all; their medians are reported.
  int repeats;
  double repeat_s;
  /// Logical transactions per client in the history-checked run.
  uint64_t history_txns;
};

Effort EffortFor(bool tiny) {
  return tiny ? Effort{0.1, 1, 0, 20} : Effort{1.0, 10, 4.0, 10000};
}

}  // namespace

RunResult Run(const RunConfig& cfg) {
  RunResult r;
  auto fail = [&](const std::string& why) {
    r.correct = false;
    r.notes.push_back("FAILED " + why);
  };
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    r.metrics.push_back(Metric{name, value, unit});
  };

  const Scale scale = cfg.tiny ? Scale::kTiny : Scale::kFull;
  const Effort effort = EffortFor(cfg.tiny);
  auto w = MakeWorkload(cfg.workload, cfg.seed, scale);
  if (w == nullptr) {
    fail("unknown workload " + cfg.workload);
    return r;
  }
  fs::remove_all(cfg.work_dir);
  fs::create_directories(cfg.work_dir);
  std::string phases = "phases: ";
  uint64_t phase_start = NowNs();

  // The durable image whose reopen recover_s times, fixed by the seed:
  // load, writes, one checkpoint, more writes. Its own workload instance
  // keeps its expectations apart from the measured database's.
  auto wi = MakeWorkload(cfg.workload, cfg.seed, scale);
  const std::string image = cfg.work_dir + "/image";
  uint64_t ckpt_bytes = 0, ckpt_taken = 0;
  {
    fs::create_directories(image);
    DBOptions o = wi->DurableOptions(image);
    // Neither waiting for flushes nor fsync changes what the image holds
    // (closing the DB drains the log); both only slow the build.
    o.log.flush_on_commit = false;
    o.log.wal_fsync = false;
    std::unique_ptr<DB> idb;
    const uint64_t stream = StreamSeed(cfg.seed, 1u << 30);
    const uint64_t scale = cfg.tiny ? 100 : 1;
    Status s = OpenAndLoad(wi.get(), o, &idb);
    if (s.ok()) {
      s = RunSerialWrites(wi.get(), idb.get(), stream,
                          wi->image_txns_before_checkpoint() / scale);
    }
    if (s.ok()) s = idb->Checkpoint();
    if (s.ok()) {
      s = RunSerialWrites(wi.get(), idb.get(), stream + 1,
                          wi->image_txns_after_checkpoint() / scale);
    }
    if (s.ok()) {
      ckpt_bytes = idb->checkpoint_bytes_written();
      ckpt_taken = idb->checkpoints_taken();
    }
    if (!s.ok()) {
      fail(Named(wi.get(), "durable image: " + s.ToString()));
      return r;
    }
  }
  phases += "image " + Seconds(phase_start);

  // The measured database's options. The traced run has the engine time
  // every commit's stages and every read (metrics_sample_period 1): at the
  // default period a client whose transactions each make one read and one
  // commit advances the engine's per-thread sample tick twice per
  // transaction, so its commits are never the sampled ones.
  auto options = [&](const std::string& dir) {
    DBOptions o = w->Options(dir);
    if (cfg.trace) o.metrics_sample_period = 1;
    return o;
  };

  // Set-up (open + load) and image reopens are sampled in two batches,
  // before and after the window, so their medians span the run instead of
  // one moment of it. Each batch repeats at least half of effort.repeats
  // times and for half of effort.repeat_s.
  std::vector<double> setup_s, reopen_s;
  uint64_t records_replayed = 0;
  Tracer open_tracer(w->clients());
  auto set_up = [&](std::unique_ptr<DB>* out, std::string* dir) {
    *dir = cfg.work_dir + "/db-" + std::to_string(setup_s.size());
    fs::create_directories(*dir);
    const uint64_t t0 = NowNs();
    Status s = OpenAndLoad(w.get(), options(*dir), out);
    setup_s.push_back(double(NowNs() - t0) / 1e9);
    if (!s.ok()) fail(Named(w.get(), "set-up: " + s.ToString()));
    return s.ok();
  };
  auto reopen = [&] {
    const std::string copy = image + "-" + std::to_string(reopen_s.size());
    fs::copy(image, copy, fs::copy_options::recursive);
    std::unique_ptr<DB> idb;
    const uint64_t t0 = NowNs();
    Status s = TimedOpen(wi->DurableOptions(copy), &idb,
                         cfg.trace ? &open_tracer : nullptr);
    reopen_s.push_back(double(NowNs() - t0) / 1e9);
    if (s.ok() && reopen_s.size() == 1) {
      records_replayed = idb->recovery_stats().commit_records_applied;
      s = wi->Bind(idb.get());
      const std::string c =
          s.ok() ? wi->Check(idb.get()) : Named(wi.get(), s.ToString());
      if (!c.empty()) fail(c + " (durable image after reopen)");
    }
    if (!s.ok()) fail(Named(wi.get(), "image reopen: " + s.ToString()));
    idb.reset();
    fs::remove_all(copy);
    return s.ok();
  };
  const int repeats = (effort.repeats + 1) / 2;
  const double repeat_s = effort.repeat_s / 2;

  std::unique_ptr<DB> db;  // The last set-up of the first batch: measured.
  std::string db_dir;
  bool ok = Repeat(&setup_s, repeats, repeat_s, [&] {
    db.reset();
    if (!db_dir.empty()) fs::remove_all(db_dir);
    return set_up(&db, &db_dir);
  });
  ok = ok && Repeat(&reopen_s, repeats, repeat_s, reopen);
  if (!ok) return r;
  phases += ", set-up x" + std::to_string(setup_s.size()) + " + reopen x" +
            std::to_string(reopen_s.size()) + " " + Seconds(phase_start);

  // The measured window(s).
  std::vector<ClientStats> stats;
  Interval window;
  double untraced_cps = 0;
  std::vector<Tracer> tracers;
  Registry reg;
  uint64_t grants_peak = 0, suspended_peak = 0;
  uint64_t write_bytes = 0;
  // peak_rss_mb is the window's peak: return freed set-up memory to the
  // system and restart the kernel's high-water mark (where supported).
  malloc_trim(0);
  ResetPeakRss();
  if (!cfg.trace) {
    stats = RunTimed(w.get(), db.get(), cfg.seed, 0, effort.warmup_s,
                     cfg.seconds, nullptr, &window);
  } else {
    // Untraced first half, then the traced second half on the same
    // database; their throughput ratio is the tracing overhead.
    Interval untraced_window;
    auto untraced = RunTimed(w.get(), db.get(), cfg.seed, 0,
                             effort.warmup_s, cfg.seconds / 2, nullptr,
                             &untraced_window);
    Totals u = Sum(&untraced);
    untraced_cps = Ratio(double(u.commits), untraced_window.seconds());
    for (const auto& e : u.errors) fail(e);
    for (int c = 0; c < w->clients(); ++c) tracers.emplace_back(c);
    reg.before = db->metrics()->Collect();
    const uint64_t wb0 = ProcWriteBytes();
    {
      GaugePeaks peaks(db.get());
      stats = RunTimed(w.get(), db.get(), cfg.seed, 100, 0, cfg.seconds / 2,
                       &tracers, &window);
      peaks.Stop();
      grants_peak = peaks.Peak("lock.grants");
      suspended_peak = peaks.Peak("engine.suspended_txns");
    }
    write_bytes = ProcWriteBytes() - wb0;
    reg.after = db->metrics()->Collect();
  }
  const double peak_rss_mb = double(PeakRssBytes()) / double(1 << 20);
  const double window_s = window.seconds();
  phases += ", clients " + Seconds(phase_start);
  Totals t = Sum(&stats);
  r.attempted = t.commits + t.failed;
  r.failed = t.failed;
  for (const auto& e : t.errors) fail(e);
  if (t.bad_reads > 0) {
    fail(Named(w.get(), std::to_string(t.bad_reads) +
                            " reads returned a value that fails validation"));
  }
  if (t.commits == 0) fail(Named(w.get(), "no transaction committed"));

  // Correctness of the measured database.
  const std::string check = w->Check(db.get());
  if (!check.empty()) fail(check);
  ScanProbe probe;
  if (cfg.trace && db != nullptr) probe = RunScanProbe(w.get(), db.get());
  db.reset();
  fs::remove_all(db_dir);
  phases += ", checks " + Seconds(phase_start);

  // Second batch of set-ups (each discarded) and reopens.
  Repeat(&setup_s, repeats, repeat_s, [&] {
    std::unique_ptr<DB> extra;
    std::string dir;
    const bool done = set_up(&extra, &dir);
    extra.reset();
    fs::remove_all(dir);
    return done;
  });
  Repeat(&reopen_s, repeats, repeat_s, reopen);
  fs::remove_all(image);
  phases += ", set-up + reopen " + Seconds(phase_start);

  std::string note;
  const std::string ser =
      SerializabilityCheck(cfg, effort.history_txns, &note);
  phases += ", history check " + Seconds(phase_start);
  r.notes.push_back(phases);
  if (!ser.empty()) {
    fail("serializability: " + ser);
  } else {
    r.notes.push_back("serializability " + cfg.workload + ": " + note);
  }
  fs::remove_all(cfg.work_dir);

  if (!cfg.trace) {
    add("commits_per_s", Median(SliceRates(t, window)), "1/s");
    add("attempts_per_commit", Ratio(double(t.attempts), double(t.commits)),
        "count");
    add("ro_p50_us", t.ro.SliceMedian(0.50) / 1e3, "us");
    add("ro_p99_us", t.ro.SliceMedian(0.99) / 1e3, "us");
    add("rw_p50_us", t.rw.SliceMedian(0.50) / 1e3, "us");
    add("rw_p99_us", t.rw.SliceMedian(0.99) / 1e3, "us");
    add("setup_s", Median(setup_s), "s");
    add("peak_rss_mb", peak_rss_mb, "MB");
    add("recover_s", Median(reopen_s), "s");
    r.notes.push_back(
        "samples: " + std::to_string(t.ro.seen) + " read-only, " +
        std::to_string(t.rw.seen) + " writing transactions over " +
        std::to_string(window_s) + " s");
    r.notes.push_back(SliceNote(t, window));
    return r;
  }

  const double commits = double(t.commits);
  const double attempts = double(t.attempts);
  const double traced_cps = Ratio(commits, window_s);
  auto span_q = [&](SpanName n, double q) {
    auto v = SelfTimes(tracers, n);
    return Quantile(&v, q) / 1e3;
  };
  uint64_t rows_scanned = 0;
  auto scan_self = SelfTimes(probe.tracers, kSpanScan, &rows_scanned);
  double scan_self_sum = 0;
  for (uint64_t v : scan_self) scan_self_sum += double(v);

  add("span.scan_self.p50_us", Quantile(&scan_self, 0.50) / 1e3, "us");
  add("span.scan_self.p99_us", Quantile(&scan_self, 0.99) / 1e3, "us");
  add("scan.ns_per_row", Ratio(scan_self_sum, double(rows_scanned)), "ns");
  add("span.get.p50_us", span_q(kSpanGet, 0.50), "us");
  add("span.get.p99_us", span_q(kSpanGet, 0.99), "us");
  add("span.begin.p50_us", span_q(kSpanBegin, 0.50), "us");

  add("lock.siread_ns_per_row", probe.siread_ns_per_row, "ns");
  add("lock.grants_peak", double(grants_peak), "count");
  add("lock.waits_per_commit", Ratio(double(reg.Counter("lock.waits")), commits),
      "count");
  add("lock.deadlocks", double(reg.Counter("lock.deadlocks")), "count");

  add("abort_ratio", Ratio(double(t.aborts), attempts), "ratio");
  add("ssi.unsafe_per_attempt",
      Ratio(double(reg.Counter("ssi.unsafe_aborts")), attempts), "ratio");
  for (size_t i = 1; i < ssidb::kAbortReasonCount; ++i) {
    const std::string reason =
        ssidb::AbortReasonName(static_cast<ssidb::AbortReason>(i));
    add("abort." + reason + "_per_attempt",
        Ratio(double(reg.Counter("abort." + reason)), attempts), "ratio");
  }
  add("ssi.wasted_us_per_commit", Ratio(double(t.wasted_ns) / 1e3, commits),
      "us");
  add("engine.suspended_txns_peak", double(suspended_peak), "count");

  add("span.commit.p50_us", span_q(kSpanCommit, 0.50), "us");
  add("span.commit.p99_us", span_q(kSpanCommit, 0.99), "us");
  add("span.commit_submit.p50_us", span_q(kSpanCommitSubmit, 0.50), "us");
  add("span.ack_wait.p50_us", span_q(kSpanAckWait, 0.50), "us");
  add("span.ack_wait.p99_us", span_q(kSpanAckWait, 0.99), "us");
  add("commit.fastpath_share",
      Ratio(double(reg.Counter("commit.fastpath")), commits), "ratio");
  add("commit.combine_mean_batch",
      Ratio(double(reg.Counter("commit.combined_txns")),
            double(reg.Counter("commit.combine_batches"))),
      "count");
  add("commit.waits_per_commit",
      Ratio(double(reg.Counter("commit.waits")), commits), "count");
  add("commit.ring_full_stalls", double(reg.Counter("commit.ring_full_stalls")),
      "count");
  add("commit.certify_ns.p50", reg.Quantile("commit.certify_ns", 0.50), "ns");
  add("commit.watermark_ns.p50", reg.Quantile("commit.watermark_ns", 0.50),
      "ns");
  add("commit.ack_lag_ns.p99", reg.Quantile("commit.ack_lag_ns", 0.99), "ns");

  add("log.mean_flush_batch",
      Ratio(double(reg.Counter("log.records")),
            double(reg.Counter("log.flush_batches"))),
      "count");
  add("log.flush_batch_ns.p50", reg.Quantile("log.flush_batch_ns", 0.50), "ns");
  add("commit.wal_append_ns.p50", reg.Quantile("commit.wal_append_ns", 0.50),
      "ns");
  add("commit.fsync_wait_ns.p50", reg.Quantile("commit.fsync_wait_ns", 0.50),
      "ns");
  add("io.write_bytes_per_commit", Ratio(double(write_bytes), commits), "B");

  const double hits = double(reg.Counter("pool.hits"));
  const double misses = double(reg.Counter("pool.misses"));
  add("pool.hit_ratio", Ratio(hits, hits + misses), "ratio");
  add("pool.misses_per_s", Ratio(misses, window_s), "1/s");
  add("pool.evictions_per_s",
      Ratio(double(reg.Counter("pool.evictions")), window_s), "1/s");
  add("pool.read_io_ns.p50", reg.Quantile("pool.read_io_ns", 0.50), "ns");
  add("tier.faulted_per_s",
      Ratio(double(reg.Counter("tier.faulted_chains")), window_s), "1/s");
  add("tier.spilled_per_s",
      Ratio(double(reg.Counter("tier.spilled_chains")), window_s), "1/s");
  add("read.fault_ns.p50", reg.Quantile("read.fault_ns", 0.50), "ns");
  add("read.hit_ns.p50", reg.Quantile("read.hit_ns", 0.50), "ns");
  add("gc.versions_pruned_per_s",
      Ratio(double(reg.Counter("gc.versions_pruned")), window_s), "1/s");

  std::vector<double> open_spans;
  for (const Span& s : open_tracer.spans()) {
    open_spans.push_back(double(s.dur_ns) / 1e9);
  }
  const double reopen_span_s = Median(open_spans);
  add("span.reopen_s", reopen_span_s, "s");
  add("recovery.records_replayed", double(records_replayed), "count");
  add("recovery.us_per_record",
      Ratio(reopen_span_s * 1e6, double(records_replayed)), "us");
  add("ckpt.bytes_written", double(ckpt_bytes), "B");
  add("ckpt.taken", double(ckpt_taken), "count");

  add("driver.redrives", double(t.redrives), "count");
  add("driver.useful_redrives", double(t.useful_redrives), "count");
  add("trace.overhead_ratio", Ratio(untraced_cps, traced_cps), "ratio");

  if (!cfg.span_file.empty()) {
    tracers.push_back(std::move(open_tracer));
    for (Tracer& t : probe.tracers) tracers.push_back(std::move(t));
    WriteSpans(tracers, cfg.span_file);
  }
  return r;
}

}  // namespace perfbench
