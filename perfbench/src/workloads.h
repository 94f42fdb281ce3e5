// The benchmark's workloads, each with its own transaction programs,
// seeded inputs and correctness check.
//
//   smallbank-pipelined  SmallBank's five programs on Zipf(0.8) customers,
//                        pipelined CommitAsync clients, every commit
//                        acknowledged by the group-commit flusher: write
//                        skew and the CPU-side commit path.
//   kv-past-ram          1 KiB values, dataset 4x the buffer pool, Zipf(0.9)
//                        90% Get / 10% GetForUpdate+Put: the storage tier.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Client threads (closed loop) and, for Session clients, the commits
  /// each keeps in flight through CommitAsync (0 = blocking Commit).
  virtual int clients() const = 0;
  virtual int pipeline_depth() const { return 0; }
  /// Engine options for the timed database rooted at `dir`.
  virtual ssidb::DBOptions Options(const std::string& dir) const = 0;
  /// Options for the fixed durable image whose reopen recover_s times:
  /// the timed options plus a write+fsync WAL under `dir`.
  ssidb::DBOptions DurableOptions(const std::string& dir) const;

  /// Create the tables and load the initial rows (fixed by the seed), and
  /// reset the expectations the check compares against.
  virtual ssidb::Status Load(ssidb::DB* db) = 0;
  /// Rebind table ids after a reopen.
  virtual ssidb::Status Bind(ssidb::DB* db) = 0;

  /// The next input of a client stream.
  virtual Op NextOp(Rng* rng) const = 0;
  virtual bool ReadOnly(const Op& op) const = 0;
  /// One attempt's reads and writes (Begin and Commit are the caller's).
  virtual ssidb::Status Execute(Exec& x, const Op& op,
                                Effect* effect) const = 0;
  /// Account an acknowledged commit. Thread-safe.
  virtual void OnCommitted(const Op& op, const Effect& effect) = 0;
  /// Compare the database with every acknowledged commit so far; returns
  /// "" when it holds, else what failed.
  virtual std::string Check(ssidb::DB* db) = 0;

  /// A read-only query over whole tables, which the traced run times at
  /// SI and at SSI on the quiet database after its window (the scan path
  /// and its SIREAD cost per row). Sets `*rows` to the rows visited; 0
  /// means the workload has no such query.
  virtual ssidb::Status ScanQuery(Exec&, uint64_t* rows) const {
    *rows = 0;
    return ssidb::Status::OK();
  }

  /// Writing transactions in the durable image before and after its
  /// checkpoint.
  virtual uint64_t image_txns_before_checkpoint() const = 0;
  virtual uint64_t image_txns_after_checkpoint() const = 0;
};

/// Names accepted by MakeWorkload, in run order.
const std::vector<std::string>& WorkloadNames();

/// Sizes of a workload: kFull for the timed runs, kTiny for the
/// benchmark's own tests, kHot for the history-checked run. kHot is the
/// tiny size except on SmallBank, where a handful of customers lets SI's
/// read-only anomaly (Balance between WriteCheck and TransactSaving on one
/// customer) form, so the history check can catch an engine that lets it
/// commit.
enum class Scale { kFull, kTiny, kHot };

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Scale scale = Scale::kFull);

// The checks, with the expected values explicit so tests can feed them a
// deliberately wrong one.

/// SmallBank: savings plus checking over all customers equals `expected`.
std::string CheckSmallbank(ssidb::DB* db, ssidb::TableId saving,
                           ssidb::TableId checking, uint64_t customers,
                           int64_t expected_total);
/// kv: every row carries its own key id and an update counter equal to its
/// acked updates (expected_updates[key]).
std::string CheckKv(ssidb::DB* db, ssidb::TableId table,
                    const std::vector<uint64_t>& expected_updates);

/// Fixed-width key text shared by every workload ("%08u").
std::string KeyOf(uint64_t id);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
