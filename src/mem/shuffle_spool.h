#ifndef MRTHETA_MEM_SHUFFLE_SPOOL_H_
#define MRTHETA_MEM_SHUFFLE_SPOOL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/mapreduce/job.h"
#include "src/mem/memory_budget.h"
#include "src/mem/spill.h"

namespace mrtheta {

/// \brief Budget-aware shuffle partitions: per-reduce-task record buckets
/// that spill sorted runs to one shared file when the memory budget is
/// exceeded, merged back per task with a k-way external merge
/// (docs/MEMORY.md).
///
/// Usage mirrors the shuffle of the parallel runner:
///  1. Append(task, rec) from the *sequential* merge walk — appends are
///     single-threaded, in emit order, and may spill the largest bucket;
///  2. FinishWrites() once, before the reduce phase;
///  3. MaterializeTask(t) from concurrent reduce workers — non-destructive
///     (a retried attempt re-materializes the same records) and
///     thread-safe for distinct tasks, each merge reading the shared file
///     through its own handles;
///  4. ReleaseTask(t) from the task's commit, freeing the bucket.
///
/// Spilled runs are sorted by (key, tag, row) — RunReduceTask's exact
/// comparator — so a merged task is already sorted and the reduce-side
/// sort is skipped. Determinism: records tying on the full comparator are
/// identical by the emit contract, so run/merge boundaries cannot perturb
/// the reduced sequence; outputs are byte-identical with or without
/// spilling.
///
/// Bucket memory is tracked against MemoryBudget::Global() (exact chunk
/// capacities, not pages: shuffle partitions are many and small, and page
/// rounding would defeat tight budgets). A bucket grows in small fixed
/// chunks rather than by doubling one vector, so its slack stays under one
/// chunk and growing it never copies records: while the map output drains
/// into the spool, the two together hold little more than one copy of it.
/// The spool's spill file is removed by its destructor; the per-execution
/// SpillDirectory sweeps whatever an abandoned process state leaves behind.
class ShuffleSpool {
 public:
  /// `dir` is not owned and may be null (spilling disarmed);
  /// `spill_limit_bytes` <= 0 also disarms spilling.
  ShuffleSpool(int num_tasks, int64_t spill_limit_bytes, SpillDirectory* dir);
  ShuffleSpool(const ShuffleSpool&) = delete;
  ShuffleSpool& operator=(const ShuffleSpool&) = delete;
  ~ShuffleSpool();

  /// Appends one record to `task`'s bucket; may spill. Errors latch into
  /// status() and turn later Appends into no-ops.
  void Append(int task, const MapOutputRecord& rec);

  /// Flushes the spill file before concurrent reads. Call once, after the
  /// last Append and before the first MaterializeTask.
  Status FinishWrites();

  /// First latched error, or OK.
  Status status() const {
    MutexLock lock(&partition_mu_);
    return status_;
  }

  struct MaterializedTask {
    std::vector<MapOutputRecord> records;
    /// True when the records come (partly) from sorted runs and are
    /// already in (key, tag, row) order; false = append order.
    bool sorted = false;
  };

  /// Returns task `t`'s complete record set: the k-way merge of its
  /// spilled runs and its (sorted) in-memory tail, or a copy of the
  /// bucket in append order when nothing spilled. The caller owns the
  /// vector (and should charge it to the budget for accounting).
  StatusOr<MaterializedTask> MaterializeTask(int task) const;

  /// Frees task `t`'s in-memory bucket (commit-time; runs stay on disk
  /// until the spool dies but are never re-read after release).
  void ReleaseTask(int task);

  /// Bytes written to the spill file (0 = never spilled).
  int64_t spill_bytes() const {
    MutexLock lock(&partition_mu_);
    return spill_bytes_;
  }
  /// Spill files created (0 or 1 — runs share one file).
  int64_t spill_files() const { return spill_file_.has_value() ? 1 : 0; }

 private:
  /// One sorted run of a bucket inside the shared spill file.
  struct Run {
    int64_t offset_bytes = 0;
    int64_t count = 0;
  };
  struct Bucket {
    /// Resident records in append order; every chunk's (fixed) capacity
    /// is charged to the budget.
    std::vector<std::vector<MapOutputRecord>> chunks;
    int64_t size = 0;  ///< resident records, across all chunks
    std::vector<Run> runs;
  };

  /// Copies `bucket`'s resident records, in append order, into `out`.
  static void Gather(const Bucket& bucket, std::vector<MapOutputRecord>& out);

  void ChargedPush(Bucket& bucket, const MapOutputRecord& rec)
      MRTHETA_REQUIRES(partition_mu_);
  void UnchargeBucket(Bucket& bucket) MRTHETA_REQUIRES(partition_mu_);
  /// Spills the largest buckets until under budget (or all are tiny).
  void MaybeSpill() MRTHETA_REQUIRES(partition_mu_);
  Status SpillBucket(Bucket& bucket) MRTHETA_REQUIRES(partition_mu_);

  /// Registered under kSpoolPartitionLockName so MemoryBudget's page pool
  /// can CHECK the cross-subsystem lock-ordering contract (never acquire
  /// pool pages while a partition lock is held) at runtime; the bucket
  /// path only uses the budget's lock-free Charge/Uncharge, so the
  /// contract holds by construction here.
  mutable Mutex partition_mu_{kSpoolPartitionLockName};
  std::vector<Bucket> buckets_ MRTHETA_GUARDED_BY(partition_mu_);
  const int64_t spill_limit_bytes_ = 0;
  SpillDirectory* const spill_dir_ = nullptr;
  /// Single-writer during the sequential Append phase, frozen after
  /// FinishWrites; concurrent MaterializeTask merges read it through their
  /// own Reader handles, so it is deliberately NOT guarded.
  std::optional<SpillFile> spill_file_;
  int64_t spill_bytes_ MRTHETA_GUARDED_BY(partition_mu_) = 0;
  Status status_ MRTHETA_GUARDED_BY(partition_mu_);
};

}  // namespace mrtheta

#endif  // MRTHETA_MEM_SHUFFLE_SPOOL_H_
