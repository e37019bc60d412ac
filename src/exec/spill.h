// Spill-to-disk (DESIGN.md §14): SpillManager/SpillFile temp-file
// plumbing and the external merge sort, Grace hash join, and external
// hash aggregate mechanisms, all bit-identical in rows and charges to
// their in-memory counterparts.

#ifndef VDB_EXEC_SPILL_H_
#define VDB_EXEC_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "exec/execution_context.h"
#include "exec/operator_common.h"
#include "plan/expr.h"
#include "plan/logical.h"
#include "util/result.h"

namespace vdb::exec {

class SpillManager;

/// One temp file of serialized tuples, created through a SpillManager and
/// unlinked when destroyed — so an error (e.g. a budget abort) unwinding
/// through an operator releases every spill file it had open. Each row is
/// stored with a caller-chosen u64 index (its global input position);
/// values round-trip bitwise (doubles via memcpy), which is what lets the
/// spilling operators reproduce in-memory results exactly.
class SpillFile {
 public:
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends one (index, row) entry.
  Status WriteRow(uint64_t index, const catalog::Tuple& row);

  /// Seeks back to the start for reading.
  Status Rewind();

  /// Reads the next entry; returns false at end of file.
  Result<bool> ReadRow(uint64_t* index, catalog::Tuple* row);

  uint64_t rows_written() const { return rows_written_; }
  const std::string& path() const { return path_; }

 private:
  friend class SpillManager;
  SpillFile(SpillManager* manager, std::string path, std::FILE* file)
      : manager_(manager), path_(std::move(path)), file_(file) {}

  SpillManager* manager_;
  std::string path_;
  std::FILE* file_;
  uint64_t rows_written_ = 0;
  uint64_t bytes_written_ = 0;
};

/// Hands out spill files in a private temp directory (created lazily on
/// the first file, removed on destruction) and tracks live/created file
/// counts so tests can assert that aborted queries leak nothing.
class SpillManager {
 public:
  /// `dir_template` is a mkdtemp template ending in "XXXXXX"; the
  /// directory is created on first use.
  explicit SpillManager(std::string dir_template);
  ~SpillManager();
  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// Creates a fresh spill file; `hint` names it for debugging.
  Result<std::unique_ptr<SpillFile>> NewFile(const std::string& hint);

  /// Spill files currently open (0 once every query released its files).
  uint64_t live_files() const;
  uint64_t files_created() const;
  uint64_t bytes_spilled() const;

 private:
  friend class SpillFile;
  void OnFileClosed(uint64_t bytes);

  mutable std::mutex mu_;
  std::string dir_template_;
  std::string dir_;  // empty until the first file is created
  uint64_t next_id_ = 0;
  uint64_t live_files_ = 0;
  uint64_t files_created_ = 0;
  uint64_t bytes_spilled_ = 0;
};

// ---------------------------------------------------------------------------
// Spilling operator mechanisms (DESIGN.md §14). Each reproduces its
// in-memory counterpart's rows AND simulated charges bit-for-bit: the
// mechanisms do their file work charge-free, then replay the exact charge
// sequence the in-memory operator issues, so turning spill on or off (or
// crossing the work_mem trigger by one byte of working set) never changes
// what a query costs beyond the analytic spill charge itself.

/// External merge sort. Chunks rows into runs of at most `work_mem_bytes`
/// (per `row_bytes` estimates), sorts each run, writes it to a spill
/// file, and k-way merges the runs. `key_rows[i]` holds row i's sort keys.
/// The (keys, input-order) tie-break makes the merge reproduce
/// std::stable_sort exactly. Charges nothing — callers keep their
/// unchanged charge sequence.
Result<std::vector<catalog::Tuple>> ExternalMergeSort(
    SpillManager* spill, std::vector<catalog::Tuple> rows,
    const std::vector<std::vector<catalog::Value>>& key_rows,
    const std::vector<bool>& ascending, const std::vector<double>& row_bytes,
    uint64_t work_mem_bytes);

/// One emitted output row of a Grace hash join, by global input indices.
struct GraceEmit {
  uint64_t left = 0;
  uint64_t right = 0;  // kGraceNoRight: left-outer NULL row or semi/anti
};
inline constexpr uint64_t kGraceNoRight = ~0ULL;

/// Inputs to the Grace hash join core. Key vectors are per-row boxed key
/// values (rows with any NULL key never join, exactly as in-memory).
struct GraceJoinSpec {
  plan::LogicalJoinType join_type = plan::LogicalJoinType::kInner;
  const plan::BoundExpr* residual = nullptr;  // over concat(left, right)
  double residual_ops = 0.0;
  size_t num_keys = 0;
  const std::vector<catalog::Tuple>* left_rows = nullptr;
  const std::vector<std::vector<catalog::Value>>* left_keys = nullptr;
  const std::vector<catalog::Tuple>* right_rows = nullptr;
  const std::vector<std::vector<catalog::Value>>* right_keys = nullptr;
  /// Row engine polls the budget guard every 4096 probe rows; the batch
  /// engine's probe loop does not (it polls at batch boundaries).
  bool poll_budget = false;
};

/// Grace (partitioned) hash join: hash-partitions both inputs onto spill
/// files, joins partition pairs with small in-memory tables, and replays
/// the in-memory operator's charge sequence (build charges, spill charge,
/// probe/emit charges) in global row order. Returns emitted (left, right)
/// index pairs in exactly the in-memory output order. Handles all join
/// types (inner/left/semi/anti).
Result<std::vector<GraceEmit>> GraceHashJoin(ExecutionContext* context,
                                             SpillManager* spill,
                                             const GraceJoinSpec& spec);

// --- Hash-aggregate spill accounting (integer, so the row engine and the
// batch engine compute the identical trigger and charge).

struct AggSpillStats {
  uint64_t groups = 0;
  uint64_t input_rows = 0;
  uint64_t num_keys = 0;
  uint64_t num_aggs = 0;
  uint64_t input_cols = 0;
};

/// Modeled aggregate hash-state footprint: per group, a fixed overhead
/// plus per-key and per-state costs.
inline uint64_t AggStateBytes(const AggSpillStats& s) {
  return s.groups * (64 + 16 * s.num_keys + 64 * s.num_aggs);
}

/// Modeled bytes of input routed through the spill partitions.
inline uint64_t AggInputBytes(const AggSpillStats& s) {
  return s.input_rows * (64 + 16 * s.input_cols);
}

/// The trigger: aggregation spills when its hash state alone exceeds
/// work_mem. State grows monotonically, so checking the final group count
/// is equivalent to checking mid-stream.
inline bool AggSpillTriggered(const AggSpillStats& s,
                              uint64_t work_mem_bytes) {
  return AggStateBytes(s) > work_mem_bytes;
}

/// Charges one write + one read pass over state plus routed input.
void ChargeAggSpill(ExecutionContext* context, const AggSpillStats& s);

/// One recovered group from the external aggregation below.
struct ExternalAggGroup {
  uint64_t first_row = 0;  // global index of the group's first input row
  std::vector<catalog::Value> key;
  std::vector<AggState> states;
};

/// External hash aggregation: routes every input row (its boxed group key
/// and aggregate argument values) to a hash partition on a spill file,
/// aggregates each partition, and returns groups sorted by first
/// appearance — the in-memory insertion order. Within a group, updates
/// happen in global row order (a group lives wholly inside one
/// partition), so every accumulated state is bit-identical to the
/// in-memory result. Charges nothing.
Result<std::vector<ExternalAggGroup>> ExternalHashAggregate(
    SpillManager* spill, const std::vector<plan::AggSpec>& aggs,
    const std::vector<std::vector<catalog::Value>>& key_rows,
    const std::vector<std::vector<catalog::Value>>& arg_rows);

}  // namespace vdb::exec

#endif  // VDB_EXEC_SPILL_H_
