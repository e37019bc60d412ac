// The vectorized batch executor: 1024-row column-major batches with
// selection vectors and lazy column materialization (DESIGN.md §12).

#ifndef VDB_EXEC_BATCH_EXECUTOR_H_
#define VDB_EXEC_BATCH_EXECUTOR_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "catalog/batch.h"
#include "catalog/schema.h"
#include "exec/budget.h"
#include "exec/execution_context.h"
#include "exec/operator_common.h"
#include "optimizer/physical.h"
#include "util/result.h"

namespace vdb::exec {

/// The set of columns a plan actually consumes; scans skip materializing
/// columns outside it (lazy column deserialization).
using NeededColumns =
    std::unordered_set<plan::ColumnId, plan::ColumnIdHash>;

/// A pull-based streaming operator producing one Batch per call.
///
/// `Next` returns false once the operator is exhausted; a true return may
/// carry zero active rows (e.g. a batch fully consumed by a filter), which
/// downstream operators must treat as valid and keep pulling. Batches flow
/// bottom-up through the same `Batch` object wherever possible so column
/// storage (including string heap buffers) is recycled across calls.
class BatchOp {
 public:
  virtual ~BatchOp() = default;
  BatchOp(const BatchOp&) = delete;
  BatchOp& operator=(const BatchOp&) = delete;

  /// Pulls the next batch; wraps NextImpl with per-operator
  /// instrumentation (batches/rows produced, host time).
  Result<bool> Next(catalog::Batch* out);

  const char* name() const { return name_; }
  uint64_t batches_produced() const { return batches_; }
  uint64_t rows_produced() const { return rows_; }
  /// Rows this operator inspected before filtering; 0 for operators that
  /// don't filter (their selectivity is not meaningful).
  uint64_t rows_in() const { return rows_in_; }
  /// Host wall-clock seconds spent inside Next, inclusive of children.
  /// Only accumulated while the global metrics registry is enabled.
  double next_seconds() const { return next_seconds_; }

  /// Attaches the query's cooperative budget guard (nullptr = none).
  /// Every Next call becomes a check point and charges the memory budget
  /// for the batch it produced, so blocking operators that drain their
  /// child inside one NextImpl still abort at batch granularity.
  void set_budget_guard(BudgetGuard* guard) { guard_ = guard; }

 protected:
  explicit BatchOp(const char* name) : name_(name) {}

  virtual Result<bool> NextImpl(catalog::Batch* out) = 0;

  uint64_t rows_in_ = 0;

 private:
  const char* name_;
  uint64_t batches_ = 0;
  uint64_t rows_ = 0;
  double next_seconds_ = 0.0;
  BudgetGuard* guard_ = nullptr;
};

/// Vectorized executor: runs physical plans batch-at-a-time (DESIGN.md
/// §12). Charges the ExecutionContext exactly the same simulated CPU and
/// I/O as the row-at-a-time Executor — batched as per-batch lump sums —
/// and touches buffer-pool pages in the same order, so measured times
/// agree with the row engine to float rounding. Under LIMIT the subtree
/// the row engine would run with a finite row budget is delegated to the
/// row engine itself, so even data-dependent early exits charge
/// identically on both engines.
class BatchExecutor {
 public:
  explicit BatchExecutor(ExecutionContext* context) : context_(context) {}

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Runs the plan to completion and returns the result rows (in the
  /// plan root's output-column order, identical to Executor::Run).
  Result<std::vector<catalog::Tuple>> Run(const optimizer::PhysicalNode& node);

 private:
  /// Recursively builds the operator tree for `node`, registering each
  /// operator in `ops_` for post-run instrumentation. A finite `budget`
  /// (set by an enclosing LIMIT) delegates the whole subtree to the row
  /// engine for exact charge parity.
  Result<std::unique_ptr<BatchOp>> Build(const optimizer::PhysicalNode& node,
                                         size_t budget);

  ExecutionContext* context_;
  std::vector<BatchOp*> ops_;
  /// Columns consumed by the plan being built; computed once per Run.
  NeededColumns needed_;
};

}  // namespace vdb::exec

#endif  // VDB_EXEC_BATCH_EXECUTOR_H_
