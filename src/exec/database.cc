#include "exec/database.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "exec/batch_executor.h"
#include "obs/metrics.h"
#include "plan/planner.h"
#include "plan/rewriter.h"
#include "sql/parser.h"

namespace vdb::exec {

Database::Database() {
  disk_ = std::make_unique<storage::DiskManager>();
  pool_ = std::make_unique<storage::BufferPool>(disk_.get(),
                                                config_.buffer_pool_pages);
  catalog_ = std::make_unique<catalog::Catalog>(disk_.get(), pool_.get());
  const char* mode = std::getenv("VDB_EXEC_MODE");
  if (mode != nullptr && std::strcmp(mode, "row") == 0) {
    exec_mode_ = ExecMode::kRow;
  }
  // Spill-to-disk mechanisms are on by default; VDB_SPILL=off keeps the
  // analytic charge-only model (identical rows and charges either way).
  const char* spill = std::getenv("VDB_SPILL");
  if (spill == nullptr || std::strcmp(spill, "off") != 0) {
    spill_ = std::make_unique<SpillManager>("/tmp/vdb-spill-XXXXXX");
  }
  // Zone-map skipping is on by default; VDB_ZONEMAPS=off (or =0) disables
  // both execution-time pruning and the optimizer's skip-aware costing.
  const char* zones = std::getenv("VDB_ZONEMAPS");
  if (zones != nullptr &&
      (std::strcmp(zones, "off") == 0 || std::strcmp(zones, "0") == 0)) {
    set_zone_maps_enabled(false);
  }
}

Status Database::ApplyVmConfig(const sim::VirtualMachine& vm) {
  config_ = DbInstanceConfig::FromVm(vm);
  return pool_->Resize(config_.buffer_pool_pages);
}

Status Database::DropCaches() { return pool_->EvictAll(); }

Result<RecoveryStats> Database::EnableDurability(const std::string& dir) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument("durability already enabled");
  }
  if (!catalog_->Tables().empty()) {
    return Status::InvalidArgument(
        "EnableDurability requires a fresh database (recovered state "
        "would collide with existing tables)");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create durability directory: " + dir);
  }
  // Recover with no WAL attached, so redone work is not re-logged.
  VDB_ASSIGN_OR_RETURN(RecoveryStats stats, Recover(dir, catalog_.get()));
  VDB_ASSIGN_OR_RETURN(wal_, storage::WriteAheadLog::Open(WalPath(dir)));
  if (stats.checkpoint_loaded &&
      stats.checkpoint_lsn >= wal_->flushed_lsn()) {
    // The checkpoint covers the whole log: a crash interrupted the
    // post-checkpoint truncation. Complete it now.
    VDB_RETURN_NOT_OK(wal_->Reset(stats.checkpoint_lsn + 1));
  }
  durability_dir_ = dir;
  catalog_->SetWal(wal_.get());
  pool_->SetWal(wal_.get());
  return stats;
}

Status Database::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("durability is not enabled");
  }
  VDB_RETURN_NOT_OK(wal_->Flush());
  pool_->FlushAll();
  VDB_RETURN_NOT_OK(WriteCheckpoint(catalog_.get(), disk_.get(),
                                    CheckpointPath(durability_dir_),
                                    wal_->flushed_lsn()));
  return wal_->Reset(wal_->flushed_lsn() + 1);
}

Status Database::FlushWal() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("durability is not enabled");
  }
  return wal_->Flush();
}

Result<plan::LogicalNodePtr> Database::PlanLogical(
    const std::string& sql) const {
  VDB_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStatement> stmt,
                       sql::ParseSelect(sql));
  plan::Planner planner(catalog_.get());
  VDB_ASSIGN_OR_RETURN(plan::LogicalNodePtr logical, planner.Plan(*stmt));
  return plan::PushDownPredicates(std::move(logical));
}

Result<optimizer::PhysicalNodePtr> Database::Prepare(
    const std::string& sql) {
  VDB_ASSIGN_OR_RETURN(plan::LogicalNodePtr logical, PlanLogical(sql));
  return optimizer_.Optimize(*logical);
}

Result<optimizer::PhysicalNodePtr> Database::Prepare(
    const std::string& sql,
    const optimizer::OptimizerParams& params) const {
  VDB_ASSIGN_OR_RETURN(plan::LogicalNodePtr logical, PlanLogical(sql));
  // A private optimizer keeps what-if costing free of side effects on this
  // database and makes concurrent Prepare calls race-free.
  optimizer::Optimizer whatif(params);
  whatif.set_zone_maps_enabled(zone_maps_enabled_);
  return whatif.Optimize(*logical);
}

Result<QueryResult> Database::Execute(const std::string& sql,
                                      const sim::VirtualMachine& vm) {
  VDB_ASSIGN_OR_RETURN(optimizer::PhysicalNodePtr plan, Prepare(sql));
  return ExecutePlan(*plan, vm);
}

Result<QueryResult> Database::ExecutePlan(
    const optimizer::PhysicalNode& plan, const sim::VirtualMachine& vm) {
  // Fault injection decides before the plan runs, so a failed "run" does
  // not disturb the buffer pool the way a completed one would.
  if (noise_ != nullptr) {
    VDB_RETURN_NOT_OK(noise_->MaybeInjectFault("query execution"));
  }
  ExecutionContext context(&vm, pool_.get(), config_.work_mem_bytes);
  context.set_spill_manager(spill_.get());
  context.set_zone_maps_enabled(zone_maps_enabled_);
  // Arm the cooperative budget before any operator runs. The guard lives
  // on this frame, so an over-budget abort unwinds through the executor
  // and destroys guard and context together — nothing leaks.
  std::optional<BudgetGuard> guard;
  if (!query_options_.budget.Unlimited()) {
    guard.emplace(query_options_.budget, &context);
    context.set_budget_guard(&*guard);
  }
  std::vector<catalog::Tuple> rows;
  if (exec_mode_ == ExecMode::kBatch) {
    BatchExecutor executor(&context);
    VDB_ASSIGN_OR_RETURN(rows, executor.Run(plan));
  } else {
    Executor executor(&context);
    VDB_ASSIGN_OR_RETURN(rows, executor.Run(plan));
  }
  QueryResult result;
  for (const plan::OutputColumn& column : plan.output) {
    result.column_names.push_back(column.name);
  }
  result.rows = std::move(rows);
  result.elapsed_seconds = context.ElapsedSeconds();
  result.cpu_seconds = context.CpuSeconds();
  result.io_seconds = context.IoSeconds();
  result.estimated_ms = plan.total_cost_ms;
  result.physical_reads = context.PhysicalReads();
  result.pages_pruned = context.PagesPruned();
  result.pages_scanned = context.PagesScanned();
  if (result.pages_pruned > 0) {
    obs::MetricsRegistry::Global()
        .GetCounter("exec.scan.pages_pruned")
        ->Add(result.pages_pruned);
  }
  if (result.pages_scanned > 0) {
    obs::MetricsRegistry::Global()
        .GetCounter("exec.scan.pages_scanned")
        ->Add(result.pages_scanned);
  }
  result.plan_text = plan.ToString();
  if (noise_ != nullptr) {
    // Perturb the measured wall time proportionally to the noisy CPU/IO
    // mix; the component breakdown stays exact for diagnostics.
    const double base = result.cpu_seconds + result.io_seconds;
    const double noisy =
        noise_->PerturbSeconds(result.cpu_seconds, result.io_seconds);
    if (base > 0.0) result.elapsed_seconds *= noisy / base;
  }
  return result;
}

}  // namespace vdb::exec
