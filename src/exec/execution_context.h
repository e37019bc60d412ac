// ExecutionContext: the simulator's ledger — charges CPU work units and
// I/O events against a VM and advances simulated time.

#ifndef VDB_EXEC_EXECUTION_CONTEXT_H_
#define VDB_EXEC_EXECUTION_CONTEXT_H_

#include <cstdint>

#include "sim/sim_clock.h"
#include "sim/virtual_machine.h"
#include "storage/buffer_pool.h"

namespace vdb::exec {

class BudgetGuard;
class SpillManager;

/// Ground-truth CPU work constants (abstract work units). These are the
/// simulator's "physics": the executor charges them as it processes data,
/// and the calibration process (paper Section 5) rediscovers their effect
/// as optimizer parameters — it never reads these constants directly.
struct CpuWorkModel {
  // Tuned so a sequential scan is ~90% I/O-bound on the paper-testbed
  // machine (PostgreSQL-era engines scan several million simple tuples
  // per second per core), while expression-heavy queries are CPU-bound.
  double ops_per_tuple = 300.0;         // per tuple formed/copied/deserialized
  double ops_per_operator = 120.0;      // per predicate/expression operator
  double ops_per_index_entry = 180.0;   // per B+-tree entry visited
  double ops_per_hash = 150.0;          // per hash computation/probe
  double ops_per_comparison = 120.0;    // per sort comparison
};

/// Tracks simulated time for one query (or workload) running inside a VM.
///
/// Installed as the buffer pool's IoListener, it converts every physical
/// page transfer into I/O time at the VM's I/O share, plus the hypervisor's
/// per-I/O CPU tax; explicit ChargeCpu calls convert CPU work into time at
/// the VM's effective CPU rate. The result is a deterministic "measured"
/// execution time that responds to the VM's resource allocation the same
/// way the paper's Xen testbed did.
class ExecutionContext final : public storage::IoListener {
 public:
  ExecutionContext(const sim::VirtualMachine* vm,
                   storage::BufferPool* pool, uint64_t work_mem_bytes);
  ~ExecutionContext() override;

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  const sim::VirtualMachine& vm() const { return *vm_; }
  uint64_t work_mem_bytes() const { return work_mem_bytes_; }
  const CpuWorkModel& cpu_model() const { return cpu_model_; }

  /// Charges `ops` CPU work units (advances the clock immediately).
  void ChargeCpu(double ops);

  /// Charges simulated spill I/O of `pages` pages (sequential), used by
  /// sort/hash/nested-loop operators whose state exceeds work_mem. These
  /// transfers don't move real pages; only time (and the hypervisor I/O
  /// CPU tax) is charged.
  void ChargeSpillWrite(double pages);
  void ChargeSpillRead(double pages);

  // storage::IoListener:
  void OnPageRead(storage::AccessPattern pattern) override;
  void OnPageWrite() override;

  double ElapsedSeconds() const { return clock_.NowSeconds(); }
  double CpuSeconds() const { return cpu_seconds_; }
  double IoSeconds() const { return io_seconds_; }
  double TotalCpuOps() const { return total_cpu_ops_; }
  uint64_t PhysicalReads() const { return physical_reads_; }

  /// Whether scans may skip pages via zone maps. All engines consult this
  /// one flag, so flipping it (VDB_ZONEMAPS=off, or the fuzzer's
  /// same-plan cross-check) changes pruning behavior uniformly.
  void set_zone_maps_enabled(bool enabled) { zone_maps_enabled_ = enabled; }
  bool zone_maps_enabled() const { return zone_maps_enabled_; }

  /// Scan page accounting: pages skipped without a fetch vs. pages
  /// actually read by a sequential scan. Only the scan operators tick
  /// these; ExecutePlan publishes them per query and to the obs counters
  /// exec.scan.pages_pruned / exec.scan.pages_scanned.
  void AddPagesPruned(uint64_t n) { pages_pruned_ += n; }
  void AddPagesScanned(uint64_t n) { pages_scanned_ += n; }
  uint64_t PagesPruned() const { return pages_pruned_; }
  uint64_t PagesScanned() const { return pages_scanned_; }

  void Reset();

  /// Attaches a cooperative per-query budget (non-owning; nullptr
  /// detaches). Executors poll it at batch / operator boundaries
  /// (see budget.h); the context itself never reads it.
  void set_budget_guard(BudgetGuard* guard) { budget_guard_ = guard; }
  BudgetGuard* budget_guard() const { return budget_guard_; }

  /// Attaches a spill-file provider (non-owning; nullptr detaches). With
  /// one attached, sort / hash join / aggregate actually externalize their
  /// state through temp files when it exceeds work_mem; without one they
  /// keep the analytic model — charge spill I/O but stay in memory. Rows
  /// and charges are identical either way (DESIGN.md §14).
  void set_spill_manager(SpillManager* spill) { spill_manager_ = spill; }
  SpillManager* spill_manager() const { return spill_manager_; }

 private:
  const sim::VirtualMachine* vm_;
  storage::BufferPool* pool_;
  uint64_t work_mem_bytes_;
  CpuWorkModel cpu_model_;
  sim::SimClock clock_;
  double cpu_seconds_ = 0.0;
  double io_seconds_ = 0.0;
  double total_cpu_ops_ = 0.0;
  uint64_t physical_reads_ = 0;
  bool zone_maps_enabled_ = true;
  uint64_t pages_pruned_ = 0;
  uint64_t pages_scanned_ = 0;
  BudgetGuard* budget_guard_ = nullptr;
  SpillManager* spill_manager_ = nullptr;
};

}  // namespace vdb::exec

#endif  // VDB_EXEC_EXECUTION_CONTEXT_H_
