// Instance memory configuration derived from the VM's allocation
// (buffer-pool pages, work_mem), plus per-query execution options.

#ifndef VDB_EXEC_DB_CONFIG_H_
#define VDB_EXEC_DB_CONFIG_H_

#include <algorithm>
#include <cstdint>

#include "exec/budget.h"
#include "sim/virtual_machine.h"
#include "storage/page.h"

namespace vdb::exec {

/// Database-instance memory configuration, derived from the memory the VM
/// grants the instance (PostgreSQL-style shared_buffers / work_mem split).
/// Changing the VM's memory share and re-deriving this config is how the
/// memory resource dimension reaches the engine.
struct DbInstanceConfig {
  uint64_t buffer_pool_pages = 1024;
  uint64_t work_mem_bytes = 8ULL << 20;

  /// Fractions of VM memory granted to the page cache and to each
  /// sort/hash operation.
  static constexpr double kBufferPoolFraction = 0.50;
  static constexpr double kWorkMemFraction = 0.05;

  static DbInstanceConfig FromVm(const sim::VirtualMachine& vm) {
    DbInstanceConfig config;
    const double memory = static_cast<double>(vm.MemoryBytes());
    config.buffer_pool_pages = std::max<uint64_t>(
        16, static_cast<uint64_t>(memory * kBufferPoolFraction /
                                  static_cast<double>(storage::kPageSize)));
    config.work_mem_bytes = std::max<uint64_t>(
        64 << 10, static_cast<uint64_t>(memory * kWorkMemFraction));
    return config;
  }
};

/// Per-query execution knobs, set on the Database and read by every
/// subsequent ExecutePlan. Distinct from DbInstanceConfig: these do not
/// derive from the VM's resources, they select how the engine uses them.
struct QueryOptions {
  /// Hard per-query resource limits enforced cooperatively inside both
  /// engines (budget.h). All-zero (the default) disables enforcement.
  QueryBudget budget;
};

}  // namespace vdb::exec

#endif  // VDB_EXEC_DB_CONFIG_H_
