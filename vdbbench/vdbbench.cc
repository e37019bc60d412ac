// vdbbench: the end-to-end benchmark program. One process runs one of three
// workloads for a fixed host time and prints one JSON document of raw
// measurements (rounds, per-request samples, correctness checks and, in a
// traced run, spans) as the last line of stdout. run.py turns it into the
// benchmark's metrics; README.md explains the workloads.
//
//   vdbbench --workload advisor-fig5|design-search|tenants --seed N
//            --seconds S --trace 0|1 [--corrupt]
//
// A run is a sequence of whole rounds of the same operations: at least one,
// and more while the run's time lasts. --trace 1 records spans and turns on
// the engine's obs counters for the whole run. --corrupt falsifies one
// answer before it is checked, to show that the checks can fail.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calib/grid.h"
#include "calib/store.h"
#include "core/advisor.h"
#include "core/cost_model.h"
#include "core/search.h"
#include "datagen/calibration_db.h"
#include "datagen/synthetic.h"
#include "datagen/tpch.h"
#include "datagen/tpch_queries.h"
#include "exec/database.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "server/tenant.h"
#include "sim/machine.h"
#include "sim/vmm.h"
#include "sql/parser.h"
#include "testing/oracle.h"
#include "trace.h"

namespace vdbbench {
namespace {

using vdb::Result;
using vdb::Status;
namespace calib = vdb::calib;
namespace core = vdb::core;
namespace datagen = vdb::datagen;
namespace exec = vdb::exec;
namespace obs = vdb::obs;
namespace server = vdb::server;
namespace sim = vdb::sim;

using Clock = std::chrono::steady_clock;
using Attrs = std::vector<std::pair<std::string, double>>;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds used by all threads of this process. Unlike wall time it
/// leaves out the time the host's hypervisor runs other guests on this
/// machine's vCPUs, which makes it the steadier figure on a shared host.
double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and process-CPU time since construction.
struct Stopwatch {
  Clock::time_point wall = Clock::now();
  double cpu = ProcessCpuSeconds();
  double WallSeconds() const { return SecondsSince(wall); }
  double CpuSeconds() const { return ProcessCpuSeconds() - cpu; }
};

// ---------------------------------------------------------------------------
// Raw report.

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Round {
  double host_s = 0.0;  // wall seconds of the timed work
  double cpu_s = 0.0;   // process CPU seconds of the same work
  int attempted = 0;
  int failed = 0;
  Attrs values;  // the workload's own figures for this round
};

/// One tenant request as the client saw it, with the server's stats.
struct Request {
  int round = 0;
  std::string cls;    // "lookup" | "report"
  std::string label;  // statement kind, e.g. "q1"
  bool ok = false;
  double latency_ms = 0.0;
  vdb::server::QueryStats stats;
};

struct Report {
  std::vector<double> setup_s;
  std::vector<Round> rounds;
  std::vector<Request> requests;
  std::vector<Check> checks;
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string AttrsJson(const Attrs& attrs) {
  std::string out = "{";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(attrs[i].first) + ":" + Num(attrs[i].second);
  }
  return out + "}";
}

std::string ToJson(const std::string& workload, uint64_t seed,
                   const Report& report, const std::vector<Span>& spans) {
  std::string out = "{\"workload\":" + Quote(workload) +
                    ",\"seed\":" + std::to_string(seed) + ",\"setup_s\":[";
  for (size_t i = 0; i < report.setup_s.size(); ++i) {
    out += (i > 0 ? "," : "") + Num(report.setup_s[i]);
  }
  out += "],\"rounds\":[";
  for (size_t i = 0; i < report.rounds.size(); ++i) {
    const Round& r = report.rounds[i];
    out += std::string(i > 0 ? "," : "") +
           "{\"host_s\":" + Num(r.host_s) + ",\"cpu_s\":" + Num(r.cpu_s) +
           ",\"attempted\":" + std::to_string(r.attempted) +
           ",\"failed\":" + std::to_string(r.failed) +
           ",\"values\":" + AttrsJson(r.values) + "}";
  }
  out += "],\"requests\":[";
  for (size_t i = 0; i < report.requests.size(); ++i) {
    const Request& q = report.requests[i];
    out += std::string(i > 0 ? "," : "") +
           "{\"round\":" + std::to_string(q.round) +
           ",\"cls\":" + Quote(q.cls) + ",\"label\":" + Quote(q.label) +
           ",\"ok\":" + (q.ok ? "true" : "false") +
           ",\"latency_ms\":" + Num(q.latency_ms) +
           ",\"queue_ms\":" + Num(q.stats.queue_ms) +
           ",\"host_ms\":" + Num(q.stats.host_ms) +
           ",\"sim_ms\":" + Num(q.stats.elapsed_ms) +
           ",\"est_ms\":" + Num(q.stats.estimated_ms) +
           ",\"pages_read\":" + std::to_string(q.stats.physical_reads) +
           ",\"pages_pruned\":" + std::to_string(q.stats.pages_pruned) + "}";
  }
  out += "],\"checks\":[";
  for (size_t i = 0; i < report.checks.size(); ++i) {
    const Check& c = report.checks[i];
    out += std::string(i > 0 ? "," : "") + "{\"name\":" + Quote(c.name) +
           ",\"ok\":" + (c.ok ? "true" : "false") +
           ",\"detail\":" + Quote(c.detail) + "}";
  }
  out += "],\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += std::string(i > 0 ? "," : "") + "{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"op\":" + std::to_string(s.op) + ",\"name\":" + Quote(s.name) +
           ",\"label\":" + Quote(s.label) +
           ",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"attrs\":" + AttrsJson(s.attrs) + "}";
  }
  return out + "]}";
}

// ---------------------------------------------------------------------------
// Shared helpers.

/// SplitMix64: derives independent generator seeds from the run's seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Counter(const char* name) {
  return static_cast<double>(
      obs::MetricsRegistry::Global().GetCounter(name)->value());
}
double HistogramSum(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(name)->sum_seconds();
}

/// Rows and heap pages of everything in `cat`, attached to load spans.
void SetLoadAttrs(vdb::catalog::Catalog* cat, ScopedSpan* span) {
  double rows = 0, pages = 0;
  for (vdb::catalog::TableInfo* table : cat->Tables()) {
    rows += static_cast<double>(table->stats.row_count);
    pages += static_cast<double>(table->heap->NumPages());
  }
  span->Set("rows", rows);
  span->Set("heap_pages", pages);
}

/// Counter deltas of the what-if layer across a search call.
struct ProbeDelta {
  double probes = Counter("cost_model.probes");
  double hits = Counter("cost_model.cache_hits");
  double probe_s = HistogramSum("cost_model.probe_latency");
  void Attach(ScopedSpan* span) const {
    span->Set("probes", Counter("cost_model.probes") - probes);
    span->Set("cache_hits", Counter("cost_model.cache_hits") - hits);
    span->Set("probe_s", HistogramSum("cost_model.probe_latency") - probe_s);
  }
};

Result<std::unique_ptr<exec::Database>> LoadTpch(
    Tracer* tracer, const datagen::TpchConfig& config) {
  ScopedSpan span(tracer, "datagen.GenerateTpch");
  auto db = std::make_unique<exec::Database>();
  VDB_RETURN_NOT_OK(datagen::GenerateTpch(db->catalog(), config));
  SetLoadAttrs(db->catalog(), &span);
  return db;
}

Result<std::unique_ptr<exec::Database>> LoadCalibrationDb(
    Tracer* tracer, const datagen::CalibrationDbConfig& config) {
  ScopedSpan span(tracer, "datagen.GenerateCalibrationDb");
  auto db = std::make_unique<exec::Database>();
  VDB_RETURN_NOT_OK(datagen::GenerateCalibrationDb(db->catalog(), config));
  SetLoadAttrs(db->catalog(), &span);
  return db;
}

Result<calib::CalibrationStore> CalibrateGrid(
    Tracer* tracer, exec::Database* db, const calib::CalibrationGridSpec& spec) {
  ScopedSpan span(tracer, "calib.CalibrateGrid");
  const double queries = Counter("calib.queries_executed");
  calib::CalibrationGridReport report;
  auto store = calib::CalibrateGrid(db, sim::MachineSpec::PaperTestbed(),
                                    sim::HypervisorModel::XenLike(), spec,
                                    calib::CalibrationOptions{}, nullptr,
                                    &report);
  span.Set("points", report.succeeded);
  span.Set("queries", Counter("calib.queries_executed") - queries);
  if (store.ok() && report.failed > 0) {
    return Status::Internal("calibration grid: " + report.Summary());
  }
  return store;
}

Result<core::DesignSolution> Solve(Tracer* tracer,
                                   const core::VirtualizationDesignProblem& p,
                                   const calib::CalibrationStore& store,
                                   core::SearchAlgorithm algorithm) {
  ScopedSpan span(tracer, "core.SolveDesignProblem",
                  core::SearchAlgorithmName(algorithm));
  const ProbeDelta delta;
  core::WorkloadCostModel cost(&p, &store);
  auto solution = core::SolveDesignProblem(p, &cost, algorithm);
  delta.Attach(&span);
  return solution;
}

/// Label of a TPC-H statement ("q4"), or "sql" for anything else.
std::string TpchLabel(const std::string& sql) {
  for (const datagen::TpchQueryDef& def : datagen::TpchQueries()) {
    if (def.sql == sql) return "q" + std::to_string(def.number);
  }
  return "sql";
}

bool SameAllocations(const core::DesignSolution& a,
                     const core::DesignSolution& b) {
  if (a.allocations.size() != b.allocations.size()) return false;
  for (size_t i = 0; i < a.allocations.size(); ++i) {
    const sim::ResourceShare& x = a.allocations[i];
    const sim::ResourceShare& y = b.allocations[i];
    if (std::abs(x.cpu - y.cpu) > 1e-9 || std::abs(x.memory - y.memory) > 1e-9 ||
        std::abs(x.io - y.io) > 1e-9) {
      return false;
    }
  }
  return true;
}

bool SameCost(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

std::string Fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

/// Fixed set of operations a round attempts. A step that fails ends the
/// round; the operations it did not reach count as failed, so every round
/// attempts the same number of operations.
class Tally {
 public:
  explicit Tally(int ops) : ops_(ops) {}
  void Done(int n = 1) { done_ += n; }
  void Abort(const Status& status) {
    std::fprintf(stderr, "[vdbbench] operation failed: %s\n",
                 status.ToString().c_str());
  }
  void Fill(Round* round) const {
    round->attempted = ops_;
    round->failed = ops_ - done_;
  }

 private:
  int ops_;
  int done_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed preparation; appends each set-up's seconds to report.setup_s.
  virtual Status SetUp(Report* report) = 0;
  /// One round of the timed work. Fills host_s, values and tallies.
  virtual void RunRound(int index, Round* round, Report* report) = 0;
};

// ---------------------------------------------------------------------------
// advisor-fig5: the paper's Figure-5 problem from an empty process.

class AdvisorFig5 : public Workload {
 public:
  AdvisorFig5(Tracer* tracer, uint64_t seed, bool corrupt)
      : tracer_(tracer), seed_(seed), corrupt_(corrupt) {}

  Status SetUp(Report* report) override {
    datagen::CalibrationDbConfig config;
    config.base_rows = 70000;  // cal_large spans the buffer-pool sizes
    config.pad_bytes = 64;
    config.seed = Mix(seed_, 1);
    for (int i = 0; i < kSetups; ++i) {
      calib_db_.reset();
      const Clock::time_point start = Clock::now();
      VDB_ASSIGN_OR_RETURN(calib_db_, LoadCalibrationDb(tracer_, config));
      report->setup_s.push_back(SecondsSince(start));
    }
    return Status::OK();
  }

  void RunRound(int index, Round* round, Report* report) override {
    Tally tally(kOps);
    const Status status = Round_(index, round, report, &tally);
    if (!status.ok()) tally.Abort(status);
    tally.Fill(round);
  }

 private:
  static constexpr int kSetups = 3;
  // Calibrate 1 + load 2 + recommend 1 + 2 designs x 12 statements.
  static constexpr int kOps = 28;

  Status Round_(int index, Round* round, Report* report, Tally* tally) {
    const Stopwatch watch;
    calib::CalibrationGridSpec spec;
    spec.cpu_shares = {0.25, 0.375, 0.50, 0.625, 0.75};
    spec.memory_shares = {0.50};
    spec.io_shares = {0.50};
    VDB_ASSIGN_OR_RETURN(calib::CalibrationStore store,
                         CalibrateGrid(tracer_, calib_db_.get(), spec));
    tally->Done();

    datagen::TpchConfig tpch;
    tpch.scale_factor = 0.05;
    tpch.seed = Mix(seed_, 2);
    tpch.order_comment_chars = 120;
    tpch.lineitem_comment_chars = 80;
    VDB_ASSIGN_OR_RETURN(std::unique_ptr<exec::Database> db1,
                         LoadTpch(tracer_, tpch));
    tally->Done();
    VDB_ASSIGN_OR_RETURN(std::unique_ptr<exec::Database> db2,
                         LoadTpch(tracer_, tpch));
    tally->Done();

    core::VirtualizationDesignProblem problem;
    problem.machine = sim::MachineSpec::PaperTestbed();
    VDB_ASSIGN_OR_RETURN(const std::string q4, datagen::TpchQuery(4));
    VDB_ASSIGN_OR_RETURN(const std::string q13, datagen::TpchQuery(13));
    problem.workloads = {core::Workload::Repeated("W1 (3 x Q4)", q4, 3),
                         core::Workload::Repeated("W2 (9 x Q13)", q13, 9)};
    problem.databases = {db1.get(), db2.get()};
    problem.controlled = {sim::ResourceKind::kCpu};
    problem.grid_steps = 4;

    core::DesignSolution recommended;
    {
      ScopedSpan span(tracer_, "core.Advisor.Recommend",
                      core::SearchAlgorithmName(
                          core::SearchAlgorithm::kDynamicProgramming));
      const ProbeDelta delta;
      core::Advisor advisor(&store);
      VDB_ASSIGN_OR_RETURN(recommended, advisor.Recommend(problem));
      delta.Attach(&span);
    }
    tally->Done();
    const double advisor_s = watch.WallSeconds();

    const Clock::time_point measure_start = Clock::now();
    const std::vector<sim::ResourceShare> equal(2, sim::ResourceShare(0.5, 0.5, 0.5));
    VDB_ASSIGN_OR_RETURN(const double recommended_sim_s,
                         Measure(problem, recommended.allocations, tally));
    VDB_ASSIGN_OR_RETURN(const double equal_sim_s,
                         Measure(problem, equal, tally));
    const double measure_s = SecondsSince(measure_start);

    round->host_s = watch.WallSeconds();
    round->cpu_s = watch.CpuSeconds();
    round->values = {{"advisor_s", advisor_s},
                     {"measure_s", measure_s},
                     {"design_sim_s", recommended_sim_s},
                     {"design_cost_ms", recommended.total_cost_ms}};

    // Checks, outside the timed part.
    core::WorkloadCostModel cost(&problem, &store);
    VDB_ASSIGN_OR_RETURN(
        core::DesignSolution optimum,
        core::SolveDesignProblem(problem, &cost,
                                 core::SearchAlgorithm::kExhaustive));
    const std::string tag = "round " + std::to_string(index) + ": ";
    report->checks.push_back(
        {"dp_equals_exhaustive",
         SameAllocations(recommended, optimum) &&
             SameCost(recommended.total_cost_ms, optimum.total_cost_ms),
         tag + Fmt("dp %.6f ms, exhaustive %.6f ms", recommended.total_cost_ms,
                   optimum.total_cost_ms)});
    const double claimed_sim_s =
        corrupt_ ? equal_sim_s * 1.01 : recommended_sim_s;
    report->checks.push_back(
        {"recommended_not_worse_than_equal_split",
         claimed_sim_s <= equal_sim_s,
         tag + Fmt("recommended %.3f s, equal split %.3f s", claimed_sim_s,
                   equal_sim_s)});
    bool falls = true;
    std::string costs;
    double previous = 0.0;
    for (size_t i = 0; i < spec.cpu_shares.size(); ++i) {
      VDB_ASSIGN_OR_RETURN(
          vdb::optimizer::OptimizerParams params,
          store.Lookup(sim::ResourceShare(spec.cpu_shares[i], 0.5, 0.5)));
      if (i > 0 && !(params.cpu_tuple_cost < previous)) falls = false;
      previous = params.cpu_tuple_cost;
      costs += Fmt(" %.3g", params.cpu_tuple_cost);
    }
    report->checks.push_back(
        {"cpu_tuple_cost_falls_with_cpu_share", falls, tag + "cpu_tuple_cost" + costs});

    // Calibrated estimates of the measured statements, for the q-error.
    if (tracer_->enabled()) {
      for (const auto& design : {recommended.allocations, equal}) {
        for (size_t i = 0; i < problem.NumWorkloads(); ++i) {
          const std::string& sql = problem.workloads[i].statements[0];
          VDB_ASSIGN_OR_RETURN(vdb::optimizer::OptimizerParams params,
                               store.Lookup(design[i]));
          ScopedSpan span(tracer_, "exec.Prepare", TpchLabel(sql));
          VDB_ASSIGN_OR_RETURN(vdb::optimizer::PhysicalNodePtr plan,
                               problem.databases[i]->Prepare(sql, params));
          span.Set("est_ms", plan->total_cost_ms);
          span.Set("cpu", design[i].cpu);
        }
      }
    }
    return Status::OK();
  }

  /// Runs every workload cold in a VM with its allocated share, as
  /// core::Advisor::Measure does, with one span per executed statement.
  /// Returns the simulated total in seconds.
  Result<double> Measure(const core::VirtualizationDesignProblem& problem,
                         const std::vector<sim::ResourceShare>& allocations,
                         Tally* tally) {
    sim::VirtualMachineMonitor vmm(problem.machine, problem.hypervisor);
    double total_s = 0.0;
    for (size_t i = 0; i < allocations.size(); ++i) {
      VDB_ASSIGN_OR_RETURN(
          sim::VirtualMachine * vm,
          vmm.CreateVm("vm-" + std::to_string(i), allocations[i]));
      exec::Database* db = problem.databases[i];
      VDB_RETURN_NOT_OK(db->ApplyVmConfig(*vm));
      for (const std::string& sql : problem.workloads[i].statements) {
        VDB_RETURN_NOT_OK(db->DropCaches());
        ScopedSpan span(tracer_, "exec.Execute", TpchLabel(sql));
        const double rows = Counter("exec.batch.rows_produced");
        VDB_ASSIGN_OR_RETURN(exec::QueryResult result, db->Execute(sql, *vm));
        span.Set("sim_ms", 1e3 * result.elapsed_seconds);
        span.Set("pages_read", static_cast<double>(result.physical_reads));
        span.Set("pages_pruned", static_cast<double>(result.pages_pruned));
        span.Set("rows", Counter("exec.batch.rows_produced") - rows);
        span.Set("cpu", allocations[i].cpu);
        total_s += result.elapsed_seconds;
        tally->Done();
      }
    }
    return total_s;
  }

  Tracer* tracer_;
  uint64_t seed_;
  bool corrupt_;
  std::unique_ptr<exec::Database> calib_db_;
};

// ---------------------------------------------------------------------------
// design-search: what-if probes and search on a CPU x I/O problem.

class DesignSearch : public Workload {
 public:
  DesignSearch(Tracer* tracer, uint64_t seed, bool corrupt)
      : tracer_(tracer), seed_(seed), corrupt_(corrupt) {}

  Status SetUp(Report* report) override {
    // The data keep their default seeds: what-if planning time depends on
    // the calibrated parameters and statistics, and the seed should change
    // which statements share a VM, not how long a probe takes.
    datagen::CalibrationDbConfig calib_config;
    calib::CalibrationGridSpec spec;
    // Memory is not controlled, so every VM gets 1/kWorkloads of it.
    spec.cpu_shares = {0.05, 0.30, 0.55, 0.85};
    spec.memory_shares = {1.0 / kWorkloads};
    spec.io_shares = {0.05, 0.30, 0.55, 0.85};
    datagen::TpchConfig tpch;
    tpch.scale_factor = 0.01;
    for (int i = 0; i < kSetups; ++i) {
      db_.reset();
      const Clock::time_point start = Clock::now();
      VDB_ASSIGN_OR_RETURN(std::unique_ptr<exec::Database> calib_db,
                           LoadCalibrationDb(tracer_, calib_config));
      VDB_ASSIGN_OR_RETURN(store_, CalibrateGrid(tracer_, calib_db.get(), spec));
      VDB_ASSIGN_OR_RETURN(db_, LoadTpch(tracer_, tpch));
      report->setup_s.push_back(SecondsSince(start));
    }

    // A fixed multiset of statements, dealt into the workloads in an
    // order drawn from the seed: the amount of what-if work per round does
    // not depend on the seed, only which statements share a VM.
    std::vector<std::string> statements;
    for (int number : kStatements) {
      VDB_ASSIGN_OR_RETURN(std::string sql, datagen::TpchQuery(number));
      statements.push_back(std::move(sql));
    }
    std::mt19937_64 rng(Mix(seed_, 3));
    std::shuffle(statements.begin(), statements.end(), rng);
    problem_.machine = sim::MachineSpec::PaperTestbed();
    problem_.controlled = {sim::ResourceKind::kCpu, sim::ResourceKind::kIo};
    problem_.grid_steps = kGridSteps;
    const size_t per = statements.size() / kWorkloads;
    for (int w = 0; w < kWorkloads; ++w) {
      problem_.workloads.emplace_back(
          "W" + std::to_string(w + 1),
          std::vector<std::string>(statements.begin() + w * per,
                                   statements.begin() + (w + 1) * per));
      problem_.databases.push_back(db_.get());
    }
    sub_ = problem_;
    sub_.grid_steps = kSubGridSteps;
    return Status::OK();
  }

  void RunRound(int index, Round* round, Report* report) override {
    Tally tally(kOps);
    const Status status = Round_(index, round, report, &tally);
    if (!status.ok()) tally.Abort(status);
    tally.Fill(round);
  }

 private:
  static constexpr int kSetups = 5;
  static constexpr int kWorkloads = 4;
  static constexpr int kGridSteps = 20;
  // Small enough for exhaustive search: C(7,3)^2 = 1225 designs.
  static constexpr int kSubGridSteps = 8;
  static constexpr int kStatements[] = {1, 3, 4, 5, 6, 10, 12, 13,
                                        14, 18, 1, 3, 5, 10, 12, 18};
  // DP and greedy on the problem, DP and exhaustive on the sub-problem.
  static constexpr int kOps = 4;

  Status Round_(int index, Round* round, Report* report, Tally* tally) {
    using core::SearchAlgorithm;
    const Stopwatch watch;
    VDB_ASSIGN_OR_RETURN(core::DesignSolution dp,
                         Solve(tracer_, problem_, store_,
                               SearchAlgorithm::kDynamicProgramming));
    tally->Done();
    VDB_ASSIGN_OR_RETURN(core::DesignSolution greedy,
                         Solve(tracer_, problem_, store_, SearchAlgorithm::kGreedy));
    tally->Done();
    VDB_ASSIGN_OR_RETURN(core::DesignSolution sub_dp,
                         Solve(tracer_, sub_, store_,
                               SearchAlgorithm::kDynamicProgramming));
    tally->Done();
    VDB_ASSIGN_OR_RETURN(core::DesignSolution sub_exhaustive,
                         Solve(tracer_, sub_, store_, SearchAlgorithm::kExhaustive));
    tally->Done();
    round->host_s = watch.WallSeconds();
    round->cpu_s = watch.CpuSeconds();
    round->values = {{"recommend_s", round->host_s},
                     {"design_cost_ms", dp.total_cost_ms},
                     {"probes", static_cast<double>(dp.evaluations + greedy.evaluations +
                                                    sub_dp.evaluations +
                                                    sub_exhaustive.evaluations)}};

    const std::string tag = "round " + std::to_string(index) + ": ";
    report->checks.push_back(
        {"dp_equals_exhaustive_on_sub_problem",
         SameCost(sub_dp.total_cost_ms, sub_exhaustive.total_cost_ms),
         tag + Fmt("dp %.6f ms, exhaustive %.6f ms", sub_dp.total_cost_ms,
                   sub_exhaustive.total_cost_ms)});
    report->checks.push_back(
        {"no_searcher_beats_dp",
         greedy.total_cost_ms >= dp.total_cost_ms * (1 - 1e-9) &&
             sub_exhaustive.total_cost_ms >= sub_dp.total_cost_ms * (1 - 1e-9),
         tag + Fmt("greedy %.6f ms vs dp %.6f ms", greedy.total_cost_ms,
                   dp.total_cost_ms)});
    bool feasible = true;
    for (const auto& [solution, steps] :
         {std::pair{&dp, kGridSteps}, std::pair{&greedy, kGridSteps},
          std::pair{&sub_dp, kSubGridSteps},
          std::pair{&sub_exhaustive, kSubGridSteps}}) {
      feasible = feasible && Feasible(*solution, steps);
    }
    report->checks.push_back({"allocations_feasible", feasible, tag});

    // The DP design's cost, recomputed statement by statement.
    double recomputed = 0.0;
    for (size_t i = 0; i < problem_.NumWorkloads(); ++i) {
      VDB_ASSIGN_OR_RETURN(vdb::optimizer::OptimizerParams params,
                           store_.Lookup(dp.allocations[i]));
      for (const std::string& sql : problem_.workloads[i].statements) {
        ScopedSpan span(tracer_, "exec.Prepare", TpchLabel(sql));
        VDB_ASSIGN_OR_RETURN(vdb::optimizer::PhysicalNodePtr plan,
                             db_->Prepare(sql, params));
        recomputed += plan->total_cost_ms;
      }
    }
    if (corrupt_) recomputed *= 1.001;
    report->checks.push_back(
        {"design_cost_recomputed", SameCost(recomputed, dp.total_cost_ms),
         tag + Fmt("dp %.6f ms, recomputed %.6f ms", dp.total_cost_ms,
                   recomputed)});
    return Status::OK();
  }

  /// Every workload holds at least one unit of each controlled resource
  /// and no resource is handed out beyond the whole machine.
  bool Feasible(const core::DesignSolution& solution, int steps) const {
    const double unit = 1.0 / steps;
    double cpu = 0.0, io = 0.0;
    for (const sim::ResourceShare& share : solution.allocations) {
      if (share.cpu < unit - 1e-9 || share.io < unit - 1e-9) return false;
      cpu += share.cpu;
      io += share.io;
    }
    return solution.allocations.size() == problem_.NumWorkloads() &&
           cpu <= 1.0 + 1e-9 && io <= 1.0 + 1e-9;
  }

  Tracer* tracer_;
  uint64_t seed_;
  bool corrupt_;
  calib::CalibrationStore store_;
  std::unique_ptr<exec::Database> db_;
  core::VirtualizationDesignProblem problem_;
  core::VirtualizationDesignProblem sub_;
};

// ---------------------------------------------------------------------------
// tenants: two tenants of an in-process server, 2+2 closed-loop clients.

/// A statement with the rows the reference evaluator expects, each row's
/// cells rendered as the wire renders them (nullopt for NULL).
struct Statement {
  std::string label;
  std::string sql;
  bool ordered = false;
  std::vector<server::WireRow> expected;
};

Result<std::vector<server::WireRow>> ReferenceRows(vdb::catalog::Catalog* cat,
                                                   const std::string& sql) {
  VDB_ASSIGN_OR_RETURN(std::unique_ptr<vdb::sql::SelectStatement> stmt,
                       vdb::sql::ParseSelect(sql));
  vdb::fuzz::ReferenceEvaluator oracle(cat);
  VDB_ASSIGN_OR_RETURN(vdb::fuzz::RefResult result, oracle.Evaluate(*stmt));
  std::vector<server::WireRow> rows;
  for (const vdb::catalog::Tuple& tuple : result.rows) {
    server::WireRow row;
    for (const vdb::catalog::Value& value : tuple) {
      if (value.is_null()) {
        row.emplace_back(std::nullopt);
      } else {
        row.emplace_back(value.ToString());
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Cells agree when equal as text or, for numbers, within 1e-9 relative:
/// the engine and the reference sum doubles in different orders.
bool SameCell(const std::optional<std::string>& a,
              const std::optional<std::string>& b) {
  if (!a || !b) return !a && !b;
  if (*a == *b) return true;
  char* end_a = nullptr;
  char* end_b = nullptr;
  const double x = std::strtod(a->c_str(), &end_a);
  const double y = std::strtod(b->c_str(), &end_b);
  if (end_a == a->c_str() || *end_a != '\0' || end_b == b->c_str() ||
      *end_b != '\0') {
    return false;
  }
  return std::abs(x - y) <= 1e-9 * std::max({1.0, std::abs(x), std::abs(y)});
}

bool SameRows(std::vector<server::WireRow> got,
              std::vector<server::WireRow> want, bool ordered) {
  if (got.size() != want.size()) return false;
  if (!ordered) {
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size()) return false;
    for (size_t c = 0; c < got[r].size(); ++c) {
      if (!SameCell(got[r][c], want[r][c])) return false;
    }
  }
  return true;
}

class Tenants : public Workload {
 public:
  Tenants(Tracer* tracer, uint64_t seed, bool corrupt)
      : tracer_(tracer), seed_(seed), corrupt_(corrupt) {}

  ~Tenants() override {
    clients_.clear();
    if (server_) server_->Stop();
  }

  Status SetUp(Report* report) override {
    std::vector<server::TenantConfig> tenants(2);
    tenants[0].name = "lookup";
    tenants[0].dataset = "synthetic:" + std::to_string(kEventRows);
    tenants[1].name = "report";
    tenants[1].dataset = "tpch:0.01";
    for (server::TenantConfig& t : tenants) {
      t.cpu_share = t.mem_share = t.io_share = 0.5;
      // High enough that nothing is rejected: 2 clients each.
      t.max_concurrent = 16;
      t.queue_depth = 16;
    }
    for (int i = 0; i < kSetups; ++i) {
      if (server_) server_->Stop();
      server_.reset();
      const Clock::time_point start = Clock::now();
      ScopedSpan span(tracer_, "server.Server.Start");
      server::ServerOptions options;
      options.num_workers = 4;
      server_ = std::make_unique<server::Server>(options, tenants);
      VDB_RETURN_NOT_OK(server_->Start());
      report->setup_s.push_back(SecondsSince(start));
    }

    // Reference answers, from private copies of the two datasets built
    // exactly as the server builds them.
    exec::Database events;
    {
      ScopedSpan span(tracer_, "datagen.GenerateTable");
      VDB_RETURN_NOT_OK(datagen::GenerateTable(
          events.catalog(), "events", server::SyntheticEventColumns(),
          kEventRows, server::kSyntheticSeed));
      SetLoadAttrs(events.catalog(), &span);
    }
    datagen::TpchConfig tpch;
    tpch.scale_factor = 0.01;
    VDB_ASSIGN_OR_RETURN(std::unique_ptr<exec::Database> tpch_db,
                         LoadTpch(tracer_, tpch));

    std::mt19937_64 rng(Mix(seed_, 1));
    std::uniform_int_distribution<int> key(0, kEventRows - kLookupWidth);
    for (int i = 0; i < kLookupPool; ++i) {
      const int k = key(rng);
      Statement s;
      s.label = "lookup";
      s.sql = "SELECT id, grp, val, note FROM events WHERE id BETWEEN " +
              std::to_string(k) + " AND " + std::to_string(k + kLookupWidth - 1);
      VDB_ASSIGN_OR_RETURN(s.expected, ReferenceRows(events.catalog(), s.sql));
      lookups_.push_back(std::move(s));
    }
    for (int number : kReports) {
      Statement s;
      s.label = "q" + std::to_string(number);
      VDB_ASSIGN_OR_RETURN(s.sql, datagen::TpchQuery(number));
      s.ordered = s.sql.find("ORDER BY") != std::string::npos;
      VDB_ASSIGN_OR_RETURN(s.expected, ReferenceRows(tpch_db->catalog(), s.sql));
      reports_.push_back(std::move(s));
    }
    if (corrupt_) lookups_[0].expected.pop_back();

    for (int c = 0; c < kClients; ++c) {
      VDB_ASSIGN_OR_RETURN(server::WireClient client,
                           server::WireClient::Connect("127.0.0.1", server_->port()));
      clients_.push_back(std::move(client));
    }
    order_rng_.seed(Mix(seed_, 2));
    return Status::OK();
  }

  void RunRound(int index, Round* round, Report* report) override {
    // Each lookup client sends kLookupsPerClient statements and each
    // report client every report statement kReportRepeats times, in a
    // per-round order drawn from the seed.
    std::vector<std::vector<const Statement*>> plan(kClients);
    for (int c = 0; c < kClients; ++c) {
      std::vector<const Statement*>& mine = plan[c];
      if (c < 2) {
        for (int i = 0; i < kLookupsPerClient; ++i) {
          mine.push_back(&lookups_[(c * kLookupsPerClient + i) % lookups_.size()]);
        }
      } else {
        for (int r = 0; r < kReportRepeats; ++r) {
          for (const Statement& s : reports_) mine.push_back(&s);
        }
      }
      std::shuffle(mine.begin(), mine.end(), order_rng_);
    }

    std::vector<std::vector<Request>> results(kClients);
    std::vector<int> mismatches(kClients, 0);
    const double rows = Counter("exec.batch.rows_produced");
    const Stopwatch watch;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const char* tenant = c < 2 ? "lookup" : "report";
        for (const Statement* s : plan[c]) {
          Request q;
          q.round = index;
          q.cls = tenant;
          q.label = s->label;
          ScopedSpan span(tracer_, "server.WireClient.Query", s->label);
          const Clock::time_point sent = Clock::now();
          Result<server::WireResponse> response = clients_[c].Query(tenant, s->sql);
          q.latency_ms = 1e3 * SecondsSince(sent);
          if (response.ok() && response->error.ok()) {
            q.ok = true;
            q.stats = response->stats;
            if (!SameRows(response->rows, s->expected, s->ordered)) ++mismatches[c];
          } else {
            std::fprintf(stderr, "[vdbbench] %s request failed: %s\n", tenant,
                         (response.ok() ? response->error : response.status())
                             .ToString()
                             .c_str());
          }
          span.Set("latency_ms", q.latency_ms);
          results[c].push_back(std::move(q));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    round->host_s = watch.WallSeconds();
    round->cpu_s = watch.CpuSeconds();
    if (tracer_->enabled()) {
      round->values = {{"exec_rows", Counter("exec.batch.rows_produced") - rows}};
    }

    int bad = 0;
    for (int c = 0; c < kClients; ++c) {
      bad += mismatches[c];
      for (Request& q : results[c]) {
        ++round->attempted;
        if (!q.ok) ++round->failed;
        report->requests.push_back(std::move(q));
      }
    }
    report->checks.push_back({"rows_match_reference", bad == 0,
                              "round " + std::to_string(index) + ": " +
                                  std::to_string(bad) + " mismatched responses"});
  }

 private:
  static constexpr int kSetups = 5;
  static constexpr int kClients = 4;  // 0-1 lookup, 2-3 report
  static constexpr int kEventRows = 50000;
  static constexpr int kLookupWidth = 10;
  static constexpr int kLookupPool = 32;
  static constexpr int kLookupsPerClient = 24;
  // TPC-H statements the reference evaluator answers within set-up.
  static constexpr int kReports[] = {1, 6};
  static constexpr int kReportRepeats = 4;

  Tracer* tracer_;
  uint64_t seed_;
  bool corrupt_;
  std::unique_ptr<server::Server> server_;
  std::vector<server::WireClient> clients_;
  std::vector<Statement> lookups_;
  std::vector<Statement> reports_;
  std::mt19937_64 order_rng_;
};

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) != "0";
    } else if (arg == "--corrupt") {
      corrupt = true;
    } else {
      std::fprintf(stderr, "vdbbench: bad argument %s\n", arg.c_str());
      return 2;
    }
  }

  Tracer tracer;
  std::unique_ptr<Workload> w;
  if (workload == "advisor-fig5") {
    w = std::make_unique<AdvisorFig5>(&tracer, seed, corrupt);
  } else if (workload == "design-search") {
    w = std::make_unique<DesignSearch>(&tracer, seed, corrupt);
  } else if (workload == "tenants") {
    w = std::make_unique<Tenants>(&tracer, seed, corrupt);
  } else {
    std::fprintf(stderr, "vdbbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  // A traced run traces set-up too: it holds the only load spans of some
  // workloads.
  tracer.set_enabled(trace);
  obs::MetricsRegistry::Global().set_enabled(trace);
  Report report;
  const Status setup = w->SetUp(&report);
  if (!setup.ok()) {
    std::fprintf(stderr, "vdbbench: set-up failed: %s\n", setup.ToString().c_str());
    return 1;
  }
  const Clock::time_point start = Clock::now();
  for (int index = 0; index == 0 || SecondsSince(start) < seconds; ++index) {
    Round round;
    w->RunRound(index, &round, &report);
    report.rounds.push_back(round);
    std::fprintf(stderr, "[vdbbench] %s round %d: %.3f s (%.3f s CPU), %d/%d failed\n",
                 workload.c_str(), index, round.host_s, round.cpu_s,
                 round.failed, round.attempted);
  }
  tracer.set_enabled(false);
  w.reset();  // stops the server and joins its threads
  std::printf("%s\n", ToJson(workload, seed, report, tracer.Take()).c_str());
  return 0;
}

}  // namespace
}  // namespace vdbbench

int main(int argc, char** argv) { return vdbbench::Main(argc, argv); }
