// Vectorized-engine tests: pins down the Batch/ValueVector representation
// (null maps, selection vectors, empty batches) and cross-checks the
// BatchExecutor against the row-at-a-time Executor on the cases where
// batching is easiest to get wrong — LIMIT 0, LIMIT crossing a batch
// boundary, string payloads crossing batches in Sort and MergeJoin,
// filters that leave whole batches empty mid-stream, empty tables, hash
// joins with an empty build side, semi/anti probes, and aggregates with
// thousands of groups or DISTINCT arguments.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/batch.h"
#include "catalog/catalog.h"
#include "exec/batch_executor.h"
#include "exec/database.h"
#include "exec/execution_context.h"
#include "exec/executor.h"
#include "optimizer/physical.h"
#include "plan/expr.h"
#include "sim/machine.h"
#include "sim/virtual_machine.h"

namespace vdb::exec {
namespace {

using catalog::Batch;
using catalog::Column;
using catalog::Schema;
using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;
using catalog::ValueVector;
using optimizer::PhysMergeJoin;
using optimizer::PhysSeqScan;
using optimizer::PhysSort;
using optimizer::PhysicalNodePtr;
using plan::BinaryBoundExpr;
using plan::BoundExprPtr;
using plan::ColumnExpr;
using plan::ColumnId;
using plan::ConstantExpr;
using plan::MakeLayout;
using plan::OutputColumn;

// --- Representation-level tests -------------------------------------------

// A comparison `col <op> literal` resolved against a single-column layout.
BoundExprPtr Comparison(sql::BinaryOp op, TypeId col_type, Value literal) {
  ColumnId id{0, 0};
  auto expr = std::make_unique<BinaryBoundExpr>(
      op, std::make_unique<ColumnExpr>(id, "c", col_type),
      std::make_unique<ConstantExpr>(std::move(literal)), TypeId::kBool);
  VDB_CHECK_OK(expr->ResolveSlots(
      MakeLayout({OutputColumn{id, "c", col_type}})));
  return expr;
}

TEST(ValueVectorTest, RoundTripAndHashParity) {
  ValueVector v;
  v.Reset(TypeId::kString, 3);
  v.SetString(0, "alpha");
  v.SetNull(1);
  v.SetValue(2, Value::String("omega"));
  EXPECT_EQ(v.GetValue(0), Value::String("alpha"));
  EXPECT_TRUE(v.GetValue(1).is_null());
  EXPECT_EQ(v.GetString(2), "omega");
  EXPECT_EQ(v.HashAt(0), Value::String("alpha").Hash());

  ValueVector ints;
  ints.Reset(TypeId::kInt64, 2);
  ints.SetInt64(0, -7);
  ints.SetNull(1);
  EXPECT_EQ(ints.HashAt(0), Value::Int64(-7).Hash());
  EXPECT_EQ(ints.HashAt(1), Value::Null(TypeId::kInt64).Hash());

  // CopyFrom moves payload and null state together.
  ValueVector dst;
  dst.Reset(TypeId::kInt64, 2);
  dst.CopyFrom(ints, 0, 1);
  dst.CopyFrom(ints, 1, 0);
  EXPECT_TRUE(dst.IsNull(0));
  EXPECT_EQ(dst.GetInt64(1), -7);
}

TEST(BatchTest, EmptyBatchKernelsAreNoops) {
  Batch batch;
  batch.Reset({TypeId::kInt64}, 0);
  batch.SetRowCount(0);
  ASSERT_EQ(batch.NumActive(), 0u);

  BoundExprPtr pred = Comparison(sql::BinaryOp::kGt, TypeId::kInt64,
                                 Value::Int64(5));
  ValueVector out;
  pred->EvaluateBatch(batch, &out);
  EXPECT_EQ(out.size(), 0u);
  pred->FilterBatch(&batch);
  EXPECT_EQ(batch.NumActive(), 0u);
}

TEST(BatchTest, ChainedFiltersShrinkSelectionInPlace) {
  Batch batch;
  batch.Reset({TypeId::kInt64}, 100);
  for (size_t i = 0; i < 100; ++i) {
    batch.columns[0].SetInt64(i, static_cast<int64_t>(i));
  }
  batch.SetRowCount(100);

  Comparison(sql::BinaryOp::kGt, TypeId::kInt64, Value::Int64(10))
      ->FilterBatch(&batch);
  Comparison(sql::BinaryOp::kLt, TypeId::kInt64, Value::Int64(20))
      ->FilterBatch(&batch);

  ASSERT_EQ(batch.NumActive(), 9u);
  // Column data is untouched; only the selection vector shrinks, and it
  // stays in ascending order.
  EXPECT_EQ(batch.num_rows, 100u);
  for (size_t i = 0; i < batch.sel.size(); ++i) {
    EXPECT_EQ(batch.sel[i], 11 + i);
    EXPECT_EQ(batch.RowAsTuple(batch.sel[i])[0], Value::Int64(11 + i));
  }
}

TEST(BatchTest, AllNullColumnComparesToNullAndFiltersEverything) {
  Batch batch;
  batch.Reset({TypeId::kInt64}, 8);
  for (size_t i = 0; i < 8; ++i) batch.columns[0].SetNull(i);
  batch.SetRowCount(8);

  BoundExprPtr pred = Comparison(sql::BinaryOp::kGe, TypeId::kInt64,
                                 Value::Int64(0));
  ValueVector out;
  pred->EvaluateBatch(batch, &out);
  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(out.IsNull(i)) << "row " << i;
  }
  // NULL is not true, so the filter drops every row; the empty batch is
  // still structurally valid.
  pred->FilterBatch(&batch);
  EXPECT_EQ(batch.NumActive(), 0u);
  EXPECT_EQ(batch.num_rows, 8u);
}

// --- Engine cross-checks ---------------------------------------------------

// kTableRows > 2 * Batch::kDefaultRows so every streaming operator sees
// multiple batches, including a final partial one.
constexpr int64_t kTableRows = 2600;
// The edge tables (CreateEdgeTables): `big` is large enough for more than
// 4096 groups and ends in a partial batch (6500 = 6 * 1024 + 356);
// `small` is a 50-row build side; `nothing` is empty.
constexpr int64_t kBigRows = 6500;
constexpr int64_t kSmallRows = 50;

class BatchEngineTest : public ::testing::Test {
 protected:
  BatchEngineTest()
      : vm_("vm", sim::MachineSpec::Small(), sim::HypervisorModel::Ideal(),
            sim::ResourceShare(1.0, 1.0, 1.0)) {
    VDB_CHECK_OK(db_.ApplyVmConfig(vm_));
    auto table = db_.catalog()->CreateTable(
        "t", Schema({Column("id", TypeId::kInt64),
                     Column("name", TypeId::kString),
                     Column("grp", TypeId::kInt64),
                     Column("val", TypeId::kDouble)}));
    VDB_CHECK(table.ok());
    table_ = *table;
    for (int64_t id = 0; id < kTableRows; ++id) {
      // Names sort in a different order than ids, and every 7th value is
      // NULL so null handling is exercised in every batch.
      std::string name = "n" + std::to_string(id % 97) + "-" +
                         std::string(1 + id % 5, 'x') +
                         std::to_string(id);
      Value val = (id % 7 == 0) ? Value::Null(TypeId::kDouble)
                                : Value::Double(static_cast<double>(id) / 3);
      VDB_CHECK_OK(db_.catalog()->Insert(
          table_, Tuple{Value::Int64(id), Value::String(std::move(name)),
                        Value::Int64(id % 13), std::move(val)}));
    }
    VDB_CHECK_OK(db_.catalog()->AnalyzeAll());
  }

  // Adds the `big`, `small` and `nothing` tables. Only the tests that use
  // them pay for the 6500 inserts.
  void CreateEdgeTables() {
    auto big = db_.catalog()->CreateTable(
        "big", Schema({Column("id", TypeId::kInt64),
                       Column("name", TypeId::kString),
                       Column("grp", TypeId::kInt64),
                       Column("val", TypeId::kDouble)}));
    VDB_CHECK(big.ok());
    for (int64_t id = 0; id < kBigRows; ++id) {
      // Variable-length names shift record boundaries across pages.
      std::string name = "n" + std::string(1 + id % 9, 'x') +
                         std::to_string(id % 131);
      Value val = (id % 7 == 0) ? Value::Null(TypeId::kDouble)
                                : Value::Double(static_cast<double>(id) / 3);
      VDB_CHECK_OK(db_.catalog()->Insert(
          *big, Tuple{Value::Int64(id), Value::String(std::move(name)),
                      Value::Int64(id % 17), std::move(val)}));
    }
    auto small = db_.catalog()->CreateTable(
        "small", Schema({Column("id", TypeId::kInt64),
                         Column("tag", TypeId::kString)}));
    VDB_CHECK(small.ok());
    for (int64_t id = 0; id < kSmallRows; ++id) {
      VDB_CHECK_OK(db_.catalog()->Insert(
          *small, Tuple{Value::Int64(id),
                        Value::String("tag" + std::to_string(id))}));
    }
    auto nothing = db_.catalog()->CreateTable(
        "nothing", Schema({Column("id", TypeId::kInt64),
                           Column("val", TypeId::kDouble)}));
    VDB_CHECK(nothing.ok());
    VDB_CHECK_OK(db_.catalog()->AnalyzeAll());
  }

  QueryResult RunCold(ExecMode mode, const std::string& sql) {
    db_.set_exec_mode(mode);
    VDB_CHECK_OK(db_.DropCaches());
    auto result = db_.Execute(sql, vm_);
    VDB_CHECK(result.ok()) << sql << ": " << result.status();
    return *std::move(result);
  }

  // Runs `sql` cold on both engines and requires identical rows in
  // identical order, identical physical reads, and simulated charges equal
  // up to float rounding (the batch engine sums per-batch lumps of the
  // row engine's per-row charges). Returns the batch engine's result.
  QueryResult RunBoth(const std::string& sql) {
    QueryResult batch = RunCold(ExecMode::kBatch, sql);
    const QueryResult row = RunCold(ExecMode::kRow, sql);
    EXPECT_EQ(Render(batch.rows), Render(row.rows)) << sql;
    EXPECT_EQ(batch.physical_reads, row.physical_reads) << sql;
    const auto near = [](double x, double y) {
      return std::fabs(x - y) <=
             1e-12 + 1e-9 * std::max(std::fabs(x), std::fabs(y));
    };
    EXPECT_TRUE(near(batch.cpu_seconds, row.cpu_seconds))
        << sql << ": cpu " << batch.cpu_seconds << " vs " << row.cpu_seconds;
    EXPECT_TRUE(near(batch.io_seconds, row.io_seconds))
        << sql << ": io " << batch.io_seconds << " vs " << row.io_seconds;
    EXPECT_TRUE(near(batch.elapsed_seconds, row.elapsed_seconds))
        << sql << ": elapsed " << batch.elapsed_seconds << " vs "
        << row.elapsed_seconds;
    return batch;
  }

  static std::vector<std::string> Render(const std::vector<Tuple>& rows) {
    std::vector<std::string> out;
    out.reserve(rows.size());
    for (const Tuple& row : rows) {
      std::string line;
      for (const Value& v : row) {
        line += v.is_null() ? "<null>" : v.ToString();
        line += '|';
      }
      out.push_back(std::move(line));
    }
    return out;
  }

  sim::VirtualMachine vm_;
  Database db_;
  catalog::TableInfo* table_ = nullptr;
};

TEST_F(BatchEngineTest, LimitZeroProducesNoRows) {
  EXPECT_TRUE(RunBoth("SELECT id FROM t LIMIT 0").rows.empty());
  EXPECT_TRUE(RunBoth("SELECT id FROM t ORDER BY name LIMIT 0").rows.empty());
}

TEST_F(BatchEngineTest, LimitCrossingBatchBoundary) {
  // 1500 rows spans one full 1024-row batch plus a partial second one.
  auto rows = RunBoth("SELECT id FROM t LIMIT 1500").rows;
  ASSERT_EQ(rows.size(), 1500u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0], Value::Int64(static_cast<int64_t>(i)));
  }
  // Exactly one batch plus one row.
  EXPECT_EQ(RunBoth("SELECT id FROM t LIMIT 1025").rows.size(), 1025u);
}

TEST_F(BatchEngineTest, LimitChargesMatchRowEngineExactly) {
  // Regression: the batch engine used to deserialize (and charge for) a
  // whole 1024-row batch even when a small LIMIT consumed only a few
  // rows. The capped subtree now runs at the row engine's granularity, so
  // simulated charges agree exactly — not just to a tolerance — on every
  // LIMIT shape, including data-dependent early exits mid-batch.
  // ORDER BY ... LIMIT is absent: the optimizer fuses it into TopN,
  // which both engines run natively (the row engine per row, the batch
  // engine as per-batch lump sums), so it only agrees to float rounding
  // like every other lump-summed operator. Plain LIMIT plans agree
  // exactly.
  const std::vector<std::string> queries = {
      "SELECT id FROM t LIMIT 3",
      "SELECT id FROM t LIMIT 0",
      "SELECT id, val FROM t WHERE grp = 5 LIMIT 7",
      "SELECT grp, COUNT(*) FROM t GROUP BY grp LIMIT 4",
      "SELECT id FROM t LIMIT 1025",
  };
  for (const std::string& sql : queries) {
    db_.set_exec_mode(ExecMode::kBatch);
    VDB_CHECK_OK(db_.DropCaches());
    auto batch = db_.Execute(sql, vm_);
    VDB_CHECK(batch.ok()) << batch.status();
    db_.set_exec_mode(ExecMode::kRow);
    VDB_CHECK_OK(db_.DropCaches());
    auto row = db_.Execute(sql, vm_);
    VDB_CHECK(row.ok()) << row.status();
    EXPECT_EQ(Render(batch->rows), Render(row->rows)) << sql;
    EXPECT_EQ(batch->physical_reads, row->physical_reads) << sql;
    EXPECT_DOUBLE_EQ(batch->cpu_seconds, row->cpu_seconds) << sql;
    EXPECT_DOUBLE_EQ(batch->io_seconds, row->io_seconds) << sql;
    EXPECT_DOUBLE_EQ(batch->elapsed_seconds, row->elapsed_seconds) << sql;
  }
}

TEST_F(BatchEngineTest, EmptyBatchesPropagateThroughTheTree) {
  // Only the tail of the table matches: every earlier batch reaches the
  // filter and leaves it with zero active rows, and downstream operators
  // must keep pulling.
  auto tail = RunBoth("SELECT id FROM t WHERE id >= 2500 ORDER BY id").rows;
  ASSERT_EQ(tail.size(), static_cast<size_t>(kTableRows - 2500));
  EXPECT_EQ(tail.front()[0], Value::Int64(2500));
  // Nothing matches at all.
  EXPECT_TRUE(RunBoth("SELECT id FROM t WHERE val < 0.0").rows.empty());
  // An aggregate over zero rows still yields its one global row.
  auto counted = RunBoth("SELECT COUNT(*) FROM t WHERE val < 0.0").rows;
  ASSERT_EQ(counted.size(), 1u);
  EXPECT_EQ(counted[0][0], Value::Int64(0));
}

TEST_F(BatchEngineTest, EmptyTableChargesNothing) {
  CreateEdgeTables();
  for (const char* sql :
       {"SELECT id FROM nothing", "SELECT id FROM nothing WHERE val > 0.0"}) {
    const QueryResult result = RunBoth(sql);
    EXPECT_TRUE(result.rows.empty()) << sql;
    EXPECT_EQ(result.physical_reads, 0u) << sql;
    EXPECT_EQ(result.cpu_seconds, 0.0) << sql;
    EXPECT_EQ(result.io_seconds, 0.0) << sql;
  }
  const QueryResult counted = RunBoth("SELECT COUNT(*) FROM nothing");
  ASSERT_EQ(counted.rows.size(), 1u);
  EXPECT_EQ(counted.rows[0][0], Value::Int64(0));
  EXPECT_EQ(counted.physical_reads, 0u);
}

TEST_F(BatchEngineTest, ScanFilterProjectAcrossBatchBoundaries) {
  // 6500 rows end mid-batch.
  CreateEdgeTables();
  EXPECT_EQ(RunBoth("SELECT id, name, val FROM big").rows.size(),
            static_cast<size_t>(kBigRows));
  EXPECT_EQ(RunBoth("SELECT id FROM big WHERE grp = 3").rows.size(), 383u);
  EXPECT_EQ(
      RunBoth("SELECT id + grp, val * 2.0 FROM big WHERE id % 5 = 1")
          .rows.size(),
      1300u);
}

TEST_F(BatchEngineTest, HashJoinProbeAcrossUnalignedBatches) {
  // Inner and LEFT hash joins probing across batch boundaries, with a
  // residual predicate charged per key-equal match.
  CreateEdgeTables();
  EXPECT_EQ(RunBoth("SELECT b.id, s.tag FROM big b, small s "
                    "WHERE b.grp = s.id AND b.id > s.id * 10 ORDER BY b.id")
                .rows.size(),
            6419u);
  EXPECT_EQ(RunBoth("SELECT b.id, s.tag FROM big b LEFT JOIN small s "
                    "ON b.grp = s.id AND s.id > 8 ORDER BY b.id, s.tag")
                .rows.size(),
            static_cast<size_t>(kBigRows));
}

TEST_F(BatchEngineTest, HashJoinProbeWithEmptyBuildSide) {
  // The inner join plans as a nested loop and emits nothing; the LEFT
  // hash join probes every row against an empty build table and pads
  // each with NULLs.
  CreateEdgeTables();
  EXPECT_TRUE(
      RunBoth("SELECT b.id, n.val FROM big b, nothing n WHERE b.id = n.id")
          .rows.empty());
  EXPECT_EQ(RunBoth("SELECT b.id, n.val FROM big b LEFT JOIN nothing n "
                    "ON b.id = n.id ORDER BY b.id")
                .rows.size(),
            static_cast<size_t>(kBigRows));
}

TEST_F(BatchEngineTest, SemiAndAntiJoinProbesMatchRowEngine) {
  // SEMI / ANTI hash-join probes stop at the first passing match.
  CreateEdgeTables();
  EXPECT_EQ(RunBoth("SELECT id FROM big b WHERE EXISTS (SELECT 1 FROM "
                    "small s WHERE s.id = b.grp AND s.id < 10) ORDER BY id")
                .rows.size(),
            3826u);
  EXPECT_EQ(RunBoth("SELECT id FROM big b WHERE NOT EXISTS (SELECT 1 FROM "
                    "small s WHERE s.id = b.grp AND s.id > 5) ORDER BY id")
                .rows.size(),
            2298u);
  EXPECT_EQ(RunBoth("SELECT id FROM big WHERE grp NOT IN "
                    "(SELECT id FROM small WHERE id < 10) ORDER BY id")
                .rows.size(),
            2674u);
}

TEST_F(BatchEngineTest, JoinsAndOrderByMatchRowEngine) {
  CreateEdgeTables();
  EXPECT_EQ(RunBoth("SELECT b.id, s.tag FROM big b, small s "
                    "WHERE b.grp = s.id ORDER BY b.id")
                .rows.size(),
            static_cast<size_t>(kBigRows));
  EXPECT_EQ(
      RunBoth("SELECT name, val FROM big ORDER BY name, id LIMIT 100")
          .rows.size(),
      100u);
}

TEST_F(BatchEngineTest, WideGroupAggregateMatchesRowEngine) {
  // More than 4096 groups.
  CreateEdgeTables();
  EXPECT_EQ(
      RunBoth("SELECT id, COUNT(*), SUM(val) FROM big GROUP BY id").rows.size(),
      static_cast<size_t>(kBigRows));
}

TEST_F(BatchEngineTest, DistinctAggregatesMatchRowEngine) {
  CreateEdgeTables();
  EXPECT_EQ(RunBoth("SELECT COUNT(DISTINCT grp) FROM big").rows.size(), 1u);
  EXPECT_EQ(
      RunBoth("SELECT grp, COUNT(DISTINCT name) FROM big GROUP BY grp")
          .rows.size(),
      17u);
}

TEST_F(BatchEngineTest, DistinctWideGroupMatchesRowEngine) {
  CreateEdgeTables();
  EXPECT_EQ(RunBoth("SELECT id, COUNT(DISTINCT name) FROM big GROUP BY id")
                .rows.size(),
            static_cast<size_t>(kBigRows));
}

TEST_F(BatchEngineTest, SortStringsAcrossBatches) {
  auto rows = RunBoth("SELECT name, id FROM t ORDER BY name, id").rows;
  ASSERT_EQ(rows.size(), static_cast<size_t>(kTableRows));
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1][0].AsString(), rows[i][0].AsString())
        << "row " << i;
  }
}

TEST_F(BatchEngineTest, AggregatesWithNullsMatchRowEngine) {
  const std::string sql =
      "SELECT grp, COUNT(*), SUM(val), MIN(name) FROM t GROUP BY grp "
      "ORDER BY grp";
  auto rows = RunBoth(sql).rows;
  EXPECT_EQ(rows.size(), 13u);
  RunBoth("SELECT grp, AVG(val) FROM t GROUP BY grp ORDER BY grp");
}

TEST_F(BatchEngineTest, MergeJoinStringsAcrossBatches) {
  // A self merge-join on the string column: both inputs exceed one batch,
  // so string payloads must survive the sort and the join's row
  // re-emission across batch boundaries.
  auto scan_node = [&](int table_id) {
    auto scan = std::make_unique<PhysSeqScan>();
    scan->table = table_;
    scan->alias = "t" + std::to_string(table_id);
    for (size_t i = 0; i < table_->schema.NumColumns(); ++i) {
      scan->output.push_back(
          OutputColumn{ColumnId{table_id, static_cast<int>(i)},
                       table_->schema.column(i).name,
                       table_->schema.column(i).type});
    }
    return scan;
  };
  auto merge = std::make_unique<PhysMergeJoin>();
  auto left = scan_node(0);
  auto right = scan_node(1);
  auto key_of = [](const optimizer::PhysicalNode& node) {
    const OutputColumn& column = node.output[1];  // name
    return std::make_unique<ColumnExpr>(column.id, column.name, column.type);
  };
  merge->left_key = key_of(*left);
  merge->right_key = key_of(*right);
  merge->output = left->output;
  merge->output.insert(merge->output.end(), right->output.begin(),
                       right->output.end());
  auto sorted = [](PhysicalNodePtr child, const BoundExprPtr& key) {
    auto sort = std::make_unique<PhysSort>();
    PhysSort::Key sort_key;
    sort_key.expr = key->Clone();
    sort->keys.push_back(std::move(sort_key));
    sort->output = child->output;
    sort->children.push_back(std::move(child));
    return sort;
  };
  merge->children.push_back(sorted(std::move(left), merge->left_key));
  merge->children.push_back(sorted(std::move(right), merge->right_key));

  const uint64_t work_mem = 64ull << 20;
  ExecutionContext batch_context(&vm_, db_.buffer_pool(), work_mem);
  BatchExecutor batch_executor(&batch_context);
  auto batch_rows = batch_executor.Run(*merge);
  VDB_CHECK(batch_rows.ok()) << batch_rows.status();

  ExecutionContext row_context(&vm_, db_.buffer_pool(), work_mem);
  Executor row_executor(&row_context);
  auto row_rows = row_executor.Run(*merge);
  VDB_CHECK(row_rows.ok()) << row_rows.status();

  // Names are unique, so the self-join is exactly one row per input row.
  ASSERT_EQ(batch_rows->size(), static_cast<size_t>(kTableRows));
  EXPECT_EQ(Render(*batch_rows), Render(*row_rows));
  for (const Tuple& row : *batch_rows) {
    EXPECT_EQ(row[1], row[5]);  // joined on name
    EXPECT_EQ(row[0], row[4]);  // names are unique, so ids agree too
  }
}

}  // namespace
}  // namespace vdb::exec
