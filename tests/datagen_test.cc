#include <set>
#include <string>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "datagen/calibration_db.h"
#include "datagen/synthetic.h"
#include "datagen/tpch.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/string_util.h"

namespace vdb::datagen {
namespace {

using catalog::Catalog;
using catalog::DeserializeTuple;
using catalog::TableInfo;
using catalog::Tuple;
using catalog::TypeId;

class DatagenTest : public ::testing::Test {
 protected:
  DatagenTest() : pool_(&disk_, 4096), catalog_(&disk_, &pool_) {}

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  Catalog catalog_;
};

TEST_F(DatagenTest, GenerateTableBasics) {
  ColumnSpec id;
  id.name = "id";
  id.distribution = Distribution::kSequential;
  ColumnSpec v;
  v.name = "v";
  v.distribution = Distribution::kUniform;
  v.min_value = 0;
  v.max_value = 9;
  ASSERT_TRUE(GenerateTable(&catalog_, "t", {id, v}, 200, 1).ok());
  auto table = catalog_.GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->heap->NumRecords(), 200u);
  int64_t expected_id = 0;
  for (auto it = (*table)->heap->Begin(); it.Valid(); it.Next()) {
    auto tuple = DeserializeTuple(it.record(), (*table)->schema);
    ASSERT_TRUE(tuple.ok());
    EXPECT_EQ((*tuple)[0].AsInt64(), expected_id++);
    EXPECT_GE((*tuple)[1].AsInt64(), 0);
    EXPECT_LE((*tuple)[1].AsInt64(), 9);
  }
}

TEST_F(DatagenTest, DeterministicAcrossRuns) {
  ColumnSpec v;
  v.name = "v";
  v.distribution = Distribution::kUniform;
  v.min_value = 0;
  v.max_value = 1000000;
  ASSERT_TRUE(GenerateTable(&catalog_, "a", {v}, 100, 99).ok());
  ASSERT_TRUE(GenerateTable(&catalog_, "b", {v}, 100, 99).ok());
  auto ta = catalog_.GetTable("a");
  auto tb = catalog_.GetTable("b");
  auto ita = (*ta)->heap->Begin();
  auto itb = (*tb)->heap->Begin();
  while (ita.Valid() && itb.Valid()) {
    EXPECT_EQ(ita.record(), itb.record());
    ita.Next();
    itb.Next();
  }
  EXPECT_EQ(ita.Valid(), itb.Valid());
}

TEST_F(DatagenTest, NullFractionRespected) {
  ColumnSpec v;
  v.name = "v";
  v.distribution = Distribution::kUniform;
  v.null_fraction = 0.25;
  ASSERT_TRUE(GenerateTable(&catalog_, "t", {v}, 2000, 5).ok());
  auto table = catalog_.GetTable("t");
  int nulls = 0;
  for (auto it = (*table)->heap->Begin(); it.Valid(); it.Next()) {
    auto tuple = DeserializeTuple(it.record(), (*table)->schema);
    if ((*tuple)[0].is_null()) ++nulls;
  }
  EXPECT_NEAR(nulls / 2000.0, 0.25, 0.04);
}

TEST_F(DatagenTest, RandomTextLengthAndAlphabet) {
  Random rng(1);
  const std::string text = RandomText(40, &rng);
  EXPECT_GE(text.size(), 40u);
  EXPECT_LT(text.size(), 60u);
  for (char c : text) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || c == ' ') << c;
  }
}

TEST_F(DatagenTest, CalibrationDbShapes) {
  CalibrationDbConfig config;
  config.base_rows = 500;
  ASSERT_TRUE(GenerateCalibrationDb(&catalog_, config).ok());
  auto small = catalog_.GetTable("cal_small");
  auto large = catalog_.GetTable("cal_large");
  auto indexed = catalog_.GetTable("cal_indexed");
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ((*small)->heap->NumRecords(), 500u);
  EXPECT_EQ((*large)->heap->NumRecords(), 4000u);
  EXPECT_EQ((*indexed)->indexes.size(), 2u);
  EXPECT_TRUE((*small)->stats.Analyzed());
  // Column a is sequential-unique.
  EXPECT_EQ((*small)->stats.columns[0].ndv, 500u);
}

class TpchTest : public ::testing::Test {
 protected:
  TpchTest() : pool_(&disk_, 8192), catalog_(&disk_, &pool_) {
    TpchConfig config;
    config.scale_factor = 0.002;
    config.seed = 11;
    VDB_CHECK(GenerateTpch(&catalog_, config).ok());
  }

  TableInfo* Table(const std::string& name) {
    auto table = catalog_.GetTable(name);
    VDB_CHECK(table.ok());
    return *table;
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  Catalog catalog_;
};

TEST_F(TpchTest, AllTablesPresentWithExpectedCardinalities) {
  EXPECT_EQ(Table("region")->heap->NumRecords(), 5u);
  EXPECT_EQ(Table("nation")->heap->NumRecords(), 25u);
  const uint64_t customers = Table("customer")->heap->NumRecords();
  EXPECT_EQ(customers, 300u);  // 150000 * 0.002
  EXPECT_EQ(Table("orders")->heap->NumRecords(), customers * 10);
  const uint64_t orders = Table("orders")->heap->NumRecords();
  const uint64_t lines = Table("lineitem")->heap->NumRecords();
  EXPECT_GE(lines, orders);        // >= 1 line per order
  EXPECT_LE(lines, orders * 7);    // <= 7 lines per order
  EXPECT_EQ(Table("partsupp")->heap->NumRecords(),
            Table("part")->heap->NumRecords() * 4);
}

TEST_F(TpchTest, ForeignKeysResolve) {
  // Every order's custkey exists in customer (keys are 1..N sequential).
  const int64_t num_customers =
      static_cast<int64_t>(Table("customer")->heap->NumRecords());
  TableInfo* orders = Table("orders");
  for (auto it = orders->heap->Begin(); it.Valid(); it.Next()) {
    auto tuple = DeserializeTuple(it.record(), orders->schema);
    ASSERT_TRUE(tuple.ok());
    const int64_t custkey = (*tuple)[1].AsInt64();
    ASSERT_GE(custkey, 1);
    ASSERT_LE(custkey, num_customers);
  }
}

TEST_F(TpchTest, DatesConsistent) {
  TableInfo* lineitem = Table("lineitem");
  const auto& schema = lineitem->schema;
  const size_t ship = *schema.ColumnIndex("l_shipdate");
  const size_t commit = *schema.ColumnIndex("l_commitdate");
  const size_t receipt = *schema.ColumnIndex("l_receiptdate");
  for (auto it = lineitem->heap->Begin(); it.Valid(); it.Next()) {
    auto tuple = DeserializeTuple(it.record(), schema);
    ASSERT_TRUE(tuple.ok());
    const int64_t shipdate = (*tuple)[ship].AsInt64();
    const int64_t receiptdate = (*tuple)[receipt].AsInt64();
    ASSERT_GT(receiptdate, shipdate);
    ASSERT_GE((*tuple)[commit].AsInt64(), TpchStartDate());
    ASSERT_GE(shipdate, TpchStartDate());
    ASSERT_LE(receiptdate, TpchEndDate() + 31);
  }
}

TEST_F(TpchTest, SomeLineitemsMissCommitDate) {
  // Q4's EXISTS predicate needs lineitems with commitdate < receiptdate;
  // with commit ~ U[30,90] and receipt up to 152 days out, a large
  // fraction qualifies but not all.
  TableInfo* lineitem = Table("lineitem");
  const auto& schema = lineitem->schema;
  const size_t commit = *schema.ColumnIndex("l_commitdate");
  const size_t receipt = *schema.ColumnIndex("l_receiptdate");
  uint64_t late = 0;
  uint64_t total = 0;
  for (auto it = lineitem->heap->Begin(); it.Valid(); it.Next()) {
    auto tuple = DeserializeTuple(it.record(), schema);
    ++total;
    if ((*tuple)[commit].AsInt64() < (*tuple)[receipt].AsInt64()) ++late;
  }
  EXPECT_GT(late, 0u);
  EXPECT_LT(late, total);
}

TEST_F(TpchTest, SpecialRequestsCommentsRare) {
  TableInfo* orders = Table("orders");
  const size_t comment = *orders->schema.ColumnIndex("o_comment");
  uint64_t matches = 0;
  uint64_t total = 0;
  for (auto it = orders->heap->Begin(); it.Valid(); it.Next()) {
    auto tuple = DeserializeTuple(it.record(), orders->schema);
    ++total;
    if (LikeMatch((*tuple)[comment].AsString(), "%special%requests%")) {
      ++matches;
    }
  }
  EXPECT_GT(matches, 0u);
  EXPECT_LT(static_cast<double>(matches) / static_cast<double>(total), 0.05);
}

TEST_F(TpchTest, IndexesCreatedAndConsistent) {
  auto index = catalog_.GetIndex("orders_pk");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->tree->NumEntries(),
            Table("orders")->heap->NumRecords());
  auto lineitem_order = catalog_.GetIndex("lineitem_order");
  ASSERT_TRUE(lineitem_order.ok());
  EXPECT_EQ((*lineitem_order)->tree->NumEntries(),
            Table("lineitem")->heap->NumRecords());
  // Point lookup through the index returns that order's lineitems.
  auto rids = (*lineitem_order)->tree->Lookup(1);
  ASSERT_TRUE(rids.ok());
  EXPECT_GE(rids->size(), 1u);
  EXPECT_LE(rids->size(), 7u);
}

TEST_F(TpchTest, StatisticsAnalyzed) {
  TableInfo* orders = Table("orders");
  ASSERT_TRUE(orders->stats.Analyzed());
  EXPECT_EQ(orders->stats.row_count, orders->heap->NumRecords());
  const size_t date_col = *orders->schema.ColumnIndex("o_orderdate");
  const auto& date_stats = orders->stats.columns[date_col];
  EXPECT_GE(date_stats.min, static_cast<double>(TpchStartDate()));
  EXPECT_LE(date_stats.max, static_cast<double>(TpchEndDate()));
  EXPECT_FALSE(date_stats.histogram.empty());
  // o_orderpriority has exactly 5 distinct values.
  const size_t priority_col = *orders->schema.ColumnIndex("o_orderpriority");
  EXPECT_EQ(orders->stats.columns[priority_col].ndv, 5u);
}

// --- Byte identity of ingest -------------------------------------------------
//
// Every simulated charge downstream of a load depends on what the load
// builds: heap and index page images, page ids, buffer-pool counters,
// index shapes and ANALYZE statistics. These tests pin all of them for a
// TPC-H load and a calibration database, so ingest may get faster but may
// not change a byte of its output.

uint64_t Fnv1a(const void* data, size_t n, uint64_t hash) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

uint64_t DiskDigest(const storage::DiskManager& disk) {
  uint64_t hash = kFnvOffset;
  storage::Page page;
  for (storage::PageId id = 0; id < disk.NumPages(); ++id) {
    disk.ReadPage(id, &page);
    hash = Fnv1a(page.data(), storage::kPageSize, hash);
  }
  return hash;
}

// Digest of the bit patterns of every statistic, histogram bounds included.
uint64_t StatsDigest(const catalog::TableStats& stats) {
  uint64_t hash = kFnvOffset;
  auto fold = [&hash](const auto& v) { hash = Fnv1a(&v, sizeof(v), hash); };
  for (const catalog::ColumnStats& c : stats.columns) {
    fold(c.non_null_count);
    fold(c.null_count);
    fold(c.ndv);
    fold(c.min);
    fold(c.max);
    fold(c.avg_width);
    fold(c.histogram.bounds().size());
    for (const double bound : c.histogram.bounds()) fold(bound);
  }
  return hash;
}

// Pool counters (taken before the flush), the digest of every disk page
// after it, then one line per table (with its statistics digest) and per
// index.
std::string DescribeIngest(const Catalog& cat, storage::BufferPool* pool,
                           const storage::DiskManager& disk) {
  const storage::BufferPoolStats stats = pool->stats();
  pool->FlushAll();
  std::string out = "hits=" + std::to_string(stats.hits) +
                    " seq=" + std::to_string(stats.sequential_misses) +
                    " rand=" + std::to_string(stats.random_misses) +
                    " writes=" + std::to_string(stats.page_writes) +
                    " disk_pages=" + std::to_string(disk.NumPages()) +
                    " digest=" + std::to_string(DiskDigest(disk)) + "\n";
  for (const TableInfo* table : cat.Tables()) {
    out += table->name + " rows=" + std::to_string(table->stats.row_count) +
           " pages=" + std::to_string(table->stats.page_count) +
           " stats=" + std::to_string(StatsDigest(table->stats)) + "\n";
    for (const catalog::IndexInfo* index : table->indexes) {
      out += "  " + index->name +
             " pages=" + std::to_string(index->tree->NumPages()) +
             " height=" + std::to_string(index->tree->Height()) +
             " entries=" + std::to_string(index->tree->NumEntries()) + "\n";
    }
  }
  return out;
}

TEST(IngestIdentityTest, TpchScaleFactor001) {
  // 1024 frames hold about a third of the load, so the pool evicts
  // throughout: the counters also pin the order of every fetch and unpin.
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 1024);
  Catalog cat(&disk, &pool);
  TpchConfig config;
  config.scale_factor = 0.01;
  ASSERT_TRUE(GenerateTpch(&cat, config).ok());
  EXPECT_EQ(DescribeIngest(cat, &pool, disk),
            "hits=811620 seq=5708 rand=2394 writes=2394 disk_pages=2394"
            " digest=8371054271700871197\n"
            "region rows=5 pages=1 stats=11783969314389223338\n"
            "  region_pk pages=1 height=1 entries=5\n"
            "nation rows=25 pages=1 stats=2626750372383689404\n"
            "  nation_pk pages=1 height=1 entries=25\n"
            "supplier rows=100 pages=1 stats=5191862344382065609\n"
            "  supplier_pk pages=1 height=1 entries=100\n"
            "customer rows=1500 pages=19 stats=3390938014930788719\n"
            "  customer_pk pages=6 height=2 entries=1500\n"
            "part rows=2000 pages=24 stats=4710363117455794479\n"
            "  part_pk pages=8 height=2 entries=2000\n"
            "partsupp rows=8000 pages=40 stats=17473910826548286348\n"
            "  partsupp_part pages=32 height=2 entries=8000\n"
            "  partsupp_supp pages=22 height=2 entries=8000\n"
            "orders rows=15000 pages=232 stats=398473649702574690\n"
            "  orders_pk pages=60 height=2 entries=15000\n"
            "  orders_cust pages=41 height=2 entries=15000\n"
            "  orders_date pages=40 height=2 entries=15000\n"
            "lineitem rows=59412 pages=1295 stats=530884424160165162\n"
            "  lineitem_order pages=238 height=2 entries=59412\n"
            "  lineitem_part pages=163 height=2 entries=59412\n"
            "  lineitem_shipdate pages=168 height=2 entries=59412\n");
}

TEST(IngestIdentityTest, CalibrationDb) {
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 128);
  Catalog cat(&disk, &pool);
  CalibrationDbConfig config;
  config.base_rows = 3000;
  ASSERT_TRUE(GenerateCalibrationDb(&cat, config).ok());
  EXPECT_EQ(DescribeIngest(cat, &pool, disk),
            "hits=47113 seq=418 rand=439 writes=439 disk_pages=439"
            " digest=427237373580344736\n"
            "cal_small rows=3000 pages=42 stats=4641159462060985662\n"
            "cal_large rows=24000 pages=334 stats=4589052174799219946\n"
            "cal_indexed rows=3000 pages=42 stats=2942513069740149322\n"
            "  cal_indexed_a pages=12 height=2 entries=3000\n"
            "  cal_indexed_b pages=9 height=2 entries=3000\n");
}

}  // namespace
}  // namespace vdb::datagen
