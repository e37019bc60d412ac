#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "catalog/stats.h"
#include "catalog/value.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/random.h"

namespace vdb::catalog {
namespace {

TEST(ValueTest, Constructors) {
  EXPECT_EQ(Value::Int64(5).AsInt64(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_TRUE(Value::Null(TypeId::kInt64).is_null());
  EXPECT_FALSE(Value::Int64(0).is_null());
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(Value::Int64(4).AsDouble(), 4.0);
  EXPECT_EQ(Value::Double(4.9).AsInt64(), 4);
  EXPECT_EQ(Value::Bool(true).AsInt64(), 1);
}

TEST(ValueTest, CompareNumericAcrossTypes) {
  EXPECT_LT(Value::Compare(Value::Int64(1), Value::Double(1.5)), 0);
  EXPECT_GT(Value::Compare(Value::Double(2.5), Value::Int64(2)), 0);
  EXPECT_EQ(Value::Compare(Value::Int64(3), Value::Double(3.0)), 0);
  EXPECT_EQ(Value::Compare(Value::Date(100), Value::Int64(100)), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value::Compare(Value::String("abc"), Value::String("abd")), 0);
  EXPECT_EQ(Value::Compare(Value::String("x"), Value::String("x")), 0);
}

TEST(ValueTest, EqualityNullSemantics) {
  EXPECT_FALSE(Value::Null(TypeId::kInt64) == Value::Null(TypeId::kInt64));
  EXPECT_FALSE(Value::Null(TypeId::kInt64) == Value::Int64(0));
  EXPECT_TRUE(Value::Int64(7) == Value::Int64(7));
}

TEST(ValueTest, NumericKeyPreservesStringOrder) {
  const Value a = Value::String("apple");
  const Value b = Value::String("banana");
  EXPECT_LT(a.NumericKey(), b.NumericKey());
  EXPECT_LT(Value::String("a").NumericKey(),
            Value::String("aa").NumericKey());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(-3).ToString(), "-3");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Null(TypeId::kString).ToString(), "NULL");
  EXPECT_EQ(Value::Date(DateFromYmd(1995, 6, 17)).ToString(), "1995-06-17");
}

TEST(DateTest, RoundTrips) {
  for (const auto& [y, m, d] : {std::tuple{1970, 1, 1}, {1992, 1, 1},
                                {1998, 8, 2}, {2000, 2, 29}, {1969, 12, 31}}) {
    const int64_t days = DateFromYmd(y, m, d);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
    EXPECT_EQ(DateToString(days), buf);
  }
  EXPECT_EQ(DateFromYmd(1970, 1, 1), 0);
  EXPECT_EQ(DateFromYmd(1970, 1, 2), 1);
}

TEST(DateTest, ParseValidAndInvalid) {
  auto d = ParseDate("1994-01-01");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, DateFromYmd(1994, 1, 1));
  EXPECT_FALSE(ParseDate("not-a-date").ok());
  EXPECT_FALSE(ParseDate("1994-13-01").ok());
  EXPECT_FALSE(ParseDate("1994-01-40").ok());
}

TEST(SchemaTest, ColumnLookupCaseInsensitive) {
  Schema schema({Column("A", TypeId::kInt64), Column("b", TypeId::kString)});
  auto idx = schema.ColumnIndex("a");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
  idx = schema.ColumnIndex("B");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_TRUE(schema.ColumnIndex("c").status().IsNotFound());
}

TEST(SchemaTest, Concat) {
  Schema a({Column("x", TypeId::kInt64)});
  Schema b({Column("y", TypeId::kDouble), Column("z", TypeId::kString)});
  Schema c = a.Concat(b);
  EXPECT_EQ(c.NumColumns(), 3u);
  EXPECT_EQ(c.column(2).name, "z");
}

TEST(TupleSerializationTest, RoundTripAllTypes) {
  Schema schema({Column("i", TypeId::kInt64), Column("d", TypeId::kDouble),
                 Column("s", TypeId::kString), Column("b", TypeId::kBool),
                 Column("t", TypeId::kDate)});
  Tuple tuple{Value::Int64(-77), Value::Double(3.25),
              Value::String("hello \0world"), Value::Bool(true),
              Value::Date(9000)};
  const std::string data = SerializeTuple(tuple, schema);
  auto back = DeserializeTuple(data, schema);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 5u);
  EXPECT_EQ((*back)[0].AsInt64(), -77);
  EXPECT_DOUBLE_EQ((*back)[1].AsDouble(), 3.25);
  EXPECT_EQ((*back)[2].AsString(), tuple[2].AsString());
  EXPECT_TRUE((*back)[3].AsBool());
  EXPECT_EQ((*back)[4].type(), TypeId::kDate);
  EXPECT_EQ((*back)[4].AsInt64(), 9000);
}

TEST(TupleSerializationTest, RoundTripNulls) {
  Schema schema({Column("i", TypeId::kInt64), Column("s", TypeId::kString)});
  Tuple tuple{Value::Null(TypeId::kInt64), Value::Null(TypeId::kString)};
  auto back = DeserializeTuple(SerializeTuple(tuple, schema), schema);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE((*back)[0].is_null());
  EXPECT_TRUE((*back)[1].is_null());
  EXPECT_EQ((*back)[0].type(), TypeId::kInt64);
}

TEST(TupleSerializationTest, TruncatedInputFails) {
  Schema schema({Column("i", TypeId::kInt64)});
  Tuple tuple{Value::Int64(5)};
  std::string data = SerializeTuple(tuple, schema);
  data.resize(data.size() - 1);
  EXPECT_FALSE(DeserializeTuple(data, schema).ok());
}

TEST(HistogramTest, UniformFractions) {
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(i);
  Histogram hist = Histogram::Build(std::move(values), 32);
  EXPECT_FALSE(hist.empty());
  EXPECT_NEAR(hist.FractionBelow(5000), 0.5, 0.05);
  EXPECT_NEAR(hist.FractionBetween(2500, 7500), 0.5, 0.05);
  EXPECT_DOUBLE_EQ(hist.FractionBelow(-1), 0.0);
  EXPECT_DOUBLE_EQ(hist.FractionBelow(10001), 1.0);
}

TEST(HistogramTest, SkewedData) {
  // 90% of values are < 10; the histogram should capture that.
  std::vector<double> values;
  for (int i = 0; i < 9000; ++i) values.push_back(i % 10);
  for (int i = 0; i < 1000; ++i) values.push_back(100 + i);
  Histogram hist = Histogram::Build(std::move(values), 32);
  EXPECT_NEAR(hist.FractionBelow(50), 0.9, 0.05);
}

TEST(HistogramTest, DegenerateSingleValue) {
  Histogram hist = Histogram::Build(std::vector<double>(100, 5.0), 32);
  EXPECT_DOUBLE_EQ(hist.FractionBelow(4.9), 0.0);
  EXPECT_DOUBLE_EQ(hist.FractionBelow(5.0), 1.0);
  EXPECT_NEAR(hist.FractionBetween(4.0, 6.0), 1.0, 1e-9);
}

TEST(HistogramTest, EmptyInput) {
  Histogram hist = Histogram::Build({}, 32);
  EXPECT_TRUE(hist.empty());
}

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : pool_(&disk_, 256), catalog_(&disk_, &pool_) {}

  TableInfo* MakePeople() {
    auto table = catalog_.CreateTable(
        "people", Schema({Column("id", TypeId::kInt64),
                          Column("age", TypeId::kInt64),
                          Column("name", TypeId::kString)}));
    VDB_CHECK(table.ok());
    return *table;
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  Catalog catalog_;
};

TEST_F(CatalogTest, CreateAndGetTable) {
  TableInfo* table = MakePeople();
  EXPECT_EQ(table->name, "people");
  auto found = catalog_.GetTable("PEOPLE");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, table);
  EXPECT_TRUE(catalog_.GetTable("nope").status().IsNotFound());
  EXPECT_TRUE(catalog_.CreateTable("people", table->schema)
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(
      catalog_.CreateTable("empty", Schema()).status().IsInvalidArgument());
}

TEST_F(CatalogTest, InsertAndScan) {
  TableInfo* table = MakePeople();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(catalog_
                    .Insert(table, Tuple{Value::Int64(i),
                                         Value::Int64(20 + i % 60),
                                         Value::String("p" +
                                                       std::to_string(i))})
                    .ok());
  }
  int count = 0;
  for (auto it = table->heap->Begin(); it.Valid(); it.Next()) {
    auto tuple = DeserializeTuple(it.record(), table->schema);
    ASSERT_TRUE(tuple.ok());
    EXPECT_EQ((*tuple)[0].AsInt64(), count);
    ++count;
  }
  EXPECT_EQ(count, 50);
}

TEST_F(CatalogTest, InsertArityMismatch) {
  TableInfo* table = MakePeople();
  EXPECT_TRUE(catalog_.Insert(table, Tuple{Value::Int64(1)})
                  .IsInvalidArgument());
}

TEST_F(CatalogTest, IndexBackfillAndMaintenance) {
  TableInfo* table = MakePeople();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(catalog_
                    .Insert(table, Tuple{Value::Int64(i),
                                         Value::Int64(i % 5),
                                         Value::String("x")})
                    .ok());
  }
  // Index created after load is back-filled.
  auto index = catalog_.CreateIndex("people_age", "people", "age");
  ASSERT_TRUE(index.ok());
  auto rids = (*index)->tree->Lookup(3);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 6u);
  // New inserts maintain the index.
  ASSERT_TRUE(catalog_
                  .Insert(table, Tuple{Value::Int64(100), Value::Int64(3),
                                       Value::String("y")})
                  .ok());
  rids = (*index)->tree->Lookup(3);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 7u);
}

TEST_F(CatalogTest, IndexedLookupFetchesCorrectTuples) {
  TableInfo* table = MakePeople();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(catalog_
                    .Insert(table, Tuple{Value::Int64(i),
                                         Value::Int64(1000 + i),
                                         Value::String("n" +
                                                       std::to_string(i))})
                    .ok());
  }
  auto index = catalog_.CreateIndex("people_id", "people", "id");
  ASSERT_TRUE(index.ok());
  auto rids = (*index)->tree->Lookup(17);
  ASSERT_TRUE(rids.ok());
  ASSERT_EQ(rids->size(), 1u);
  auto record =
      table->heap->Get(storage::RecordId::Unpack((*rids)[0]));
  ASSERT_TRUE(record.ok());
  auto tuple = DeserializeTuple(*record, table->schema);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ((*tuple)[1].AsInt64(), 1017);
  EXPECT_EQ((*tuple)[2].AsString(), "n17");
}

TEST_F(CatalogTest, IndexErrors) {
  MakePeople();
  EXPECT_TRUE(catalog_.CreateIndex("i1", "nope", "id").status().IsNotFound());
  EXPECT_TRUE(
      catalog_.CreateIndex("i1", "people", "nope").status().IsNotFound());
  EXPECT_TRUE(catalog_.CreateIndex("i1", "people", "name")
                  .status()
                  .IsNotSupported());
  ASSERT_TRUE(catalog_.CreateIndex("i1", "people", "id").ok());
  EXPECT_TRUE(catalog_.CreateIndex("i1", "people", "age")
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(catalog_.GetIndex("i1").ok());
  EXPECT_TRUE(catalog_.GetIndex("i2").status().IsNotFound());
}

TEST_F(CatalogTest, NullsSkippedByIndex) {
  TableInfo* table = MakePeople();
  ASSERT_TRUE(catalog_
                  .Insert(table, Tuple{Value::Int64(1),
                                       Value::Null(TypeId::kInt64),
                                       Value::String("a")})
                  .ok());
  auto index = catalog_.CreateIndex("people_age", "people", "age");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->tree->NumEntries(), 0u);
}

TEST_F(CatalogTest, AnalyzeComputesStats) {
  TableInfo* table = MakePeople();
  Random rng(3);
  const int rows = 500;
  for (int i = 0; i < rows; ++i) {
    const bool null_age = i % 10 == 0;
    ASSERT_TRUE(
        catalog_
            .Insert(table,
                    Tuple{Value::Int64(i),
                          null_age ? Value::Null(TypeId::kInt64)
                                   : Value::Int64(rng.UniformInt(0, 49)),
                          Value::String("name-" + std::to_string(i % 7))})
            .ok());
  }
  ASSERT_TRUE(catalog_.Analyze(table).ok());
  const TableStats& stats = table->stats;
  EXPECT_EQ(stats.row_count, static_cast<uint64_t>(rows));
  EXPECT_GT(stats.page_count, 0u);
  ASSERT_EQ(stats.columns.size(), 3u);
  // id: unique, no nulls.
  EXPECT_EQ(stats.columns[0].ndv, static_cast<uint64_t>(rows));
  EXPECT_EQ(stats.columns[0].null_count, 0u);
  EXPECT_DOUBLE_EQ(stats.columns[0].min, 0.0);
  EXPECT_DOUBLE_EQ(stats.columns[0].max, rows - 1.0);
  // age: 50 distinct, 10% null.
  EXPECT_NEAR(static_cast<double>(stats.columns[1].ndv), 50.0, 3.0);
  EXPECT_NEAR(stats.columns[1].NullFraction(), 0.1, 0.01);
  // name: 7 distinct strings.
  EXPECT_EQ(stats.columns[2].ndv, 7u);
  EXPECT_GT(stats.columns[2].avg_width, 4.0);
}

TEST_F(CatalogTest, AnalyzeAllAndTablesList) {
  MakePeople();
  ASSERT_TRUE(
      catalog_.CreateTable("t2", Schema({Column("x", TypeId::kInt64)})).ok());
  EXPECT_EQ(catalog_.Tables().size(), 2u);
  ASSERT_TRUE(catalog_.AnalyzeAll().ok());
  for (TableInfo* table : catalog_.Tables()) {
    EXPECT_TRUE(table->stats.Analyzed());
  }
}

// --- ANALYZE and index back-fill against the per-tuple reference ----------

// The per-tuple ANALYZE that Catalog::Analyze replaced: one boxed Tuple per
// record and one hash-set node per distinct value. Kept as the reference
// the streaming pass must match exactly.
TableStats ReferenceAnalyze(TableInfo* table, int histogram_buckets) {
  const size_t num_columns = table->schema.NumColumns();
  std::vector<ColumnStats> stats(num_columns);
  std::vector<std::vector<double>> keys(num_columns);
  std::vector<std::unordered_set<size_t>> distinct(num_columns);
  std::vector<double> width_sums(num_columns, 0.0);
  uint64_t rows = 0;
  for (auto it = table->heap->Begin(); it.Valid(); it.Next()) {
    auto tuple = DeserializeTuple(it.record(), table->schema);
    VDB_CHECK(tuple.ok());
    ++rows;
    for (size_t c = 0; c < num_columns; ++c) {
      const Value& value = (*tuple)[c];
      if (value.is_null()) {
        stats[c].null_count++;
        continue;
      }
      stats[c].non_null_count++;
      keys[c].push_back(value.NumericKey());
      distinct[c].insert(value.Hash());
      width_sums[c] += value.type() == TypeId::kString
                           ? static_cast<double>(value.AsString().size())
                           : 8.0;
    }
  }
  for (size_t c = 0; c < num_columns; ++c) {
    ColumnStats& cs = stats[c];
    cs.ndv = distinct[c].size();
    if (!keys[c].empty()) {
      const auto [mn, mx] =
          std::minmax_element(keys[c].begin(), keys[c].end());
      cs.min = *mn;
      cs.max = *mx;
      cs.avg_width = width_sums[c] / static_cast<double>(cs.non_null_count);
      cs.histogram = Histogram::Build(std::move(keys[c]), histogram_buckets);
    }
  }
  TableStats result;
  result.row_count = rows;
  result.page_count = table->heap->NumPages();
  result.columns = std::move(stats);
  return result;
}

// Bitwise equality, so NaN keys and the sign of zero count.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameStats(const TableStats& actual, const TableStats& expected) {
  EXPECT_EQ(actual.row_count, expected.row_count);
  EXPECT_EQ(actual.page_count, expected.page_count);
  ASSERT_EQ(actual.columns.size(), expected.columns.size());
  for (size_t c = 0; c < actual.columns.size(); ++c) {
    SCOPED_TRACE(::testing::Message() << "column " << c);
    const ColumnStats& a = actual.columns[c];
    const ColumnStats& e = expected.columns[c];
    EXPECT_EQ(a.non_null_count, e.non_null_count);
    EXPECT_EQ(a.null_count, e.null_count);
    EXPECT_EQ(a.ndv, e.ndv);
    EXPECT_TRUE(SameBits(a.min, e.min)) << a.min << " vs " << e.min;
    EXPECT_TRUE(SameBits(a.max, e.max)) << a.max << " vs " << e.max;
    EXPECT_TRUE(SameBits(a.avg_width, e.avg_width))
        << a.avg_width << " vs " << e.avg_width;
    const std::vector<double>& ab = a.histogram.bounds();
    const std::vector<double>& eb = e.histogram.bounds();
    ASSERT_EQ(ab.size(), eb.size());
    for (size_t i = 0; i < ab.size(); ++i) {
      EXPECT_TRUE(SameBits(ab[i], eb[i])) << "bound " << i;
    }
  }
}

// Live records grouped by heap page, in heap order.
std::vector<std::vector<storage::RecordId>> RidsByPage(TableInfo* table) {
  std::vector<std::vector<storage::RecordId>> pages;
  for (auto it = table->heap->Begin(); it.Valid(); it.Next()) {
    if (pages.empty() || pages.back().front().page_id != it.rid().page_id) {
      pages.emplace_back();
    }
    pages.back().push_back(it.rid());
  }
  return pages;
}

class AnalyzeEquivalenceTest : public CatalogTest {
 protected:
  // Every type, NULLs in each column, an all-NULL column, NaN and signed
  // zero doubles, empty and long strings, then deletes that leave whole
  // pages empty and holes in the rest.
  TableInfo* MakeMixed() {
    auto created = catalog_.CreateTable(
        "mixed", Schema({Column("id", TypeId::kInt64),
                         Column("d", TypeId::kDouble),
                         Column("s", TypeId::kString),
                         Column("day", TypeId::kDate),
                         Column("flag", TypeId::kBool),
                         Column("none", TypeId::kInt64)}));
    VDB_CHECK(created.ok());
    TableInfo* table = *created;
    Random rng(11);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int i = 0; i < 3000; ++i) {
      Value d = Value::Double(rng.UniformDouble(-5.0, 5.0));
      if (i % 13 == 0) d = Value::Double(nan);
      if (i % 17 == 0) d = Value::Double(i % 2 == 0 ? 0.0 : -0.0);
      if (i % 19 == 0) d = Value::Null(TypeId::kDouble);
      Value s = Value::String(std::string(rng.Uniform(40), 'a' + i % 26));
      if (i % 7 == 0) s = Value::Null(TypeId::kString);
      const Tuple tuple{
          i % 23 == 0 ? Value::Null(TypeId::kInt64)
                      : Value::Int64(rng.UniformInt(-500, 500)),
          d, s, Value::Date(rng.UniformInt(8000, 8400)),
          i % 11 == 0 ? Value::Null(TypeId::kBool)
                      : Value::Bool(rng.Bernoulli(0.3)),
          Value::Null(TypeId::kInt64)};
      VDB_CHECK_OK(catalog_.Insert(table, tuple));
    }
    const auto pages = RidsByPage(table);
    VDB_CHECK(pages.size() > 6);
    for (size_t p = 0; p < pages.size(); ++p) {
      for (size_t r = 0; r < pages[p].size(); ++r) {
        if (p == 2 || p == 5 || p + 1 == pages.size() || r % 5 == 0) {
          VDB_CHECK_OK(catalog_.Delete(table, pages[p][r]));
        }
      }
    }
    return table;
  }
};

TEST_F(AnalyzeEquivalenceTest, MixedTableWithDeletesAndEmptyPages) {
  TableInfo* table = MakeMixed();
  for (const int buckets : {1, 8, 32}) {
    SCOPED_TRACE(::testing::Message() << "buckets " << buckets);
    ASSERT_TRUE(catalog_.Analyze(table, buckets).ok());
    ExpectSameStats(table->stats, ReferenceAnalyze(table, buckets));
  }
  // The all-NULL column has no keys at all.
  EXPECT_EQ(table->stats.columns[5].non_null_count, 0u);
  EXPECT_TRUE(table->stats.columns[5].histogram.empty());
}

TEST_F(AnalyzeEquivalenceTest, EmptyAndFullyDeletedTables) {
  auto empty = catalog_.CreateTable(
      "empty", Schema({Column("x", TypeId::kInt64),
                       Column("y", TypeId::kString)}));
  ASSERT_TRUE(empty.ok());
  ASSERT_TRUE(catalog_.Analyze(*empty).ok());
  ExpectSameStats((*empty)->stats, ReferenceAnalyze(*empty, 32));
  EXPECT_TRUE((*empty)->stats.Analyzed());

  TableInfo* people = MakePeople();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(catalog_
                    .Insert(people, Tuple{Value::Int64(i), Value::Int64(i % 9),
                                          Value::String("p")})
                    .ok());
  }
  for (const auto& page : RidsByPage(people)) {
    for (const storage::RecordId rid : page) {
      ASSERT_TRUE(catalog_.Delete(people, rid).ok());
    }
  }
  ASSERT_TRUE(catalog_.Analyze(people).ok());
  ExpectSameStats(people->stats, ReferenceAnalyze(people, 32));
  EXPECT_EQ(people->stats.row_count, 0u);
  EXPECT_GT(people->stats.page_count, 0u);
}

TEST_F(AnalyzeEquivalenceTest, BackfillSkipsNullKeysAndDeletedSlots) {
  TableInfo* table = MakeMixed();
  // Live, non-NULL keys in heap order; the tree returns them by key with
  // equal keys in insertion (heap) order.
  std::vector<std::pair<int64_t, uint64_t>> expected;
  for (auto it = table->heap->Begin(); it.Valid(); it.Next()) {
    auto tuple = DeserializeTuple(it.record(), table->schema);
    ASSERT_TRUE(tuple.ok());
    if ((*tuple)[0].is_null()) continue;
    expected.emplace_back((*tuple)[0].AsInt64(), it.rid().Pack());
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  auto index = catalog_.CreateIndex("mixed_id", "mixed", "id");
  ASSERT_TRUE(index.ok());
  std::vector<std::pair<int64_t, uint64_t>> actual;
  for (auto it = (*index)->tree->Begin(); it.Valid(); it.Next()) {
    actual.emplace_back(it.key(), it.value());
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ((*index)->tree->NumEntries(), expected.size());

  // An index over the all-NULL column stays empty; a DATE index holds
  // every live row.
  auto none = catalog_.CreateIndex("mixed_none", "mixed", "none");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ((*none)->tree->NumEntries(), 0u);
  auto day = catalog_.CreateIndex("mixed_day", "mixed", "day");
  ASSERT_TRUE(day.ok());
  EXPECT_EQ((*day)->tree->NumEntries(), table->heap->NumRecords());
}

}  // namespace
}  // namespace vdb::catalog
