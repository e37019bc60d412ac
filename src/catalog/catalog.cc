#include "catalog/catalog.h"

#include <algorithm>
#include <functional>

#include "catalog/batch.h"
#include "catalog/wal_payloads.h"
#include "util/string_util.h"

namespace vdb::catalog {

Result<int64_t> IndexKeyFromValue(const Value& value) {
  if (value.is_null()) {
    return Status::NotSupported("NULL keys are not indexed");
  }
  if (value.type() != TypeId::kInt64 && value.type() != TypeId::kDate) {
    return Status::NotSupported(
        std::string("cannot index column of type ") +
        TypeIdName(value.type()));
  }
  return value.AsInt64();
}

namespace {

std::vector<TypeId> ColumnTypes(const Schema& schema) {
  std::vector<TypeId> types;
  types.reserve(schema.NumColumns());
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    types.push_back(schema.column(i).type);
  }
  return types;
}

// Decodes one heap page's records into rows 0.. of `batch` (`wanted` as
// in DeserializeRecordsInto).
Status DecodePage(const std::vector<storage::HeapFile::RecordView>& records,
                  const Schema& schema, const std::vector<TypeId>& types,
                  const std::vector<uint8_t>* wanted, Batch* batch) {
  batch->Reset(types, records.size());
  return DeserializeRecordsInto(&records[0].data,
                                sizeof(storage::HeapFile::RecordView),
                                records.size(), schema, batch, 0, wanted);
}

}  // namespace

std::vector<storage::ZoneSample> ComputeZoneSamples(const Tuple& tuple) {
  std::vector<storage::ZoneSample> samples;
  samples.reserve(tuple.size());
  for (const Value& value : tuple) {
    samples.push_back(
        storage::ZoneSample{value.NumericKey(), value.is_null()});
  }
  return samples;
}

Result<TableInfo*> Catalog::CreateTable(const std::string& name,
                                        const Schema& schema) {
  if (schema.NumColumns() == 0) {
    return Status::InvalidArgument("table must have at least one column");
  }
  for (const auto& table : tables_) {
    if (EqualsIgnoreCase(table->name, name)) {
      return Status::AlreadyExists("table '" + name + "' already exists");
    }
  }
  auto table = std::make_unique<TableInfo>();
  table->name = name;
  table->schema = schema;
  table->heap = std::make_unique<storage::HeapFile>(disk_, pool_);
  tables_.push_back(std::move(table));
  if (wal_ != nullptr) {
    VDB_RETURN_NOT_OK(
        wal_->Append(storage::WalRecordType::kCreateTable,
                     walenc::EncodeCreateTable(name, schema))
            .status());
  }
  return tables_.back().get();
}

Result<uint32_t> Catalog::TableId(const TableInfo* table) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].get() == table) return static_cast<uint32_t>(i);
  }
  return Status::NotFound("table not registered in this catalog");
}

Result<TableInfo*> Catalog::TableById(uint32_t table_id) const {
  if (table_id >= tables_.size()) {
    return Status::NotFound("no table with id " + std::to_string(table_id));
  }
  return tables_[table_id].get();
}

Result<TableInfo*> Catalog::GetTable(const std::string& name) const {
  for (const auto& table : tables_) {
    if (EqualsIgnoreCase(table->name, name)) return table.get();
  }
  return Status::NotFound("table '" + name + "' not found");
}

std::vector<TableInfo*> Catalog::Tables() const {
  std::vector<TableInfo*> result;
  result.reserve(tables_.size());
  for (const auto& table : tables_) result.push_back(table.get());
  return result;
}

Result<IndexInfo*> Catalog::CreateIndex(const std::string& index_name,
                                        const std::string& table_name,
                                        const std::string& column_name) {
  for (const auto& index : indexes_) {
    if (EqualsIgnoreCase(index->name, index_name)) {
      return Status::AlreadyExists("index '" + index_name +
                                   "' already exists");
    }
  }
  VDB_ASSIGN_OR_RETURN(TableInfo * table, GetTable(table_name));
  VDB_ASSIGN_OR_RETURN(size_t column_index,
                       table->schema.ColumnIndex(column_name));
  const TypeId type = table->schema.column(column_index).type;
  if (type != TypeId::kInt64 && type != TypeId::kDate) {
    return Status::NotSupported(
        std::string("cannot index column of type ") + TypeIdName(type));
  }
  auto index = std::make_unique<IndexInfo>();
  index->name = index_name;
  index->table = table;
  index->column_index = column_index;
  index->tree = std::make_unique<storage::BPlusTree>(disk_, pool_);
  // Back-fill from existing rows, page at a time, decoding only the key
  // column. The copying page read unpins each heap page before its keys
  // go into the tree, as a row-at-a-time scan does, so the tree's fetches
  // meet the same unpinned frames and the pool evicts the same pages.
  std::vector<uint8_t> wanted(table->schema.NumColumns(), 0);
  wanted[column_index] = 1;
  const std::vector<TypeId> types = ColumnTypes(table->schema);
  std::string page_bytes;
  std::vector<storage::HeapFile::RecordView> records;
  Batch batch;
  for (size_t page = 0;; ++page) {
    VDB_ASSIGN_OR_RETURN(
        bool more, table->heap->ReadPageForScan(page, &page_bytes, &records));
    if (!more) break;
    if (records.empty()) continue;
    VDB_RETURN_NOT_OK(DecodePage(records, table->schema, types, &wanted,
                                 &batch));
    const ValueVector& keys = batch.columns[column_index];
    for (size_t r = 0; r < records.size(); ++r) {
      if (keys.IsNull(r)) continue;
      VDB_RETURN_NOT_OK(
          index->tree->Insert(keys.GetInt64(r), records[r].rid.Pack()));
    }
  }
  indexes_.push_back(std::move(index));
  table->indexes.push_back(indexes_.back().get());
  if (wal_ != nullptr) {
    VDB_ASSIGN_OR_RETURN(uint32_t table_id, TableId(table));
    VDB_RETURN_NOT_OK(
        wal_->Append(storage::WalRecordType::kCreateIndex,
                     walenc::EncodeCreateIndex(
                         index_name, table_id,
                         static_cast<uint32_t>(column_index)))
            .status());
  }
  return indexes_.back().get();
}

Result<IndexInfo*> Catalog::GetIndex(const std::string& name) const {
  for (const auto& index : indexes_) {
    if (EqualsIgnoreCase(index->name, name)) return index.get();
  }
  return Status::NotFound("index '" + name + "' not found");
}

Status Catalog::Insert(TableInfo* table, const Tuple& tuple) {
  if (tuple.size() != table->schema.NumColumns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) +
        " does not match schema arity " +
        std::to_string(table->schema.NumColumns()));
  }
  const std::string record = SerializeTuple(tuple, table->schema);
  const std::vector<storage::ZoneSample> samples = ComputeZoneSamples(tuple);
  VDB_ASSIGN_OR_RETURN(storage::RecordId rid,
                       table->heap->Insert(record, &samples));
  if (wal_ != nullptr) {
    VDB_ASSIGN_OR_RETURN(uint32_t table_id, TableId(table));
    VDB_ASSIGN_OR_RETURN(uint64_t page_index,
                         table->heap->PageIndexOf(rid.page_id));
    VDB_ASSIGN_OR_RETURN(
        storage::WriteAheadLog::AppendInfo info,
        wal_->Append(storage::WalRecordType::kInsert,
                     walenc::EncodeInsert(table_id, page_index, rid.slot,
                                          record)));
    table->heap->StampPageLsn(page_index, info.lsn);
  }
  for (IndexInfo* index : table->indexes) {
    const Value& value = tuple[index->column_index];
    if (value.is_null()) continue;
    VDB_ASSIGN_OR_RETURN(int64_t key, IndexKeyFromValue(value));
    VDB_RETURN_NOT_OK(index->tree->Insert(key, rid.Pack()));
  }
  return Status::OK();
}

Status Catalog::Delete(TableInfo* table, storage::RecordId rid) {
  VDB_RETURN_NOT_OK(table->heap->Delete(rid));
  if (wal_ != nullptr) {
    VDB_ASSIGN_OR_RETURN(uint32_t table_id, TableId(table));
    VDB_ASSIGN_OR_RETURN(uint64_t page_index,
                         table->heap->PageIndexOf(rid.page_id));
    VDB_ASSIGN_OR_RETURN(
        storage::WriteAheadLog::AppendInfo info,
        wal_->Append(storage::WalRecordType::kDelete,
                     walenc::EncodeDelete(table_id, page_index, rid.slot)));
    table->heap->StampPageLsn(page_index, info.lsn);
  }
  return Status::OK();
}

Status Catalog::Analyze(TableInfo* table, int histogram_buckets) {
  const Schema& schema = table->schema;
  const size_t num_columns = schema.NumColumns();
  std::vector<ColumnStats> stats(num_columns);
  std::vector<std::vector<double>> keys(num_columns);
  std::vector<std::vector<size_t>> hashes(num_columns);
  std::vector<double> width_sums(num_columns, 0.0);
  for (size_t c = 0; c < num_columns; ++c) {
    keys[c].reserve(table->heap->NumRecords());
    hashes[c].reserve(table->heap->NumRecords());
  }
  uint64_t rows = 0;

  // Page at a time, column by column. Each column's keys, hashes and
  // width sums still arrive in heap order, so minmax, the histogram and
  // the floating-point width sum see the sequence a row-at-a-time pass
  // sees. Keys and hashes match Value::NumericKey and Value::Hash.
  const std::vector<TypeId> types = ColumnTypes(schema);
  storage::HeapFile::ScanPagePin pin;
  std::vector<storage::HeapFile::RecordView> records;
  Batch batch;
  for (size_t page = 0;; ++page) {
    VDB_ASSIGN_OR_RETURN(
        bool more, table->heap->ReadPageForScanPinned(page, &pin, &records));
    if (!more) break;
    if (records.empty()) continue;
    VDB_RETURN_NOT_OK(DecodePage(records, schema, types, nullptr, &batch));
    rows += records.size();
    for (size_t c = 0; c < num_columns; ++c) {
      const ValueVector& column = batch.columns[c];
      for (size_t r = 0; r < records.size(); ++r) {
        if (column.IsNull(r)) {
          stats[c].null_count++;
          continue;
        }
        stats[c].non_null_count++;
        switch (types[c]) {
          case TypeId::kString: {
            const std::string& s = column.GetString(r);
            keys[c].push_back(StringNumericKey(s));
            hashes[c].push_back(std::hash<std::string>{}(s));
            width_sums[c] += static_cast<double>(s.size());
            break;
          }
          case TypeId::kDouble: {
            const double d = column.GetDouble(r);
            keys[c].push_back(d);
            hashes[c].push_back(std::hash<double>{}(d));
            width_sums[c] += 8.0;
            break;
          }
          default: {
            // Bool is boxed as true/false, so its key and hash are 0 or 1.
            int64_t v = column.GetInt64(r);
            if (types[c] == TypeId::kBool) v = v != 0 ? 1 : 0;
            keys[c].push_back(static_cast<double>(v));
            hashes[c].push_back(std::hash<int64_t>{}(v));
            width_sums[c] += 8.0;
            break;
          }
        }
      }
    }
  }

  for (size_t c = 0; c < num_columns; ++c) {
    ColumnStats& cs = stats[c];
    // Distinct hash values, as a hash set of them would count.
    std::vector<size_t>& h = hashes[c];
    std::sort(h.begin(), h.end());
    cs.ndv = static_cast<uint64_t>(std::unique(h.begin(), h.end()) -
                                   h.begin());
    if (!keys[c].empty()) {
      const auto [mn, mx] =
          std::minmax_element(keys[c].begin(), keys[c].end());
      cs.min = *mn;
      cs.max = *mx;
      cs.avg_width = width_sums[c] / static_cast<double>(cs.non_null_count);
      cs.histogram = Histogram::Build(std::move(keys[c]), histogram_buckets);
    }
  }

  table->stats.row_count = rows;
  table->stats.page_count = table->heap->NumPages();
  table->stats.columns = std::move(stats);
  return Status::OK();
}

Status Catalog::AnalyzeAll(int histogram_buckets) {
  for (const auto& table : tables_) {
    VDB_RETURN_NOT_OK(Analyze(table.get(), histogram_buckets));
  }
  return Status::OK();
}

}  // namespace vdb::catalog
