// Columns, schemas, tuples, and record (de)serialization between tuples
// and slotted-page bytes.

#ifndef VDB_CATALOG_SCHEMA_H_
#define VDB_CATALOG_SCHEMA_H_

#include <string>
#include <string_view>
#include <vector>

#include "catalog/batch.h"
#include "catalog/value.h"
#include "util/result.h"

namespace vdb::catalog {

/// One column of a table or intermediate result.
struct Column {
  std::string name;
  TypeId type = TypeId::kInt64;

  /// Expected storage width in bytes, used for page-count estimation.
  /// Strings use `avg_width` (set from data by Analyze; default 16).
  uint32_t avg_width = 8;

  Column() = default;
  Column(std::string column_name, TypeId column_type)
      : name(std::move(column_name)), type(column_type) {
    avg_width = column_type == TypeId::kString ? 16 : 8;
  }
  Column(std::string column_name, TypeId column_type, uint32_t width)
      : name(std::move(column_name)), type(column_type), avg_width(width) {}
};

/// An ordered list of columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns)
      : columns_(std::move(columns)) {}

  size_t NumColumns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column with `name` (case-insensitive), or NotFound.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// Average serialized tuple width in bytes.
  uint32_t AvgTupleWidth() const;

  /// Concatenation of this schema and `other` (for join outputs).
  Schema Concat(const Schema& other) const;

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

/// A tuple is a row of values positionally matching some Schema.
using Tuple = std::vector<Value>;

/// Serializes a tuple for heap storage. Format per field:
/// [u8 null][payload], where payload is 8 bytes for fixed types and
/// u32 length + bytes for strings.
std::string SerializeTuple(const Tuple& tuple, const Schema& schema);

/// Inverse of SerializeTuple. Fails on truncated input.
Result<Tuple> DeserializeTuple(std::string_view data, const Schema& schema);

/// Deserializes one record straight into physical row `row` of `batch`,
/// without boxing fields into Values. The batch must already be Reset to
/// this schema's column types with capacity > `row`.
///
/// `wanted`, when non-null, is a per-schema-position mask (same length as
/// the schema): columns with a zero entry are skipped over in the record
/// and left NULL in the batch instead of being materialized. Scans use
/// this for lazy materialization of columns the plan never reads.
Status DeserializeTupleInto(std::string_view data, const Schema& schema,
                            Batch* batch, size_t row,
                            const std::vector<uint8_t>* wanted = nullptr);

/// Bulk form of DeserializeTupleInto: decodes `count` records into
/// consecutive physical rows of `batch` starting at `start_row`. The
/// per-column type and mask dispatch is hoisted out of the row loop,
/// skipped columns are nulled with one bulk store per batch instead of
/// a per-row write, and kept fixed-width columns write through raw
/// payload pointers — the preferred path for page-at-a-time scans.
///
/// Record views may be embedded in a larger per-record struct (e.g. a
/// heap scan's RecordView array): record `r` is read from
/// `records + r * stride_bytes`, so the caller does not have to repack
/// views into a dense array first. `stride_bytes` must be a multiple of
/// alignof(std::string_view); `sizeof(std::string_view)` is a dense
/// array.
Status DeserializeRecordsInto(const std::string_view* records,
                              size_t stride_bytes, size_t count,
                              const Schema& schema, Batch* batch,
                              size_t start_row,
                              const std::vector<uint8_t>* wanted = nullptr);

/// Renders a tuple as "(v1, v2, ...)".
std::string TupleToString(const Tuple& tuple);

}  // namespace vdb::catalog

#endif  // VDB_CATALOG_SCHEMA_H_
