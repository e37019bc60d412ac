#include "catalog/schema.h"

#include <cstring>

#include "util/string_util.h"

namespace vdb::catalog {

Result<size_t> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  return Status::NotFound("column '" + name + "' not found");
}

uint32_t Schema::AvgTupleWidth() const {
  uint32_t width = 0;
  for (const Column& column : columns_) {
    width += 1 + column.avg_width +
             (column.type == TypeId::kString ? 4 : 0);
  }
  return width == 0 ? 1 : width;
}

Schema Schema::Concat(const Schema& other) const {
  std::vector<Column> combined = columns_;
  combined.insert(combined.end(), other.columns_.begin(),
                  other.columns_.end());
  return Schema(std::move(combined));
}

std::string Schema::ToString() const {
  std::string result = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) result += ", ";
    result += columns_[i].name;
    result += " ";
    result += TypeIdName(columns_[i].type);
  }
  result += ")";
  return result;
}

std::string SerializeTuple(const Tuple& tuple, const Schema& schema) {
  std::string out;
  out.reserve(schema.AvgTupleWidth());
  for (size_t i = 0; i < tuple.size(); ++i) {
    const Value& value = tuple[i];
    out.push_back(value.is_null() ? 1 : 0);
    if (value.is_null()) continue;
    if (schema.column(i).type == TypeId::kString) {
      const std::string& s = value.AsString();
      const uint32_t len = static_cast<uint32_t>(s.size());
      out.append(reinterpret_cast<const char*>(&len), sizeof(len));
      out.append(s);
    } else if (schema.column(i).type == TypeId::kDouble) {
      const double d = value.AsDouble();
      out.append(reinterpret_cast<const char*>(&d), sizeof(d));
    } else if (schema.column(i).type == TypeId::kBool) {
      const int64_t v = value.AsBool() ? 1 : 0;
      out.append(reinterpret_cast<const char*>(&v), sizeof(v));
    } else {
      const int64_t v = value.AsInt64();
      out.append(reinterpret_cast<const char*>(&v), sizeof(v));
    }
  }
  return out;
}

Result<Tuple> DeserializeTuple(std::string_view data, const Schema& schema) {
  Tuple tuple;
  tuple.reserve(schema.NumColumns());
  size_t pos = 0;
  auto need = [&](size_t n) -> bool { return pos + n <= data.size(); };
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    const TypeId type = schema.column(i).type;
    if (!need(1)) return Status::Internal("truncated tuple (null flag)");
    const bool is_null = data[pos++] != 0;
    if (is_null) {
      tuple.push_back(Value::Null(type));
      continue;
    }
    if (type == TypeId::kString) {
      if (!need(4)) return Status::Internal("truncated tuple (length)");
      uint32_t len = 0;
      std::memcpy(&len, data.data() + pos, sizeof(len));
      pos += sizeof(len);
      if (!need(len)) return Status::Internal("truncated tuple (string)");
      tuple.push_back(Value::String(std::string(data.substr(pos, len))));
      pos += len;
    } else if (type == TypeId::kDouble) {
      if (!need(8)) return Status::Internal("truncated tuple (double)");
      double d = 0;
      std::memcpy(&d, data.data() + pos, sizeof(d));
      pos += sizeof(d);
      tuple.push_back(Value::Double(d));
    } else {
      if (!need(8)) return Status::Internal("truncated tuple (int)");
      int64_t v = 0;
      std::memcpy(&v, data.data() + pos, sizeof(v));
      pos += sizeof(v);
      if (type == TypeId::kBool) {
        tuple.push_back(Value::Bool(v != 0));
      } else if (type == TypeId::kDate) {
        tuple.push_back(Value::Date(v));
      } else {
        tuple.push_back(Value::Int64(v));
      }
    }
  }
  return tuple;
}

Status DeserializeTupleInto(std::string_view data, const Schema& schema,
                            Batch* batch, size_t row,
                            const std::vector<uint8_t>* wanted) {
  size_t pos = 0;
  auto need = [&](size_t n) -> bool { return pos + n <= data.size(); };
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    ValueVector& column = batch->columns[i];
    if (!need(1)) return Status::Internal("truncated tuple (null flag)");
    const bool is_null = data[pos++] != 0;
    if (is_null) {
      column.SetNull(row);
      continue;
    }
    const bool skip = wanted != nullptr && (*wanted)[i] == 0;
    if (schema.column(i).type == TypeId::kString) {
      if (!need(4)) return Status::Internal("truncated tuple (length)");
      uint32_t len = 0;
      std::memcpy(&len, data.data() + pos, sizeof(len));
      pos += sizeof(len);
      if (!need(len)) return Status::Internal("truncated tuple (string)");
      if (skip) {
        column.SetNull(row);
      } else {
        column.SetString(row, data.substr(pos, len));
      }
      pos += len;
    } else if (skip) {
      if (!need(8)) return Status::Internal("truncated tuple (payload)");
      pos += 8;
      column.SetNull(row);
    } else if (schema.column(i).type == TypeId::kDouble) {
      if (!need(8)) return Status::Internal("truncated tuple (double)");
      double d = 0;
      std::memcpy(&d, data.data() + pos, sizeof(d));
      pos += sizeof(d);
      column.SetDouble(row, d);
    } else {
      if (!need(8)) return Status::Internal("truncated tuple (int)");
      int64_t v = 0;
      std::memcpy(&v, data.data() + pos, sizeof(v));
      pos += sizeof(v);
      column.SetInt64(row, v);
    }
  }
  return Status::OK();
}

Status DeserializeRecordsInto(const std::string_view* records,
                              size_t stride_bytes, size_t count,
                              const Schema& schema, Batch* batch,
                              size_t start_row,
                              const std::vector<uint8_t>* wanted) {
  // Hoist the per-column dispatch data out of the row loop: the Schema's
  // Column structs drag string names through the cache, the mask lookup
  // branches are loop-invariant, and raw payload/null pointers skip the
  // per-call ValueVector indirection.
  struct ColPlan {
    TypeId type;
    bool keep;
    ValueVector* column;
    int64_t* ints;
    double* doubles;
    uint8_t* nulls;
  };
  const size_t num_columns = schema.NumColumns();
  std::vector<ColPlan> cols(num_columns);
  for (size_t i = 0; i < num_columns; ++i) {
    ValueVector& column = batch->columns[i];
    const bool keep = wanted == nullptr || (*wanted)[i] != 0;
    cols[i] = ColPlan{schema.column(i).type,    keep,
                      &column,                  column.MutableInt64Data(),
                      column.MutableDoubleData(), column.MutableNullData()};
    if (!keep && count > 0) {
      // Skipped columns are NULL for the whole range; one bulk store
      // replaces a per-row write in the hot loop below.
      std::memset(cols[i].nulls + start_row, 1, count);
    }
  }
  const char* record_base = reinterpret_cast<const char*>(records);
  for (size_t r = 0; r < count; ++r) {
    const std::string_view& record =
        *reinterpret_cast<const std::string_view*>(record_base +
                                                   r * stride_bytes);
    const char* p = record.data();
    const char* const end = p + record.size();
    const size_t row = start_row + r;
    for (size_t i = 0; i < num_columns; ++i) {
      if (p >= end) return Status::Internal("truncated tuple (null flag)");
      const bool is_null = *p++ != 0;
      const ColPlan& col = cols[i];
      if (is_null) {
        if (col.keep) col.nulls[row] = 1;
        continue;
      }
      if (col.type == TypeId::kString) {
        if (end - p < 4) return Status::Internal("truncated tuple (length)");
        uint32_t len = 0;
        std::memcpy(&len, p, sizeof(len));
        p += sizeof(len);
        if (static_cast<size_t>(end - p) < len) {
          return Status::Internal("truncated tuple (string)");
        }
        if (col.keep) {
          col.column->SetString(row, std::string_view(p, len));
        }
        p += len;
      } else {
        if (end - p < 8) return Status::Internal("truncated tuple (payload)");
        if (col.keep) {
          col.nulls[row] = 0;
          if (col.type == TypeId::kDouble) {
            std::memcpy(&col.doubles[row], p, sizeof(double));
          } else {
            std::memcpy(&col.ints[row], p, sizeof(int64_t));
          }
        }
        p += 8;
      }
    }
  }
  return Status::OK();
}

std::string TupleToString(const Tuple& tuple) {
  std::string result = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) result += ", ";
    result += tuple[i].ToString();
  }
  result += ")";
  return result;
}

}  // namespace vdb::catalog
