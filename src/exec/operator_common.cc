#include "exec/operator_common.h"

#include <utility>

#include "exec/budget.h"

namespace vdb::exec {

namespace {

// Budget-guard poll period for the shared O(n*m)-capable join loops
// (mask over a power of two; see executor.cc for rationale).
constexpr size_t kBudgetPollMask = 4095;

}  // namespace

using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;
using plan::BoundExpr;
using plan::BoundExprPtr;
using plan::EvaluatesToTrue;
using plan::OutputColumn;

std::vector<Value> EvalAll(const std::vector<BoundExprPtr>& exprs,
                           const Tuple& row) {
  std::vector<Value> out;
  out.reserve(exprs.size());
  for (const BoundExprPtr& expr : exprs) {
    out.push_back(expr->Evaluate(row));
  }
  return out;
}

double TotalOps(const std::vector<BoundExprPtr>& exprs) {
  double ops = 0;
  for (const BoundExprPtr& expr : exprs) ops += expr->OpCount();
  return ops;
}

void AggState::Update(const plan::AggSpec& spec, const Value& v) {
  if (spec.kind == plan::AggKind::kCountStar) {
    ++count;
    return;
  }
  if (v.is_null()) return;
  if (spec.distinct) {
    std::string key =
        std::to_string(static_cast<int>(v.type())) + ":" + v.ToString();
    if (!distinct_seen.insert(std::move(key)).second) return;
  }
  ++count;
  switch (spec.kind) {
    case plan::AggKind::kSum:
    case plan::AggKind::kAvg:
      sum += v.AsDouble();
      sum_is_double = sum_is_double || v.type() == TypeId::kDouble;
      break;
    case plan::AggKind::kMin:
      if (!has_min_max || Value::Compare(v, min_value) < 0) min_value = v;
      if (!has_min_max || Value::Compare(v, max_value) > 0) max_value = v;
      has_min_max = true;
      break;
    case plan::AggKind::kMax:
      if (!has_min_max || Value::Compare(v, min_value) < 0) min_value = v;
      if (!has_min_max || Value::Compare(v, max_value) > 0) max_value = v;
      has_min_max = true;
      break;
    default:
      break;
  }
}

Value AggState::Finalize(const plan::AggSpec& spec) const {
  switch (spec.kind) {
    case plan::AggKind::kCountStar:
    case plan::AggKind::kCount:
      return Value::Int64(count);
    case plan::AggKind::kSum:
      if (count == 0) return Value::Null(spec.output_type);
      if (spec.output_type == TypeId::kDouble || sum_is_double) {
        return Value::Double(sum);
      }
      return Value::Int64(static_cast<int64_t>(sum));
    case plan::AggKind::kAvg:
      if (count == 0) return Value::Null(TypeId::kDouble);
      return Value::Double(sum / static_cast<double>(count));
    case plan::AggKind::kMin:
      return has_min_max ? min_value : Value::Null(spec.output_type);
    case plan::AggKind::kMax:
      return has_min_max ? max_value : Value::Null(spec.output_type);
  }
  return Value::Null(spec.output_type);
}

Tuple ConcatRows(const Tuple& left, const Tuple& right) {
  Tuple out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

Tuple NullsFor(const std::vector<OutputColumn>& columns) {
  Tuple out;
  out.reserve(columns.size());
  for (const OutputColumn& column : columns) {
    out.push_back(Value::Null(column.type));
  }
  return out;
}

Result<BoundExprPtr> ResolveExpr(const BoundExpr& expr,
                                 const std::vector<OutputColumn>& input) {
  BoundExprPtr clone = expr.Clone();
  VDB_RETURN_NOT_OK(clone->ResolveSlots(plan::MakeLayout(input)));
  return clone;
}

const plan::ColumnExpr* SingleColumnKey(
    const std::vector<BoundExprPtr>& keys) {
  if (keys.size() != 1) return nullptr;
  return dynamic_cast<const plan::ColumnExpr*>(keys[0].get());
}

double ApproxTupleBytes(const Tuple& tuple) {
  double bytes = 8.0;  // row header
  for (const Value& v : tuple) {
    if (!v.is_null() && v.type() == TypeId::kString) {
      bytes += 13.0 + static_cast<double>(v.AsString().size());
    } else {
      bytes += 9.0;
    }
  }
  return bytes;
}

Result<std::vector<Tuple>> MergeJoinRows(
    ExecutionContext* context, const std::vector<Tuple>& left_rows,
    const std::vector<Tuple>& right_rows, const BoundExpr& left_key,
    const BoundExpr& right_key, const BoundExpr* residual) {
  const CpuWorkModel& cpu = context->cpu_model();
  const double residual_ops = residual != nullptr ? residual->OpCount() : 0.0;

  std::vector<Value> left_values;
  left_values.reserve(left_rows.size());
  for (const Tuple& row : left_rows) {
    left_values.push_back(left_key.Evaluate(row));
  }
  std::vector<Value> right_values;
  right_values.reserve(right_rows.size());
  for (const Tuple& row : right_rows) {
    right_values.push_back(right_key.Evaluate(row));
  }

  std::vector<Tuple> out;
  size_t li = 0;
  size_t ri = 0;
  BudgetGuard* const guard = context->budget_guard();
  size_t steps = 0;
  while (li < left_rows.size() && ri < right_rows.size()) {
    if (guard != nullptr && (++steps & kBudgetPollMask) == 0) {
      VDB_RETURN_NOT_OK(guard->Check());
    }
    context->ChargeCpu(cpu.ops_per_comparison);
    if (left_values[li].is_null()) {
      ++li;  // NULL keys never join (sorted last)
      continue;
    }
    if (right_values[ri].is_null()) {
      ++ri;
      continue;
    }
    const int cmp = Value::Compare(left_values[li], right_values[ri]);
    if (cmp < 0) {
      ++li;
      continue;
    }
    if (cmp > 0) {
      ++ri;
      continue;
    }
    // Key group: [ri, rj) on the right with equal keys.
    size_t rj = ri;
    while (rj < right_rows.size() && !right_values[rj].is_null() &&
           Value::Compare(left_values[li], right_values[rj]) == 0) {
      ++rj;
    }
    while (li < left_rows.size() && !left_values[li].is_null() &&
           Value::Compare(left_values[li], right_values[ri]) == 0) {
      for (size_t r = ri; r < rj; ++r) {
        context->ChargeCpu(cpu.ops_per_comparison +
                           residual_ops * cpu.ops_per_operator);
        Tuple combined_row = ConcatRows(left_rows[li], right_rows[r]);
        if (residual != nullptr &&
            !EvaluatesToTrue(*residual, combined_row)) {
          continue;
        }
        context->ChargeCpu(cpu.ops_per_tuple);
        out.push_back(std::move(combined_row));
      }
      ++li;
    }
    ri = rj;
  }
  return out;
}

Result<std::vector<Tuple>> NestedLoopJoinRows(
    ExecutionContext* context, plan::LogicalJoinType join_type,
    const std::vector<OutputColumn>& right_output,
    const std::vector<Tuple>& left_rows, const std::vector<Tuple>& right_rows,
    const BoundExpr* condition) {
  const CpuWorkModel& cpu = context->cpu_model();
  const double cond_ops = condition != nullptr ? condition->OpCount() : 0.0;

  // The materialized inner may exceed work_mem: write once, then re-read
  // per outer pass.
  double inner_bytes = 0.0;
  for (const Tuple& row : right_rows) inner_bytes += ApproxTupleBytes(row);
  const bool spilled =
      inner_bytes > static_cast<double>(context->work_mem_bytes());
  const double inner_pages = PagesFor(inner_bytes);
  if (spilled) context->ChargeSpillWrite(inner_pages);

  std::vector<Tuple> out;
  BudgetGuard* const guard = context->budget_guard();
  size_t steps = 0;
  for (const Tuple& left_row : left_rows) {
    if (spilled) context->ChargeSpillRead(inner_pages);
    bool matched = false;
    for (const Tuple& right_row : right_rows) {
      if (guard != nullptr && (++steps & kBudgetPollMask) == 0) {
        VDB_RETURN_NOT_OK(guard->Check());
      }
      context->ChargeCpu(cpu.ops_per_tuple + cond_ops * cpu.ops_per_operator);
      Tuple combined_row = ConcatRows(left_row, right_row);
      if (condition != nullptr &&
          !EvaluatesToTrue(*condition, combined_row)) {
        continue;
      }
      matched = true;
      if (join_type == plan::LogicalJoinType::kInner ||
          join_type == plan::LogicalJoinType::kCross ||
          join_type == plan::LogicalJoinType::kLeft) {
        out.push_back(std::move(combined_row));
      } else {
        break;  // semi/anti need only existence
      }
    }
    switch (join_type) {
      case plan::LogicalJoinType::kLeft:
        if (!matched) {
          out.push_back(ConcatRows(left_row, NullsFor(right_output)));
        }
        break;
      case plan::LogicalJoinType::kSemi:
        if (matched) out.push_back(left_row);
        break;
      case plan::LogicalJoinType::kAnti:
        if (!matched) out.push_back(left_row);
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace vdb::exec
