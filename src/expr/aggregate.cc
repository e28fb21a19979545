#include "expr/aggregate.h"

namespace pushsip {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kCount: return "COUNT";
  }
  return "?";
}

void AggState::Update(const Value& v) {
  if (v.is_null()) return;
  ++count_;
  switch (func_) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (v.type() == TypeId::kInt64 && sum_integral_) {
        isum_ += v.AsInt64();
      } else {
        if (sum_integral_) {
          sum_ = static_cast<double>(isum_);
          sum_integral_ = false;
        }
        sum_ += v.AsDouble();
      }
      break;
    case AggFunc::kMin:
      if (extreme_.is_null() || v.Compare(extreme_) < 0) extreme_ = v;
      break;
    case AggFunc::kMax:
      if (extreme_.is_null() || v.Compare(extreme_) > 0) extreme_ = v;
      break;
    case AggFunc::kCount:
      break;
  }
}

Value AggState::Finalize() const {
  switch (func_) {
    case AggFunc::kCount:
      return Value::Int64(count_);
    case AggFunc::kSum:
      if (count_ == 0) return Value::Null();
      return sum_integral_ ? Value::Int64(isum_) : Value::Double(sum_);
    case AggFunc::kAvg: {
      if (count_ == 0) return Value::Null();
      const double total =
          sum_integral_ ? static_cast<double>(isum_) : sum_;
      return Value::Double(total / static_cast<double>(count_));
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      return extreme_;
  }
  return Value::Null();
}

TypeId AggSpec::OutputType() const {
  switch (func) {
    case AggFunc::kCount:
      return TypeId::kInt64;
    case AggFunc::kAvg:
      return TypeId::kDouble;
    case AggFunc::kSum:
      return input && input->type() == TypeId::kInt64 ? TypeId::kInt64
                                                      : TypeId::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return input ? input->type() : TypeId::kNull;
  }
  return TypeId::kNull;
}

}  // namespace pushsip
