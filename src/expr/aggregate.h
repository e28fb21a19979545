// Aggregate functions for hash-based group-by (SUM, MIN, MAX, AVG, COUNT).
#ifndef PUSHSIP_EXPR_AGGREGATE_H_
#define PUSHSIP_EXPR_AGGREGATE_H_

#include <memory>
#include <string>

#include "expr/expression.h"

namespace pushsip {

/// Supported aggregate functions.
enum class AggFunc { kSum, kMin, kMax, kAvg, kCount };

const char* AggFuncName(AggFunc f);

/// \brief Running state of one aggregate over one group.
///
/// NULL inputs are ignored per SQL semantics, COUNT(expr) included: it
/// counts the non-NULL inputs. COUNT(*) has no input expression, so its
/// caller passes a non-NULL dummy per row and every row counts. An
/// aggregate that saw no non-NULL input finalizes to NULL (COUNT
/// finalizes to 0).
///
/// UpdateI64 / UpdateF64 are Update for a non-NULL Value::Int64 /
/// Value::Double without building the Value: the batch fold of
/// HashAggregate calls them on raw typed column slots. Each leaves exactly
/// the state Update would (the same integral/double SUM promotion at the
/// same row), so the two paths can interleave and stay bit-identical.
/// They serve SUM, AVG and COUNT; MIN/MAX compare Values and take Update.
class AggState {
 public:
  explicit AggState(AggFunc func) : func_(func) {}

  void Update(const Value& v);
  void UpdateI64(int64_t v) {
    PUSHSIP_DCHECK(func_ != AggFunc::kMin && func_ != AggFunc::kMax);
    ++count_;
    if (func_ == AggFunc::kCount) return;
    if (sum_integral_) {
      isum_ += v;
    } else {
      sum_ += static_cast<double>(v);
    }
  }
  void UpdateF64(double v) {
    PUSHSIP_DCHECK(func_ != AggFunc::kMin && func_ != AggFunc::kMax);
    ++count_;
    if (func_ == AggFunc::kCount) return;
    if (sum_integral_) {
      sum_ = static_cast<double>(isum_);
      sum_integral_ = false;
    }
    sum_ += v;
  }
  Value Finalize() const;

  AggFunc func() const { return func_; }

  /// \brief The running state laid bare, for checkpoint serialization.
  ///
  /// A restored state built via FromParts is bit-identical to the original:
  /// the double sum round-trips as raw bits, and the integral/double SUM
  /// promotion flag is preserved, so later Updates continue the exact same
  /// accumulation sequence.
  struct Parts {
    int64_t count = 0;
    double sum = 0;
    bool sum_integral = true;
    int64_t isum = 0;
    Value extreme;
  };
  Parts ToParts() const { return {count_, sum_, sum_integral_, isum_, extreme_}; }
  static AggState FromParts(AggFunc func, const Parts& p) {
    AggState s(func);
    s.count_ = p.count;
    s.sum_ = p.sum;
    s.sum_integral_ = p.sum_integral;
    s.isum_ = p.isum;
    s.extreme_ = p.extreme;
    return s;
  }

 private:
  AggFunc func_;
  int64_t count_ = 0;
  double sum_ = 0;
  bool sum_integral_ = true;
  int64_t isum_ = 0;
  Value extreme_;  // running MIN or MAX
};

/// Specification of one aggregate column in a group-by.
struct AggSpec {
  AggFunc func;
  ExprPtr input;         ///< nullptr allowed for COUNT(*)
  std::string out_name;  ///< name of the output column
  /// Attribute id to assign the output (usually kInvalidAttr; aggregation
  /// results are derived values that do not participate in AIP).
  AttrId out_attr = kInvalidAttr;

  TypeId OutputType() const;
};

}  // namespace pushsip

#endif  // PUSHSIP_EXPR_AGGREGATE_H_
