#include "expr/expression.h"

#include <algorithm>

namespace pushsip {

namespace {

// --- vectorized comparison kernels ---
//
// Filter `*sel` down to the rows of `c` where `pred(value)` holds and the
// row is non-NULL. The store is unconditional and the increment is the
// predicate result, so the loop stays branch-light on unpredictable data.

template <typename T, typename Pred>
void FilterTyped(const Column& c, const T* data, Pred pred,
                 std::vector<uint32_t>* sel) {
  size_t kept = 0;
  if (c.null_words().empty()) {
    for (const uint32_t idx : *sel) {
      (*sel)[kept] = idx;
      kept += pred(data[idx]) ? 1 : 0;
    }
  } else {
    for (const uint32_t idx : *sel) {
      (*sel)[kept] = idx;
      kept += (!c.IsNull(idx) && pred(data[idx])) ? 1 : 0;
    }
  }
  sel->resize(kept);
}

template <typename T>
void FilterCmp(const Column& c, const T* data, CmpOp op, T lit,
               std::vector<uint32_t>* sel) {
  switch (op) {
    case CmpOp::kEq:
      return FilterTyped(c, data, [lit](T v) { return v == lit; }, sel);
    case CmpOp::kNe:
      return FilterTyped(c, data, [lit](T v) { return v != lit; }, sel);
    case CmpOp::kLt:
      return FilterTyped(c, data, [lit](T v) { return v < lit; }, sel);
    case CmpOp::kLe:
      return FilterTyped(c, data, [lit](T v) { return v <= lit; }, sel);
    case CmpOp::kGt:
      return FilterTyped(c, data, [lit](T v) { return v > lit; }, sel);
    case CmpOp::kGe:
      return FilterTyped(c, data, [lit](T v) { return v >= lit; }, sel);
  }
}

bool CmpHolds(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

/// Every non-NULL row compares with the same fixed result (e.g. a numeric
/// column against a string literal: numbers always sort first). Keep the
/// non-NULL rows or none.
void FilterFixed(const Column& c, CmpOp op, int cmp,
                 std::vector<uint32_t>* sel) {
  if (!CmpHolds(op, cmp)) {
    sel->clear();
    return;
  }
  if (c.null_words().empty()) return;  // all rows pass
  size_t kept = 0;
  for (const uint32_t idx : *sel) {
    (*sel)[kept] = idx;
    kept += c.IsNull(idx) ? 0 : 1;
  }
  sel->resize(kept);
}

bool IsIntegral(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDate;
}

/// Column-vs-literal kernel; false → caller falls back to the row loop.
bool TryFilterColLit(const Column& c, CmpOp op, const Value& lit,
                     std::vector<uint32_t>* sel) {
  if (lit.is_null()) {
    sel->clear();  // NULL comparison is never true
    return true;
  }
  if (c.type() == TypeId::kNull) {
    sel->clear();  // untyped column: every row NULL
    return true;
  }
  if (IsIntegral(c.type())) {
    if (IsIntegral(lit.type())) {
      FilterCmp<int64_t>(c, c.i64_data(), op, lit.AsInt64(), sel);
      return true;
    }
    if (lit.type() == TypeId::kDouble) {
      // Mirrors Value::Compare: mixed integral/double compares as double.
      const double d = lit.AsDouble();
      size_t kept = 0;
      const int64_t* data = c.i64_data();
      const bool nn = c.null_words().empty();
      for (const uint32_t idx : *sel) {
        const double v = static_cast<double>(data[idx]);
        const int cmp = v < d ? -1 : (v > d ? 1 : 0);
        (*sel)[kept] = idx;
        kept += ((nn || !c.IsNull(idx)) && CmpHolds(op, cmp)) ? 1 : 0;
      }
      sel->resize(kept);
      return true;
    }
    FilterFixed(c, op, -1, sel);  // number vs string: always "less"
    return true;
  }
  if (c.type() == TypeId::kDouble) {
    if (lit.type() == TypeId::kString) {
      FilterFixed(c, op, -1, sel);
      return true;
    }
    FilterCmp<double>(c, c.f64_data(), op, lit.AsDouble(), sel);
    return true;
  }
  // String column.
  if (lit.type() != TypeId::kString) {
    FilterFixed(c, op, 1, sel);  // string vs number: always "greater"
    return true;
  }
  if (c.dict() == nullptr) return false;
  if (op == CmpOp::kEq || op == CmpOp::kNe) {
    // Dictionary lookup turns string equality into a code compare.
    uint32_t code = 0;
    if (!c.dict()->Find(lit.AsString(), &code)) {
      // Absent from an intern dictionary means no row matches; a
      // code-addressed (decoder) dictionary has no index — fall back.
      if (c.dict()->code_addressed()) return false;
      if (op == CmpOp::kEq) {
        sel->clear();
      } else {
        FilterFixed(c, CmpOp::kNe, 1, sel);  // keep non-NULL rows
      }
      return true;
    }
    FilterCmp<uint32_t>(c, c.code_data(), op, code, sel);
    return true;
  }
  // Ordered string compare: per-row, but against stable dictionary entries
  // (no Value materialization).
  const std::string& lit_s = lit.AsString();
  size_t kept = 0;
  const bool nn = c.null_words().empty();
  for (const uint32_t idx : *sel) {
    bool pass = false;
    if (nn || !c.IsNull(idx)) {
      const int cmp3 = c.StringAt(idx).compare(lit_s);
      pass = CmpHolds(op, cmp3 < 0 ? -1 : (cmp3 > 0 ? 1 : 0));
    }
    (*sel)[kept] = idx;
    kept += pass ? 1 : 0;
  }
  sel->resize(kept);
  return true;
}

/// Column-vs-column kernel; false → fall back.
bool TryFilterColCol(const Column& a, CmpOp op, const Column& b,
                     std::vector<uint32_t>* sel) {
  if (a.type() == TypeId::kNull || b.type() == TypeId::kNull) {
    sel->clear();
    return true;
  }
  const bool a_nn = a.null_words().empty() && b.null_words().empty();
  if (IsIntegral(a.type()) && IsIntegral(b.type())) {
    const int64_t* da = a.i64_data();
    const int64_t* db = b.i64_data();
    size_t kept = 0;
    for (const uint32_t idx : *sel) {
      bool pass = a_nn || (!a.IsNull(idx) && !b.IsNull(idx));
      const int64_t x = da[idx], y = db[idx];
      pass = pass && CmpHolds(op, x < y ? -1 : (x > y ? 1 : 0));
      (*sel)[kept] = idx;
      kept += pass ? 1 : 0;
    }
    sel->resize(kept);
    return true;
  }
  const bool a_num = a.type() != TypeId::kString;
  const bool b_num = b.type() != TypeId::kString;
  if (a_num && b_num) {
    // At least one double: compare as double (Value::Compare semantics).
    size_t kept = 0;
    for (const uint32_t idx : *sel) {
      bool pass = a_nn || (!a.IsNull(idx) && !b.IsNull(idx));
      if (pass) {
        const double x = a.type() == TypeId::kDouble
                             ? a.F64At(idx)
                             : static_cast<double>(a.I64At(idx));
        const double y = b.type() == TypeId::kDouble
                             ? b.F64At(idx)
                             : static_cast<double>(b.I64At(idx));
        pass = CmpHolds(op, x < y ? -1 : (x > y ? 1 : 0));
      }
      (*sel)[kept] = idx;
      kept += pass ? 1 : 0;
    }
    sel->resize(kept);
    return true;
  }
  return false;
}

class ColumnRef final : public Expression {
 public:
  ColumnRef(int index, TypeId type, std::string name)
      : index_(index), type_(type), name_(std::move(name)) {}

  Value Eval(const Batch& batch, size_t row) const override {
    return batch.ValueAt(row, static_cast<size_t>(index_));
  }
  TypeId type() const override { return type_; }
  int column_index() const override { return index_; }
  std::string ToString() const override {
    if (!name_.empty()) return name_;
    std::string out("$");
    out += std::to_string(index_);
    return out;
  }

 private:
  int index_;
  TypeId type_;
  std::string name_;
};

class Literal final : public Expression {
 public:
  explicit Literal(Value v) : value_(std::move(v)) {}
  Value Eval(const Batch&, size_t) const override { return value_; }
  TypeId type() const override { return value_.type(); }
  const Value* literal_value() const override { return &value_; }
  std::string ToString() const override { return value_.ToString(); }

 private:
  Value value_;
};

CmpOp FlipCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return CmpOp::kEq;
    case CmpOp::kNe: return CmpOp::kNe;
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
  }
  return op;
}

class Comparison final : public Expression {
 public:
  Comparison(CmpOp op, ExprPtr l, ExprPtr r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}

  Value Eval(const Batch& batch, size_t row) const override {
    const Value l = left_->Eval(batch, row);
    const Value r = right_->Eval(batch, row);
    if (l.is_null() || r.is_null()) return Value::Null();
    return Value::Int64(CmpHolds(op_, l.Compare(r)) ? 1 : 0);
  }

  void EvalSelection(const Batch& batch,
                     std::vector<uint32_t>* sel) const override {
    const int lc = left_->column_index();
    const int rc = right_->column_index();
    const Value* ll = left_->literal_value();
    const Value* rl = right_->literal_value();
    if (lc >= 0 && rl != nullptr &&
        TryFilterColLit(batch.col(static_cast<size_t>(lc)), op_, *rl, sel)) {
      return;
    }
    if (rc >= 0 && ll != nullptr &&
        TryFilterColLit(batch.col(static_cast<size_t>(rc)), FlipCmp(op_),
                        *ll, sel)) {
      return;
    }
    if (lc >= 0 && rc >= 0 &&
        TryFilterColCol(batch.col(static_cast<size_t>(lc)), op_,
                        batch.col(static_cast<size_t>(rc)), sel)) {
      return;
    }
    Expression::EvalSelection(batch, sel);
  }

  TypeId type() const override { return TypeId::kInt64; }
  std::string ToString() const override {
    static const char* kNames[] = {"=", "<>", "<", "<=", ">", ">="};
    std::string out("(");
    out += left_->ToString();
    out += ' ';
    out += kNames[static_cast<int>(op_)];
    out += ' ';
    out += right_->ToString();
    out += ')';
    return out;
  }

 private:
  CmpOp op_;
  ExprPtr left_, right_;
};

class Arithmetic final : public Expression {
 public:
  Arithmetic(ArithOp op, ExprPtr l, ExprPtr r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}

  Value Eval(const Batch& batch, size_t row) const override {
    const Value l = left_->Eval(batch, row);
    const Value r = right_->Eval(batch, row);
    if (l.is_null() || r.is_null()) return Value::Null();
    const bool integral = l.type() == TypeId::kInt64 &&
                          r.type() == TypeId::kInt64 && op_ != ArithOp::kDiv;
    if (integral) {
      const int64_t a = l.AsInt64(), b = r.AsInt64();
      switch (op_) {
        case ArithOp::kAdd: return Value::Int64(a + b);
        case ArithOp::kSub: return Value::Int64(a - b);
        case ArithOp::kMul: return Value::Int64(a * b);
        case ArithOp::kDiv: break;  // unreachable
      }
    }
    const double a = l.AsDouble(), b = r.AsDouble();
    switch (op_) {
      case ArithOp::kAdd: return Value::Double(a + b);
      case ArithOp::kSub: return Value::Double(a - b);
      case ArithOp::kMul: return Value::Double(a * b);
      case ArithOp::kDiv:
        if (b == 0) return Value::Null();
        return Value::Double(a / b);
    }
    return Value::Null();
  }
  TypeId type() const override {
    if (op_ != ArithOp::kDiv && left_->type() == TypeId::kInt64 &&
        right_->type() == TypeId::kInt64) {
      return TypeId::kInt64;
    }
    return TypeId::kDouble;
  }
  std::string ToString() const override {
    static const char* kNames[] = {"+", "-", "*", "/"};
    std::string out("(");
    out += left_->ToString();
    out += ' ';
    out += kNames[static_cast<int>(op_)];
    out += ' ';
    out += right_->ToString();
    out += ')';
    return out;
  }

 private:
  ArithOp op_;
  ExprPtr left_, right_;
};

// Three-valued logic AND/OR.
class BoolOp final : public Expression {
 public:
  BoolOp(bool is_and, ExprPtr l, ExprPtr r)
      : is_and_(is_and), left_(std::move(l)), right_(std::move(r)) {}

  Value Eval(const Batch& batch, size_t row) const override {
    const Value l = left_->Eval(batch, row);
    // Short-circuit.
    if (!l.is_null()) {
      const bool lt = l.AsInt64() != 0;
      if (is_and_ && !lt) return Value::Int64(0);
      if (!is_and_ && lt) return Value::Int64(1);
    }
    const Value r = right_->Eval(batch, row);
    if (!r.is_null()) {
      const bool rt = r.AsInt64() != 0;
      if (is_and_ && !rt) return Value::Int64(0);
      if (!is_and_ && rt) return Value::Int64(1);
    }
    if (l.is_null() || r.is_null()) return Value::Null();
    return Value::Int64(is_and_ ? 1 : 0);
  }

  void EvalSelection(const Batch& batch,
                     std::vector<uint32_t>* sel) const override {
    if (is_and_) {
      // AND filters compose: rows surviving both sides are exactly the
      // rows where the conjunction is true (NULLs never survive either
      // side, matching three-valued filter semantics).
      left_->EvalSelection(batch, sel);
      if (!sel->empty()) right_->EvalSelection(batch, sel);
      return;
    }
    Expression::EvalSelection(batch, sel);
  }

  TypeId type() const override { return TypeId::kInt64; }
  std::string ToString() const override {
    std::string out("(");
    out += left_->ToString();
    out += is_and_ ? " AND " : " OR ";
    out += right_->ToString();
    out += ')';
    return out;
  }

 private:
  bool is_and_;
  ExprPtr left_, right_;
};

class NotOp final : public Expression {
 public:
  explicit NotOp(ExprPtr e) : expr_(std::move(e)) {}
  Value Eval(const Batch& batch, size_t row) const override {
    const Value v = expr_->Eval(batch, row);
    if (v.is_null()) return Value::Null();
    return Value::Int64(v.AsInt64() != 0 ? 0 : 1);
  }
  TypeId type() const override { return TypeId::kInt64; }
  std::string ToString() const override {
    return "NOT " + expr_->ToString();
  }

 private:
  ExprPtr expr_;
};

class LikeOp final : public Expression {
 public:
  LikeOp(ExprPtr input, std::string pattern)
      : input_(std::move(input)), pattern_(std::move(pattern)) {}

  Value Eval(const Batch& batch, size_t row) const override {
    const Value v = input_->Eval(batch, row);
    if (v.is_null()) return Value::Null();
    return Value::Int64(LikeMatch(v.AsString(), pattern_) ? 1 : 0);
  }

  void EvalSelection(const Batch& batch,
                     std::vector<uint32_t>* sel) const override {
    // Dictionary fast path: LIKE-match each distinct referenced string
    // once per code instead of once per row.
    const int ci = input_->column_index();
    if (ci < 0) return Expression::EvalSelection(batch, sel);
    const Column& c = batch.col(static_cast<size_t>(ci));
    if (c.type() != TypeId::kString || c.dict() == nullptr) {
      return Expression::EvalSelection(batch, sel);
    }
    const StringDict& dict = *c.dict();
    std::vector<uint8_t> match(dict.size(), 2);  // 2 = not yet evaluated
    const uint32_t* codes = c.code_data();
    const bool nn = c.null_words().empty();
    size_t kept = 0;
    for (const uint32_t idx : *sel) {
      bool pass = false;
      if (nn || !c.IsNull(idx)) {
        uint8_t& m = match[codes[idx]];
        if (m == 2) m = LikeMatch(dict.entry(codes[idx]), pattern_) ? 1 : 0;
        pass = m == 1;
      }
      (*sel)[kept] = idx;
      kept += pass ? 1 : 0;
    }
    sel->resize(kept);
  }

  TypeId type() const override { return TypeId::kInt64; }
  std::string ToString() const override {
    return input_->ToString() + " LIKE '" + pattern_ + "'";
  }

 private:
  ExprPtr input_;
  std::string pattern_;
};

class YearOfOp final : public Expression {
 public:
  explicit YearOfOp(ExprPtr date) : date_(std::move(date)) {}
  Value Eval(const Batch& batch, size_t row) const override {
    const Value v = date_->Eval(batch, row);
    if (v.is_null()) return Value::Null();
    // Convert days-since-epoch back to a civil year.
    int64_t z = v.AsInt64() + 719468;
    const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
    const unsigned doe = static_cast<unsigned>(z - era * 146097);
    const unsigned yoe =
        (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    const int64_t y = static_cast<int64_t>(yoe) + era * 400;
    const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    const unsigned mp = (5 * doy + 2) / 153;
    const unsigned m = mp + (mp < 10 ? 3 : 9 * 0) - (mp < 10 ? 0 : 9);
    return Value::Int64(y + (m <= 2));
  }
  TypeId type() const override { return TypeId::kInt64; }
  std::string ToString() const override {
    return "year(" + date_->ToString() + ")";
  }

 private:
  ExprPtr date_;
};

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative two-pointer matcher with % backtracking.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

ExprPtr Col(int index, TypeId type, std::string name) {
  return std::make_shared<ColumnRef>(index, type, std::move(name));
}

Result<ExprPtr> ColNamed(const Schema& schema, const std::string& name) {
  PUSHSIP_ASSIGN_OR_RETURN(const int idx, schema.IndexOf(name));
  return Col(idx, schema.field(static_cast<size_t>(idx)).type, name);
}

ExprPtr Lit(Value v) { return std::make_shared<Literal>(std::move(v)); }
ExprPtr LitInt(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }
ExprPtr LitString(std::string v) { return Lit(Value::String(std::move(v))); }
ExprPtr LitDate(const std::string& ymd) {
  auto v = Value::DateFromString(ymd);
  return Lit(std::move(v).ValueOrDie());
}

ExprPtr Cmp(CmpOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<Comparison>(op, std::move(left), std::move(right));
}
ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<Arithmetic>(op, std::move(left), std::move(right));
}
ExprPtr And(ExprPtr left, ExprPtr right) {
  return std::make_shared<BoolOp>(true, std::move(left), std::move(right));
}
ExprPtr Or(ExprPtr left, ExprPtr right) {
  return std::make_shared<BoolOp>(false, std::move(left), std::move(right));
}
ExprPtr Not(ExprPtr e) { return std::make_shared<NotOp>(std::move(e)); }
ExprPtr Like(ExprPtr input, std::string pattern) {
  return std::make_shared<LikeOp>(std::move(input), std::move(pattern));
}
ExprPtr YearOf(ExprPtr date) {
  return std::make_shared<YearOfOp>(std::move(date));
}

}  // namespace pushsip
