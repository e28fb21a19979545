#include "expr/aggregate.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace pushsip {
namespace {

TEST(AggStateTest, SumIntegersStayIntegral) {
  AggState s(AggFunc::kSum);
  s.Update(Value::Int64(3));
  s.Update(Value::Int64(4));
  const Value v = s.Finalize();
  EXPECT_EQ(v.type(), TypeId::kInt64);
  EXPECT_EQ(v.AsInt64(), 7);
}

TEST(AggStateTest, SumPromotesOnDouble) {
  AggState s(AggFunc::kSum);
  s.Update(Value::Int64(3));
  s.Update(Value::Double(0.5));
  const Value v = s.Finalize();
  EXPECT_EQ(v.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.5);
}

TEST(AggStateTest, SumOfNothingIsNull) {
  AggState s(AggFunc::kSum);
  EXPECT_TRUE(s.Finalize().is_null());
  s.Update(Value::Null());
  EXPECT_TRUE(s.Finalize().is_null());
}

TEST(AggStateTest, MinMax) {
  AggState mn(AggFunc::kMin), mx(AggFunc::kMax);
  for (int v : {5, 2, 9, 2}) {
    mn.Update(Value::Int64(v));
    mx.Update(Value::Int64(v));
  }
  EXPECT_EQ(mn.Finalize().AsInt64(), 2);
  EXPECT_EQ(mx.Finalize().AsInt64(), 9);
}

TEST(AggStateTest, MinMaxIgnoreNulls) {
  AggState mn(AggFunc::kMin);
  mn.Update(Value::Null());
  mn.Update(Value::Int64(4));
  mn.Update(Value::Null());
  EXPECT_EQ(mn.Finalize().AsInt64(), 4);
}

TEST(AggStateTest, MinOnStrings) {
  AggState mn(AggFunc::kMin);
  mn.Update(Value::String("beta"));
  mn.Update(Value::String("alpha"));
  EXPECT_EQ(mn.Finalize().AsString(), "alpha");
}

TEST(AggStateTest, AvgIsDouble) {
  AggState s(AggFunc::kAvg);
  s.Update(Value::Int64(1));
  s.Update(Value::Int64(2));
  const Value v = s.Finalize();
  EXPECT_EQ(v.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 1.5);
}

TEST(AggStateTest, AvgOfNothingIsNull) {
  EXPECT_TRUE(AggState(AggFunc::kAvg).Finalize().is_null());
}

TEST(AggStateTest, CountCountsEverythingPassed) {
  AggState s(AggFunc::kCount);
  s.Update(Value::Int64(1));
  s.Update(Value::Int64(2));
  EXPECT_EQ(s.Finalize().AsInt64(), 2);
}

TEST(AggStateTest, CountSkipsNullInputs) {
  // COUNT(expr) counts the non-NULL inputs; only COUNT(*) (which passes a
  // non-NULL dummy per row) counts every row.
  AggState s(AggFunc::kCount);
  s.Update(Value::Int64(1));
  s.Update(Value::Null());
  s.Update(Value::String("x"));
  s.Update(Value::Null());
  EXPECT_EQ(s.Finalize().AsInt64(), 2);
  AggState all_null(AggFunc::kCount);
  all_null.Update(Value::Null());
  EXPECT_EQ(all_null.Finalize().AsInt64(), 0);
}

// The typed updates leave exactly the state Update leaves for the same
// Value, including where a double first promotes an integral SUM, so the
// two can interleave.
TEST(AggStateTest, TypedUpdatesMatchValueUpdates) {
  const std::vector<Value> inputs = {
      Value::Int64(3),      Value::Int64(-7), Value::Double(0.1),
      Value::Int64(1 << 20), Value::Double(2.5), Value::Int64(9)};
  for (const AggFunc f : {AggFunc::kSum, AggFunc::kAvg, AggFunc::kCount}) {
    AggState by_value(f), typed(f), mixed(f);
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Value& v = inputs[i];
      by_value.Update(v);
      if (v.type() == TypeId::kInt64) {
        typed.UpdateI64(v.AsInt64());
      } else {
        typed.UpdateF64(v.AsDouble());
      }
      if (i % 2 == 0) {
        mixed.Update(v);
      } else if (v.type() == TypeId::kInt64) {
        mixed.UpdateI64(v.AsInt64());
      } else {
        mixed.UpdateF64(v.AsDouble());
      }
    }
    for (const AggState* s : {&typed, &mixed}) {
      const AggState::Parts want = by_value.ToParts();
      const AggState::Parts got = s->ToParts();
      EXPECT_EQ(got.count, want.count) << AggFuncName(f);
      EXPECT_EQ(got.sum_integral, want.sum_integral) << AggFuncName(f);
      EXPECT_EQ(got.isum, want.isum) << AggFuncName(f);
      EXPECT_EQ(std::memcmp(&got.sum, &want.sum, sizeof(double)), 0)
          << AggFuncName(f);
      EXPECT_TRUE(s->Finalize() == by_value.Finalize()) << AggFuncName(f);
    }
  }
}

TEST(AggStateTest, CountOfNothingIsZero) {
  EXPECT_EQ(AggState(AggFunc::kCount).Finalize().AsInt64(), 0);
}

TEST(AggSpecTest, OutputTypes) {
  AggSpec count{AggFunc::kCount, nullptr, "c", kInvalidAttr};
  EXPECT_EQ(count.OutputType(), TypeId::kInt64);
  AggSpec avg{AggFunc::kAvg, LitInt(1), "a", kInvalidAttr};
  EXPECT_EQ(avg.OutputType(), TypeId::kDouble);
  AggSpec sum_int{AggFunc::kSum, LitInt(1), "s", kInvalidAttr};
  EXPECT_EQ(sum_int.OutputType(), TypeId::kInt64);
  AggSpec sum_dbl{AggFunc::kSum, LitDouble(1), "s", kInvalidAttr};
  EXPECT_EQ(sum_dbl.OutputType(), TypeId::kDouble);
  AggSpec min_str{AggFunc::kMin, LitString("x"), "m", kInvalidAttr};
  EXPECT_EQ(min_str.OutputType(), TypeId::kString);
}

TEST(AggFuncNameTest, Names) {
  EXPECT_STREQ(AggFuncName(AggFunc::kSum), "SUM");
  EXPECT_STREQ(AggFuncName(AggFunc::kAvg), "AVG");
  EXPECT_STREQ(AggFuncName(AggFunc::kCount), "COUNT");
}

}  // namespace
}  // namespace pushsip
