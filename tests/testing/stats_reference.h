// Row-by-row reference for Table::ComputeStats, shared by the suites that
// pin the typed statistics kernels (storage, scale-out sharding) to it.
#ifndef PUSHSIP_TESTS_TESTING_STATS_REFERENCE_H_
#define PUSHSIP_TESTS_TESTING_STATS_REFERENCE_H_

#include <cstring>
#include <unordered_set>

#include <gtest/gtest.h>

#include "storage/table.h"

namespace pushsip {
namespace testing {

/// The statistics the typed kernels must reproduce exactly: NDV = distinct
/// HashAt values over non-null rows; min/max by Value::Compare, keeping the
/// first occurrence.
inline ColumnStats ReferenceStats(const Column& col) {
  ColumnStats st;
  std::unordered_set<uint64_t> distinct;
  bool first = true;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsNull(r)) continue;
    distinct.insert(col.HashAt(r));
    const Value v = col.GetValue(r);
    if (first || v.Compare(st.min_value) < 0) st.min_value = v;
    if (first || v.Compare(st.max_value) > 0) st.max_value = v;
    first = false;
  }
  st.distinct_count = static_cast<int64_t>(distinct.size());
  return st;
}

/// Same type and same bits: doubles compare by bit pattern, so -0.0 vs 0.0
/// and which NaN was kept are caught.
inline void ExpectSameValue(const Value& got, const Value& want) {
  ASSERT_EQ(got.type(), want.type())
      << got.ToString() << " vs " << want.ToString();
  if (got.type() == TypeId::kDouble) {
    const double g = got.AsDouble(), w = want.AsDouble();
    EXPECT_EQ(std::memcmp(&g, &w, sizeof(double)), 0)
        << got.ToString() << " vs " << want.ToString();
  } else {
    EXPECT_EQ(got.Compare(want), 0)
        << got.ToString() << " vs " << want.ToString();
  }
}

/// Every column's computed stats of `t` against ReferenceStats.
inline void ExpectStatsMatchReference(const Table& t) {
  ASSERT_TRUE(t.has_stats());
  for (size_t c = 0; c < t.num_cols(); ++c) {
    SCOPED_TRACE(t.name() + "." + t.schema().field(c).name);
    const ColumnStats want = ReferenceStats(t.col(c));
    const ColumnStats& got = t.column_stats(c);
    EXPECT_EQ(got.distinct_count, want.distinct_count);
    ExpectSameValue(got.min_value, want.min_value);
    ExpectSameValue(got.max_value, want.max_value);
  }
}

}  // namespace testing
}  // namespace pushsip

#endif  // PUSHSIP_TESTS_TESTING_STATS_REFERENCE_H_
