// Summarize: the mean and the two-sided 95% Student-t half-width that
// every bench cell's metric_ci95 records.
#include "bench/figure_harness.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace pushsip {
namespace bench {
namespace {

TEST(FigureHarnessTest, SummarizeUsesStudentTForTheSampleCount) {
  // n = 2: mean 2, s = sqrt(2), s/sqrt(n) = 1, so ci95 = t(0.975, 1).
  const CellStats two = Summarize({1, 3});
  EXPECT_DOUBLE_EQ(two.mean, 2.0);
  EXPECT_NEAR(two.ci95, 12.706, 1e-3);
  // n = 4: s/sqrt(n) = sqrt(5/12), t(0.975, 3) = 3.182.
  EXPECT_NEAR(Summarize({1, 2, 3, 4}).ci95, 3.1824 * std::sqrt(5.0 / 12.0),
              1e-3);
  // n = 6: s/sqrt(n) = sqrt(3.5/6), t(0.975, 5) = 2.571.
  EXPECT_NEAR(Summarize({1, 2, 3, 4, 5, 6}).ci95,
              2.5706 * std::sqrt(3.5 / 6.0), 1e-3);
}

TEST(FigureHarnessTest, SummarizeOfFewerThanTwoSamplesHasNoInterval) {
  EXPECT_EQ(Summarize({}).ci95, 0.0);
  const CellStats one = Summarize({5});
  EXPECT_DOUBLE_EQ(one.mean, 5.0);
  EXPECT_EQ(one.ci95, 0.0);
}

TEST(FigureHarnessTest, SummarizeUsesTheNormalQuantileBeyondThirtyDf) {
  std::vector<double> xs;
  for (int i = 0; i < 40; ++i) xs.push_back(i % 2 == 0 ? 0.0 : 2.0);
  // mean 1, s^2 = 40/39.
  EXPECT_NEAR(Summarize(xs).ci95, 1.96 * std::sqrt(40.0 / 39.0 / 40.0),
              1e-9);
}

}  // namespace
}  // namespace bench
}  // namespace pushsip
