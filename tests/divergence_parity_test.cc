// Randomized parity of the subgroup analysis against the row-scan oracle
// (tests/divergence_oracle.h): every report, in order, with every double
// compared bit for bit, across random schemas with 1 to 8 protected
// attributes, every statistic, the min_support / min_size filters and the
// dataset and view forms — and the fairness index and violation built on
// top of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/random_spec.h"
#include "divergence_oracle.h"
#include "fairness/divergence.h"
#include "fairness/fairness_index.h"
#include "fairness/fairness_violation.h"
#include "test_util.h"

namespace remedy {
namespace {

using ::remedy::testing::RowScanAnalyzeSubgroups;

constexpr Statistic kStatistics[] = {Statistic::kFpr, Statistic::kFnr,
                                     Statistic::kStatisticalParity,
                                     Statistic::kErrorRate};
constexpr double kMinSupports[] = {0.0, 0.05, 0.1, 0.4};
constexpr int64_t kMinSizes[] = {1, 5, 30};

// Every report costs a Welch test, and a node has up to one report per row,
// so the row counts shrink as the lattice widens; TSan (~10x slower) runs
// one schema per width instead of two.
#ifdef REMEDY_TSAN_BUILD
constexpr int kTrials = 1;
#else
constexpr int kTrials = 2;
#endif

int MaxRows(int num_protected) { return std::min(400, 25600 >> num_protected); }

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// The reports of an unfiltered (min_support 0, min_size 1) analysis that
// pass the given filters, in order: by the AnalyzeSubgroups contract, the
// analysis at those filters.
SubgroupAnalysis Filtered(const SubgroupAnalysis& unfiltered,
                          double min_support, int64_t min_size) {
  SubgroupAnalysis filtered = unfiltered;
  filtered.subgroups.clear();
  for (const SubgroupReport& report : unfiltered.subgroups) {
    if (report.size >= min_size && report.support >= min_support) {
      filtered.subgroups.push_back(report);
    }
  }
  return filtered;
}

bool SameReport(const SubgroupReport& a, const SubgroupReport& e) {
  return a.pattern == e.pattern && a.size == e.size &&
         Bits(a.support) == Bits(e.support) && a.relevant == e.relevant &&
         a.errors == e.errors && Bits(a.statistic) == Bits(e.statistic) &&
         Bits(a.divergence) == Bits(e.divergence) &&
         Bits(a.p_value) == Bits(e.p_value);
}

void ExpectSameAnalysis(const SubgroupAnalysis& actual,
                        const SubgroupAnalysis& expected,
                        const std::string& where) {
  EXPECT_EQ(actual.statistic, expected.statistic) << where;
  EXPECT_EQ(Bits(actual.overall), Bits(expected.overall)) << where;
  ASSERT_EQ(actual.subgroups.size(), expected.subgroups.size()) << where;
  for (size_t i = 0; i < expected.subgroups.size(); ++i) {
    const SubgroupReport& a = actual.subgroups[i];
    const SubgroupReport& e = expected.subgroups[i];
    if (SameReport(a, e)) continue;
    // Field by field, so the first mismatching report names its fields.
    const std::string at = where + " report " + std::to_string(i);
    EXPECT_EQ(a.pattern, e.pattern) << at;
    EXPECT_EQ(a.size, e.size) << at;
    EXPECT_EQ(Bits(a.support), Bits(e.support)) << at;
    EXPECT_EQ(a.relevant, e.relevant) << at;
    EXPECT_EQ(a.errors, e.errors) << at;
    EXPECT_EQ(Bits(a.statistic), Bits(e.statistic)) << at;
    EXPECT_EQ(Bits(a.divergence), Bits(e.divergence)) << at;
    EXPECT_EQ(Bits(a.p_value), Bits(e.p_value)) << at;
    return;
  }
}

// Predictions of four kinds, so the statistics see random, realistic,
// error-free and one-sided classifiers (the last two give subgroups with
// zero errors or every relevant row wrong).
std::vector<int> MakePredictions(const Dataset& data, int kind, Rng& rng) {
  std::vector<int> predictions(data.NumRows());
  for (int r = 0; r < data.NumRows(); ++r) {
    switch (kind) {
      case 0:
        predictions[r] = rng.UniformInt(2);
        break;
      case 1:
        predictions[r] = rng.Bernoulli(0.15) ? 1 - data.Label(r)
                                             : data.Label(r);
        break;
      case 2:
        predictions[r] = data.Label(r);
        break;
      default:
        predictions[r] = 1;
        break;
    }
  }
  return predictions;
}

// ComputeFairnessViolation's reduction, over an oracle analysis.
FairnessViolation OracleViolation(const SubgroupAnalysis& analysis) {
  FairnessViolation result;
  for (const SubgroupReport& report : analysis.subgroups) {
    const double violation = report.support * report.divergence;
    if (violation > result.violation) {
      result.violation = violation;
      result.worst_pattern = report.pattern;
      result.worst_divergence = report.divergence;
      result.worst_support = report.support;
    }
  }
  return result;
}

// Random schemas with exactly `num_protected` protected attributes of
// cardinality 2 to 6.
RandomSpecOptions SchemaOptions(int num_protected) {
  RandomSpecOptions options;
  options.min_protected = num_protected;
  options.max_protected = num_protected;
  options.min_attributes = num_protected;
  options.max_attributes = num_protected + 2;
  options.min_cardinality = 2;
  options.max_cardinality = 6;
  return options;
}

class DivergenceParityTest : public ::testing::TestWithParam<int> {};

TEST_P(DivergenceParityTest, EveryReportMatchesTheRowScanOracle) {
  const int num_protected = GetParam();
  Rng rng(0xd1ef00u + num_protected);
  RandomSpecOptions options = SchemaOptions(num_protected);
  for (int trial = 0; trial < kTrials; ++trial) {
    options.num_rows = 20 + rng.UniformInt(MaxRows(num_protected));
    const Dataset data =
        GenerateSynthetic(RandomSpec(rng, options), 7000 + trial);
    ASSERT_EQ(data.schema().NumProtected(), num_protected);
    const int n = data.NumRows();

    // A resample with repeats, and the empty view.
    std::vector<int> resample(rng.UniformInt(2 * n + 1));
    for (int& row : resample) row = rng.UniformInt(n);
    const std::vector<int> empty;

    for (int kind = 0; kind < 4; ++kind) {
      const std::vector<int> predictions = MakePredictions(data, kind, rng);
      for (Statistic statistic : kStatistics) {
        const std::string context =
            "|X|=" + std::to_string(num_protected) + " trial " +
            std::to_string(trial) + " predictions " + std::to_string(kind) +
            " " + StatisticName(statistic);
        const SubgroupAnalysis all_rows = RowScanAnalyzeSubgroups(
            data, nullptr, predictions, statistic, 0.0, 1);
        const SubgroupAnalysis all_resample = RowScanAnalyzeSubgroups(
            data, &resample, predictions, statistic, 0.0, 1);
        const SubgroupAnalysis all_empty = RowScanAnalyzeSubgroups(
            data, &empty, predictions, statistic, 0.0, 1);
        EXPECT_TRUE(all_empty.subgroups.empty()) << context;
        if (kind == 0) {
          // The oracle's own filters agree with Filtered.
          ExpectSameAnalysis(
              RowScanAnalyzeSubgroups(data, nullptr, predictions, statistic,
                                      0.1, 5),
              Filtered(all_rows, 0.1, 5), context + " oracle filters");
        }
        for (double min_support : kMinSupports) {
          for (int64_t min_size : kMinSizes) {
            const std::string where =
                context + " min_support " + std::to_string(min_support) +
                " min_size " + std::to_string(min_size);
            ExpectSameAnalysis(
                AnalyzeSubgroups(data, predictions, statistic, min_support,
                                 min_size),
                Filtered(all_rows, min_support, min_size),
                where + " dataset");
            ExpectSameAnalysis(
                AnalyzeSubgroupsView(data, resample, predictions, statistic,
                                     min_support, min_size),
                Filtered(all_resample, min_support, min_size),
                where + " view of " + std::to_string(resample.size()));
            ExpectSameAnalysis(
                AnalyzeSubgroupsView(data, empty, predictions, statistic,
                                     min_support, min_size),
                all_empty, where + " empty view");
          }
        }
      }
    }
  }
}

TEST_P(DivergenceParityTest, IndexAndViolationMatchTheRowScanOracle) {
  const int num_protected = GetParam();
  Rng rng(0xfa1e00u + num_protected);
  RandomSpecOptions options = SchemaOptions(num_protected);
  options.num_rows = 100 + rng.UniformInt(2 * MaxRows(num_protected));
  const Dataset data = GenerateSynthetic(RandomSpec(rng, options), 8000);
  std::vector<int> resample(data.NumRows());
  for (int& row : resample) row = rng.UniformInt(data.NumRows());

  const std::vector<int> predictions = MakePredictions(data, 1, rng);
  for (Statistic statistic : kStatistics) {
    const std::string where = "|X|=" + std::to_string(num_protected) + " " +
                              StatisticName(statistic);
    const SubgroupAnalysis all_rows = RowScanAnalyzeSubgroups(
        data, nullptr, predictions, statistic, 0.0, 1);
    const SubgroupAnalysis all_resample = RowScanAnalyzeSubgroups(
        data, &resample, predictions, statistic, 0.0, 1);
    for (double min_support : kMinSupports) {
      FairnessIndexOptions index_options;
      index_options.min_support = min_support;
      EXPECT_EQ(Bits(ComputeFairnessIndex(data, predictions, statistic,
                                          index_options)),
                Bits(FairnessIndex(Filtered(all_rows, min_support, 1),
                                   index_options)))
          << where << " min_support " << min_support;
      EXPECT_EQ(Bits(ComputeFairnessIndexView(data, resample, predictions,
                                              statistic, index_options)),
                Bits(FairnessIndex(Filtered(all_resample, min_support, 1),
                                   index_options)))
          << where << " view, min_support " << min_support;
    }
    for (int64_t min_size : kMinSizes) {
      const FairnessViolation actual =
          ComputeFairnessViolation(data, predictions, statistic, min_size);
      const FairnessViolation expected =
          OracleViolation(Filtered(all_rows, 0.0, min_size));
      EXPECT_EQ(actual.worst_pattern, expected.worst_pattern)
          << where << " min_size " << min_size;
      EXPECT_EQ(Bits(actual.violation), Bits(expected.violation))
          << where << " min_size " << min_size;
      EXPECT_EQ(Bits(actual.worst_divergence),
                Bits(expected.worst_divergence))
          << where << " min_size " << min_size;
      EXPECT_EQ(Bits(actual.worst_support), Bits(expected.worst_support))
          << where << " min_size " << min_size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ProtectedAttributes, DivergenceParityTest,
                         ::testing::Range(1, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "X" + std::to_string(info.param);
                         });

// Death tests fork, which TSan instrumentation does not tolerate well;
// the sanitizer twin skips these cases.
#if !defined(REMEDY_TSAN_BUILD)
TEST(AnalyzeSubgroupsViewDeathTest, RowOutsideTheTestSetDies) {
  Dataset data(::remedy::testing::SmallSchema());
  ::remedy::testing::AddRows(data, 4, 0, 1, 0, 0);
  ::remedy::testing::AddRows(data, 4, 2, 0, 1, 1);
  const std::vector<int> predictions(data.NumRows(), 1);
  EXPECT_DEATH(AnalyzeSubgroupsView(data, {0, data.NumRows()}, predictions,
                                    Statistic::kFpr),
               "outside the 8-row test set");
  EXPECT_DEATH(AnalyzeSubgroupsView(data, {-1, 3}, predictions,
                                    Statistic::kFnr),
               "view row -1 outside");
}
#endif

}  // namespace
}  // namespace remedy
