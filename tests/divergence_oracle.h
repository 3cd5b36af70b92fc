#ifndef REMEDY_TESTS_DIVERGENCE_ORACLE_H_
#define REMEDY_TESTS_DIVERGENCE_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "core/hierarchy.h"
#include "fairness/divergence.h"
#include "fairness/significance.h"

namespace remedy::testing {

// Test-only oracle for AnalyzeSubgroups / AnalyzeSubgroupsView: the
// original per-node row scan, kept verbatim. For every node of the
// lattice it re-tallies every row into a hash map, so it shares nothing
// with the production leaf census and rollup except the key packing.
// `view` == nullptr analyzes every row of `test` in order; otherwise
// position i stands for test row (*view)[i].
inline SubgroupAnalysis RowScanAnalyzeSubgroups(
    const Dataset& test, const std::vector<int>* view,
    const std::vector<int>& predictions, Statistic statistic,
    double min_support, int64_t min_size) {
  struct GroupTally {
    int64_t size = 0;      // all rows in the subgroup
    int64_t relevant = 0;  // rows in the statistic's conditioning class
    int64_t errors = 0;    // misclassified relevant rows
  };
  REMEDY_CHECK(static_cast<int>(predictions.size()) == test.NumRows());
  REMEDY_CHECK(test.schema().NumProtected() > 0);

  SubgroupAnalysis analysis;
  analysis.statistic = statistic;

  // Per-position relevance/error indicators for the chosen statistic.
  const int n = view ? static_cast<int>(view->size()) : test.NumRows();
  std::vector<char> relevant(n), error(n);
  int64_t total_relevant = 0, total_errors = 0;
  for (int i = 0; i < n; ++i) {
    const int r = view ? (*view)[i] : i;
    bool in_class = false;
    bool event = false;
    switch (statistic) {
      case Statistic::kFpr:
        in_class = test.Label(r) == 0;
        event = in_class && predictions[r] == 1;
        break;
      case Statistic::kFnr:
        in_class = test.Label(r) == 1;
        event = in_class && predictions[r] == 0;
        break;
      case Statistic::kStatisticalParity:
        in_class = true;
        event = predictions[r] == 1;
        break;
      case Statistic::kErrorRate:
        in_class = true;
        event = predictions[r] != test.Label(r);
        break;
    }
    relevant[i] = in_class;
    error[i] = event;
    total_relevant += in_class;
    total_errors += event;
  }
  analysis.overall = total_relevant > 0
                         ? static_cast<double>(total_errors) / total_relevant
                         : 0.0;

  Hierarchy hierarchy(test);
  const RegionCounter& counter = hierarchy.counter();
  for (uint32_t mask : hierarchy.BottomUpMasks()) {
    // Tally every subgroup of this node in one pass.
    std::unordered_map<uint64_t, GroupTally> tallies;
    for (int i = 0; i < n; ++i) {
      const int r = view ? (*view)[i] : i;
      GroupTally& tally = tallies[counter.RowKey(test, r, mask)];
      ++tally.size;
      tally.relevant += relevant[i];
      tally.errors += error[i];
    }

    std::vector<uint64_t> keys;
    keys.reserve(tallies.size());
    for (const auto& [key, tally] : tallies) keys.push_back(key);
    std::sort(keys.begin(), keys.end());

    for (uint64_t key : keys) {
      const GroupTally& tally = tallies.at(key);
      if (tally.size < min_size) continue;
      double support = static_cast<double>(tally.size) / n;
      if (support < min_support) continue;
      if (tally.relevant == 0) continue;  // statistic undefined for group

      SubgroupReport report;
      report.pattern = counter.PatternFor(key, mask);
      report.size = tally.size;
      report.support = support;
      report.relevant = tally.relevant;
      report.errors = tally.errors;
      report.statistic =
          static_cast<double>(tally.errors) / tally.relevant;
      report.divergence = std::fabs(report.statistic - analysis.overall);
      report.p_value =
          WelchTTestBernoulli(tally.errors, tally.relevant,
                              total_errors - tally.errors,
                              total_relevant - tally.relevant)
              .p_value;
      analysis.subgroups.push_back(std::move(report));
    }
  }
  return analysis;
}

}  // namespace remedy::testing

#endif  // REMEDY_TESTS_DIVERGENCE_ORACLE_H_
