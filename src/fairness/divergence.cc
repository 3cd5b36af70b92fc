#include "fairness/divergence.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"
#include "common/trace.h"
#include "core/hierarchy.h"
#include "fairness/significance.h"

namespace remedy {

std::string StatisticName(Statistic statistic) {
  switch (statistic) {
    case Statistic::kFpr:
      return "FPR";
    case Statistic::kFnr:
      return "FNR";
    case Statistic::kStatisticalParity:
      return "SP";
    case Statistic::kErrorRate:
      return "ER";
  }
  REMEDY_CHECK(false) << "unknown statistic";
  return "";
}

namespace {

// Shared core of the dataset and view forms. `view` == nullptr analyzes
// every row of `test` in order; otherwise position i stands for test row
// (*view)[i]. `predictions` is always indexed by original test row.
//
// One pass over the positions tallies two leaf-node census tables, and
// Hierarchy::RollUpLattice derives every coarser node from them:
//   all:      positives = relevant rows, negatives = the others, so
//             Total() is the subgroup size;
//   relevant: relevant rows only, positives = errors, negatives = the
//             correctly handled ones.
// Every tally is an integer count, so each report equals a per-node scan
// of the rows bit for bit; nodes come out in BottomUpMasks() order with
// ascending keys inside each node.
SubgroupAnalysis AnalyzeImpl(const Dataset& test,
                             const std::vector<int>* view,
                             const std::vector<int>& predictions,
                             Statistic statistic, double min_support,
                             int64_t min_size) {
  REMEDY_TRACE_SPAN("fairness/analyze");
  REMEDY_CHECK(static_cast<int>(predictions.size()) == test.NumRows());
  REMEDY_CHECK(test.schema().NumProtected() > 0);

  SubgroupAnalysis analysis;
  analysis.statistic = statistic;

  Hierarchy hierarchy(test);
  const RegionCounter& counter = hierarchy.counter();
  const uint32_t leaf = hierarchy.LeafMask();
  const int num_rows = test.NumRows();
  const int n = view ? static_cast<int>(view->size()) : num_rows;
  std::vector<NodeTable::Entry> all, relevant;
  all.reserve(n);
  relevant.reserve(n);
  int64_t total_relevant = 0, total_errors = 0;
  for (int i = 0; i < n; ++i) {
    int r = i;
    if (view) {
      r = (*view)[i];
      REMEDY_CHECK(r >= 0 && r < num_rows)
          << "view row " << r << " outside the " << num_rows
          << "-row test set";
    }
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
    const uint64_t key = counter.RowKey(test, r, leaf);
    all.push_back({key, {in_class, !in_class}});
    if (in_class) relevant.push_back({key, {event, !event}});
    total_relevant += in_class;
    total_errors += event;
  }
  analysis.overall = total_relevant > 0
                         ? static_cast<double>(total_errors) / total_relevant
                         : 0.0;

  // Emits one node's reports: a merge-walk of its two ascending tables
  // (every key with a relevant row is in both).
  const auto emit = [&](uint32_t mask,
                        const std::array<NodeTable, 2>& tables) {
    NodeTable::const_iterator errors_it = tables[1].begin();
    for (const auto& [key, counts] : tables[0]) {
      const int64_t size = counts.Total();
      const int64_t group_relevant = counts.positives;
      if (group_relevant == 0) continue;  // statistic undefined for group
      while (errors_it->first < key) ++errors_it;
      REMEDY_DCHECK(errors_it->first == key &&
                    errors_it->second.Total() == group_relevant);
      const int64_t errors = errors_it->second.positives;
      if (size < min_size) continue;
      double support = static_cast<double>(size) / n;
      if (support < min_support) continue;

      SubgroupReport report;
      report.pattern = counter.PatternFor(key, mask);
      report.size = size;
      report.support = support;
      report.relevant = group_relevant;
      report.errors = errors;
      report.statistic = static_cast<double>(errors) / group_relevant;
      report.divergence = std::fabs(report.statistic - analysis.overall);
      report.p_value =
          WelchTTestBernoulli(errors, group_relevant, total_errors - errors,
                              total_relevant - group_relevant)
              .p_value;
      analysis.subgroups.push_back(std::move(report));
    }
  };
  hierarchy.RollUpLattice(
      std::array<NodeTable, 2>{NodeTable(std::move(all)),
                               NodeTable(std::move(relevant))},
      emit);
  return analysis;
}

}  // namespace

SubgroupAnalysis AnalyzeSubgroups(const Dataset& test,
                                  const std::vector<int>& predictions,
                                  Statistic statistic, double min_support,
                                  int64_t min_size) {
  return AnalyzeImpl(test, nullptr, predictions, statistic, min_support,
                     min_size);
}

SubgroupAnalysis AnalyzeSubgroupsView(const Dataset& test,
                                      const std::vector<int>& rows,
                                      const std::vector<int>& predictions,
                                      Statistic statistic, double min_support,
                                      int64_t min_size) {
  return AnalyzeImpl(test, &rows, predictions, statistic, min_support,
                     min_size);
}

std::vector<SubgroupReport> FilterUnfair(const SubgroupAnalysis& analysis,
                                         double discrimination_threshold,
                                         double alpha) {
  std::vector<SubgroupReport> unfair;
  for (const SubgroupReport& report : analysis.subgroups) {
    if (report.divergence > discrimination_threshold &&
        report.p_value < alpha) {
      unfair.push_back(report);
    }
  }
  std::sort(unfair.begin(), unfair.end(),
            [](const SubgroupReport& a, const SubgroupReport& b) {
              if (a.divergence != b.divergence) {
                return a.divergence > b.divergence;
              }
              return a.pattern < b.pattern;
            });
  return unfair;
}

}  // namespace remedy
