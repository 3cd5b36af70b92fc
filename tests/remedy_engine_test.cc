// Equivalence suite for the remedy engine: RemedyDataset (delta-maintained)
// must be indistinguishable — remedied rows and stats — from its
// rebuild-from-scratch oracle ReferenceRemedyDataset, at any planning
// thread count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/remedy.h"
#include "datagen/adult.h"

namespace remedy {
namespace {

// TSan builds run the same assertions on a smaller instance (the sanitizer
// is ~10x slower); the threading coverage itself does not need the rows.
#ifdef REMEDY_TSAN_BUILD
constexpr int kRows = 4000;
constexpr int kMaxProtected = 4;
#else
constexpr int kRows = 20000;
constexpr int kMaxProtected = 6;
#endif

Dataset AdultData(int num_protected) {
  Dataset data = MakeAdult(kRows);
  data.SetProtected(AdultScalabilityProtected(num_protected));
  return data;
}

constexpr RemedyTechnique kTechniques[] = {
    RemedyTechnique::kOversample,
    RemedyTechnique::kUndersample,
    RemedyTechnique::kPreferentialSampling,
    RemedyTechnique::kMassaging,
};

// The engines preserve the surviving rows' relative order and append in the
// same merge order, so the remedied datasets are row-for-row identical —
// stronger than the multiset equality the contract promises.
void ExpectIdenticalDatasets(const Dataset& a, const Dataset& b,
                             const std::string& context) {
  ASSERT_EQ(a.NumRows(), b.NumRows()) << context;
  for (int r = 0; r < a.NumRows(); ++r) {
    ASSERT_EQ(a.Row(r), b.Row(r)) << context << " row " << r;
    ASSERT_EQ(a.Label(r), b.Label(r)) << context << " row " << r;
    ASSERT_EQ(a.Weight(r), b.Weight(r)) << context << " row " << r;
  }
}

void ExpectIdenticalStats(const RemedyStats& a, const RemedyStats& b,
                          const std::string& context) {
  EXPECT_EQ(a.regions_processed, b.regions_processed) << context;
  EXPECT_EQ(a.regions_skipped, b.regions_skipped) << context;
  EXPECT_EQ(a.instances_added, b.instances_added) << context;
  EXPECT_EQ(a.instances_removed, b.instances_removed) << context;
  EXPECT_EQ(a.labels_flipped, b.labels_flipped) << context;
  EXPECT_EQ(a.add_budget_exhausted, b.add_budget_exhausted) << context;
}

TEST(RemedyEngineTest, IncrementalMatchesRebuild) {
  for (int num_protected = 3; num_protected <= kMaxProtected;
       ++num_protected) {
    Dataset data = AdultData(num_protected);
    for (RemedyTechnique technique : kTechniques) {
      const std::string context =
          TechniqueName(technique) + " |X|=" + std::to_string(num_protected);
      RemedyParams params;
      params.technique = technique;
      // Bound the oversampling growth so the rebuild reference stays cheap;
      // the cap exercises the shared budget truncation on both sides.
      params.max_added_total = 2 * kRows;
      params.planning_threads = 2;

      RemedyStats rebuild_stats;
      Dataset rebuilt =
          ReferenceRemedyDataset(data, params, &rebuild_stats).value();

      RemedyStats incremental_stats;
      Dataset incremental = RemedyDataset(data, params, &incremental_stats).value();

      ExpectIdenticalDatasets(rebuilt, incremental, context);
      ExpectIdenticalStats(rebuild_stats, incremental_stats, context);
      EXPECT_GT(rebuild_stats.regions_processed, 0) << context;
    }
  }
}

TEST(RemedyEngineTest, OutputIsIndependentOfPlanningThreads) {
  Dataset data = AdultData(kMaxProtected);
  for (RemedyTechnique technique : kTechniques) {
    const std::string context = TechniqueName(technique);
    RemedyParams params;
    params.technique = technique;
    params.max_added_total = 2 * kRows;

    params.planning_threads = 1;
    RemedyStats serial_stats;
    Dataset serial = RemedyDataset(data, params, &serial_stats).value();

    params.planning_threads = 4;
    RemedyStats parallel_stats;
    Dataset parallel = RemedyDataset(data, params, &parallel_stats).value();

    ExpectIdenticalDatasets(serial, parallel, context);
    ExpectIdenticalStats(serial_stats, parallel_stats, context);
  }
}

TEST(RemedyEngineTest, AddBudgetPathMatches) {
  Dataset data = AdultData(3);
  RemedyParams params;
  params.technique = RemedyTechnique::kOversample;
  params.max_added_total = 40;  // tight: some region must overflow it
  params.planning_threads = 2;

  RemedyStats rebuild_stats;
  Dataset rebuilt = ReferenceRemedyDataset(data, params, &rebuild_stats).value();

  RemedyStats incremental_stats;
  Dataset incremental = RemedyDataset(data, params, &incremental_stats).value();

  ExpectIdenticalDatasets(rebuilt, incremental, "budget");
  ExpectIdenticalStats(rebuild_stats, incremental_stats, "budget");
  EXPECT_TRUE(incremental_stats.add_budget_exhausted);
  EXPECT_LE(incremental_stats.instances_added, 40);
}

TEST(RemedyEngineTest, UnlimitedBudgetMatches) {
  Dataset data = AdultData(3);
  RemedyParams params;
  params.technique = RemedyTechnique::kOversample;
  params.max_added_total = -1;  // cap disabled
  params.planning_threads = 2;

  RemedyStats rebuild_stats;
  Dataset rebuilt = ReferenceRemedyDataset(data, params, &rebuild_stats).value();

  RemedyStats incremental_stats;
  Dataset incremental = RemedyDataset(data, params, &incremental_stats).value();

  ExpectIdenticalDatasets(rebuilt, incremental, "unlimited");
  ExpectIdenticalStats(rebuild_stats, incremental_stats, "unlimited");
  EXPECT_FALSE(incremental_stats.add_budget_exhausted);
}

}  // namespace
}  // namespace remedy
