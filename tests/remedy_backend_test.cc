// The daemon's remedy write path (core/remedy_backend.h, docs/REMEDY.md).
//
// The load-bearing half is the randomized parity suite: PlanLeafRemedy's
// delta plan, applied to the source leaf counts, must land on the exact
// FNV-1a counts digest of running ReferenceRemedyDataset over the canonical
// materialization of those same counts — for every technique and every
// planning thread count. That digest identity is what lets the daemon
// commit remedies as WAL deltas and still claim byte-equivalence with the
// offline pipeline. The rest pins the canonical materialization round-trip
// and the DiffLeafCounts algebra.

#include "core/remedy_backend.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/pipeline_metrics.h"
#include "common/rng.h"
#include "core/hierarchy.h"
#include "core/region_counter.h"
#include "core/remedy.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "test_util.h"

namespace remedy {
namespace {

using remedy::testing::GridDataset;
using remedy::testing::SmallSchema;

void ExpectIdenticalRows(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (int r = 0; r < a.NumRows(); ++r) {
    ASSERT_EQ(a.Row(r), b.Row(r)) << "row " << r;
    ASSERT_EQ(a.Label(r), b.Label(r)) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// Canonical materialization
// ---------------------------------------------------------------------------

TEST(MaterializeLeafCountsTest, RoundTripsTheLeafCensus) {
  Dataset data = GridDataset({{{7, 3}, {0, 5}},
                              {{2, 2}, {9, 0}},
                              {{0, 0}, {4, 6}}});
  const NodeTable counts = LeafCountsOf(data);
  StatusOr<Dataset> materialized =
      MaterializeLeafCounts(data.schema(), counts);
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  // Count-faithful: the materialized rows re-census to the input exactly.
  EXPECT_EQ(LeafCountsOf(materialized.value()), counts);
  EXPECT_EQ(LeafCountsDigest(LeafCountsOf(materialized.value())),
            LeafCountsDigest(counts));
  // Row count matches the census total (empty cells add nothing).
  EXPECT_EQ(materialized.value().NumRows(), 7 + 3 + 5 + 2 + 2 + 9 + 4 + 6);
}

TEST(MaterializeLeafCountsTest, IsDeterministicInTheCountsAlone) {
  // Two different row orders with the same census materialize identically —
  // the property that makes the daemon's count-only state sufficient.
  Dataset forward(SmallSchema());
  Dataset backward(SmallSchema());
  remedy::testing::AddRows(forward, 4, 0, 0, 1, 1);
  remedy::testing::AddRows(forward, 2, 1, 1, 0, 0);
  remedy::testing::AddRows(backward, 2, 1, 1, 1, 0);
  remedy::testing::AddRows(backward, 4, 0, 0, 0, 1);
  Dataset a =
      MaterializeLeafCounts(forward.schema(), LeafCountsOf(forward)).value();
  Dataset b =
      MaterializeLeafCounts(backward.schema(), LeafCountsOf(backward)).value();
  ExpectIdenticalRows(a, b);
}

TEST(MaterializeLeafCountsTest, RejectsUnprotectedSchemaAndNegativeCounts) {
  DataSchema no_protected(
      {AttributeSchema("x", {"x0", "x1"})}, {});
  EXPECT_EQ(MaterializeLeafCounts(no_protected, NodeTable())
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  NodeTable negative({{0, RegionCounts{-1, 2}}});
  EXPECT_EQ(MaterializeLeafCounts(SmallSchema(), negative).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// DiffLeafCounts algebra
// ---------------------------------------------------------------------------

NodeTable Applied(const NodeTable& base,
                  const std::vector<Hierarchy::LeafDelta>& deltas) {
  std::vector<NodeTable::Entry> entries;
  for (const Hierarchy::LeafDelta& delta : deltas) {
    entries.push_back(
        {delta.leaf_key, {delta.delta_positives, delta.delta_negatives}});
  }
  NodeTable out = base;
  out.AddDeltas(NodeTable(std::move(entries)), /*insert_missing=*/true);
  return out;
}

TEST(DiffLeafCountsTest, BeforePlusDiffEqualsAfter) {
  NodeTable before({{0, {5, 3}}, {2, {1, 1}}, {4, {0, 7}}});
  // Key 0 changes, key 2 drains to zero, key 3 appears, key 4 is untouched.
  NodeTable after({{0, {6, 2}}, {2, {0, 0}}, {3, {4, 4}}, {4, {0, 7}}});
  const std::vector<Hierarchy::LeafDelta> diff =
      DiffLeafCounts(before, after);
  EXPECT_EQ(LeafCountsDigest(Applied(before, diff)),
            LeafCountsDigest(after));
  // Untouched keys must not appear; deltas come out ascending by key.
  for (size_t i = 0; i < diff.size(); ++i) {
    EXPECT_TRUE(diff[i].delta_positives != 0 || diff[i].delta_negatives != 0);
    if (i > 0) EXPECT_LT(diff[i - 1].leaf_key, diff[i].leaf_key);
  }
  EXPECT_EQ(diff.size(), 3u);
}

TEST(DiffLeafCountsTest, EqualTablesDiffToNothing) {
  NodeTable counts({{1, {2, 2}}, {5, {0, 9}}});
  EXPECT_TRUE(DiffLeafCounts(counts, counts).empty());
}

// ---------------------------------------------------------------------------
// PlanLeafRemedy edge cases
// ---------------------------------------------------------------------------

TEST(PlanLeafRemedyTest, EmptySourcePlansNothing) {
  // The daemon may ask for a remedy before any batch arrived; that is a
  // no-op plan, not an error.
  StatusOr<RemedyDeltaPlan> plan =
      PlanLeafRemedy(SmallSchema(), NodeTable(), RemedyParams());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan.value().deltas.empty());
}

// ---------------------------------------------------------------------------
// Parity: PlanLeafRemedy deltas == the reference on the materialized dataset
// ---------------------------------------------------------------------------

RemedyParams BiasedParams(RemedyTechnique technique, uint64_t seed,
                          int threads) {
  RemedyParams params;
  params.ibs.imbalance_threshold = 0.2;
  params.ibs.min_region_size = 5;
  params.technique = technique;
  params.seed = seed;
  params.planning_threads = threads;
  return params;
}

// A random census with skewed cells so the IBS is usually non-empty.
NodeTable RandomCounts(Rng& rng) {
  std::vector<std::vector<std::pair<int, int>>> cells(3);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 2; ++b) {
      cells[a].push_back(
          {rng.UniformInt(120), rng.UniformInt(40)});
    }
  }
  return LeafCountsOf(GridDataset(cells));
}

class PlanLeafRemedyParityTest
    : public ::testing::TestWithParam<std::tuple<RemedyTechnique, int>> {};

TEST_P(PlanLeafRemedyParityTest, DeltasMatchReferenceOnMaterialized) {
  auto [technique, threads] = GetParam();
#ifdef REMEDY_TSAN_BUILD
  const int kDraws = 2;  // TSan is ~10x slower; the race surface is the same
#else
  const int kDraws = 8;
#endif
  const DataSchema schema = SmallSchema();
  int acted = 0;
  for (int draw = 0; draw < kDraws; ++draw) {
    Rng rng(100 * draw + threads + 7);
    const NodeTable counts = RandomCounts(rng);
    const RemedyParams params = BiasedParams(technique, 23 + draw, threads);

    StatusOr<RemedyDeltaPlan> plan = PlanLeafRemedy(schema, counts, params);
    ASSERT_TRUE(plan.ok()) << plan.status();

    // Oracle: the rebuild reference over the canonical materialization of
    // the same counts, then a census of the remedied rows.
    Dataset materialized = MaterializeLeafCounts(schema, counts).value();
    StatusOr<Dataset> remedied = ReferenceRemedyDataset(materialized, params);
    ASSERT_TRUE(remedied.ok()) << remedied.status();

    EXPECT_EQ(LeafCountsDigest(Applied(counts, plan.value().deltas)),
              LeafCountsDigest(LeafCountsOf(remedied.value())))
        << TechniqueName(technique) << " draw " << draw << " threads "
        << threads;
    if (!plan.value().deltas.empty()) ++acted;
  }
  EXPECT_GT(acted, 0) << "every draw planned nothing; the sweep proved "
                         "nothing — reskew RandomCounts";
}

INSTANTIATE_TEST_SUITE_P(
    TechniqueThreadSweep, PlanLeafRemedyParityTest,
    ::testing::Combine(
        ::testing::Values(RemedyTechnique::kOversample,
                          RemedyTechnique::kUndersample,
                          RemedyTechnique::kPreferentialSampling,
                          RemedyTechnique::kMassaging),
        ::testing::Values(1, 2, 4, 0)),
    [](const ::testing::TestParamInfo<std::tuple<RemedyTechnique, int>>&
           info) {
      return TechniqueName(std::get<0>(info.param)) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

// On a dataset source, RemedyDataset and the reference are row-faithful
// twins: same rows out, not just the same census (tests/remedy_engine_test.cc
// pins this on Adult; here on a hand-built grid).
TEST(ReferenceRemedyTest, RemedyDatasetIsByteIdenticalOnRows) {
  Dataset data = GridDataset({{{80, 10}, {12, 40}},
                              {{30, 30}, {5, 60}},
                              {{90, 9}, {20, 20}}});
  const RemedyParams params =
      BiasedParams(RemedyTechnique::kPreferentialSampling, 23, 2);
  StatusOr<Dataset> a = ReferenceRemedyDataset(data, params);
  StatusOr<Dataset> b = RemedyDataset(data, params);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectIdenticalRows(a.value(), b.value());
}

// ---------------------------------------------------------------------------
// PlanLeafRemedy: errors, no-ops, stats and metrics
// ---------------------------------------------------------------------------

TEST(PlanLeafRemedyTest, PropagatesMaterializationErrors) {
  // A non-empty census is materialized, so its errors reach the caller
  // instead of being planned around.
  DataSchema no_protected({AttributeSchema("x", {"x0", "x1"})}, {});
  EXPECT_EQ(PlanLeafRemedy(no_protected, NodeTable({{0, RegionCounts{3, 2}}}),
                           RemedyParams())
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  NodeTable negative({{0, RegionCounts{-1, 2}}});
  EXPECT_EQ(
      PlanLeafRemedy(SmallSchema(), negative, RemedyParams()).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(PlanLeafRemedyTest, FairCensusPlansNothing) {
  // Every leaf at the same positive ratio: no region is biased against its
  // neighbors, so no technique has anything to change.
  const NodeTable fair = LeafCountsOf(GridDataset({{{40, 20}, {20, 10}},
                                                   {{60, 30}, {40, 20}},
                                                   {{20, 10}, {80, 40}}}));
  for (RemedyTechnique technique :
       {RemedyTechnique::kOversample, RemedyTechnique::kUndersample,
        RemedyTechnique::kPreferentialSampling,
        RemedyTechnique::kMassaging}) {
    StatusOr<RemedyDeltaPlan> plan = PlanLeafRemedy(
        SmallSchema(), fair, BiasedParams(technique, 23, 1));
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_TRUE(plan.value().deltas.empty()) << TechniqueName(technique);
    EXPECT_EQ(plan.value().stats.regions_processed, 0)
        << TechniqueName(technique);
  }
}

TEST(PlanLeafRemedyTest, StatsMatchTheReferenceAndTheDeltas) {
  const DataSchema schema = SmallSchema();
  const NodeTable counts = LeafCountsOf(GridDataset({{{80, 10}, {12, 40}},
                                                     {{30, 30}, {5, 60}},
                                                     {{90, 9}, {20, 20}}}));
  Dataset materialized = MaterializeLeafCounts(schema, counts).value();
  for (RemedyTechnique technique :
       {RemedyTechnique::kOversample, RemedyTechnique::kUndersample,
        RemedyTechnique::kPreferentialSampling,
        RemedyTechnique::kMassaging}) {
    const RemedyParams params = BiasedParams(technique, 23, 2);
    StatusOr<RemedyDeltaPlan> plan = PlanLeafRemedy(schema, counts, params);
    ASSERT_TRUE(plan.ok()) << plan.status();
    RemedyStats reference;
    ASSERT_TRUE(
        ReferenceRemedyDataset(materialized, params, &reference).ok());

    const RemedyStats& stats = plan.value().stats;
    const std::string name = TechniqueName(technique);
    EXPECT_GT(stats.regions_processed, 0) << name;
    EXPECT_EQ(stats.regions_processed, reference.regions_processed) << name;
    EXPECT_EQ(stats.regions_skipped, reference.regions_skipped) << name;
    EXPECT_EQ(stats.instances_added, reference.instances_added) << name;
    EXPECT_EQ(stats.instances_removed, reference.instances_removed) << name;
    EXPECT_EQ(stats.labels_flipped, reference.labels_flipped) << name;
    EXPECT_EQ(stats.add_budget_exhausted, reference.add_budget_exhausted)
        << name;

    // The net row change the deltas commit is what the stats report.
    int64_t net = 0;
    for (const Hierarchy::LeafDelta& delta : plan.value().deltas) {
      net += delta.delta_positives + delta.delta_negatives;
    }
    EXPECT_EQ(net, stats.instances_added - stats.instances_removed) << name;
  }
}

TEST(PlanLeafRemedyTest, RecordsTheRemedyBackendMetrics) {
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  const int64_t plans_before = metrics.remedy_backend_plans->Value();
  const int64_t deltas_before =
      metrics.remedy_backend_deltas_planned->Value();
  const int64_t timed_before = metrics.remedy_backend_plan_ns->Count();

  const NodeTable counts = LeafCountsOf(GridDataset({{{80, 10}, {12, 40}},
                                                     {{30, 30}, {5, 60}},
                                                     {{90, 9}, {20, 20}}}));
  StatusOr<RemedyDeltaPlan> plan = PlanLeafRemedy(
      SmallSchema(), counts,
      BiasedParams(RemedyTechnique::kPreferentialSampling, 23, 1));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_FALSE(plan.value().deltas.empty());

  EXPECT_EQ(metrics.remedy_backend_plans->Value() - plans_before, 1);
  EXPECT_EQ(metrics.remedy_backend_deltas_planned->Value() - deltas_before,
            static_cast<int64_t>(plan.value().deltas.size()));
  EXPECT_EQ(metrics.remedy_backend_plan_ns->Count() - timed_before, 1);
}

}  // namespace
}  // namespace remedy
