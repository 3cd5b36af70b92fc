// RemedyBackend seam tests (docs/REMEDY.md).
//
// The load-bearing half is the randomized parity suite: the streaming
// backend's delta plan, applied to the source leaf counts, must land on the
// exact FNV-1a counts digest of running the batch rebuild engine over the
// canonical materialization of those same counts — for every technique and
// every planning thread count. That digest identity is what lets the daemon
// commit remedies as WAL deltas and still claim byte-equivalence with the
// offline pipeline. The rest pins the registry (names, parse errors), the
// canonical materialization round-trip, and the DiffLeafCounts algebra.

#include "core/remedy_backend.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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
// Registry: names, parsing, construction
// ---------------------------------------------------------------------------

TEST(RemedyBackendRegistryTest, NamesRoundTripThroughParse) {
  for (RemedyBackendKind kind :
       {RemedyBackendKind::kRebuild, RemedyBackendKind::kIncremental,
        RemedyBackendKind::kStreaming}) {
    StatusOr<RemedyBackendKind> parsed =
        ParseRemedyBackend(RemedyBackendName(kind));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed.value(), kind);
  }
}

TEST(RemedyBackendRegistryTest, UnknownNameListsTheValidOnes) {
  for (const std::string& bogus : {"", "Rebuild", "online", "stream"}) {
    StatusOr<RemedyBackendKind> parsed = ParseRemedyBackend(bogus);
    ASSERT_FALSE(parsed.ok()) << "'" << bogus << "' parsed";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    // The message is the CLI's only hint; it must name every backend.
    const std::string& message = parsed.status().message();
    EXPECT_NE(message.find("rebuild"), std::string::npos) << message;
    EXPECT_NE(message.find("incremental"), std::string::npos) << message;
    EXPECT_NE(message.find("streaming"), std::string::npos) << message;
  }
}

TEST(RemedyBackendRegistryTest, CreateReturnsTheAskedForKind) {
  for (RemedyBackendKind kind :
       {RemedyBackendKind::kRebuild, RemedyBackendKind::kIncremental,
        RemedyBackendKind::kStreaming}) {
    auto backend = RemedyBackend::Create(kind);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), kind);
    EXPECT_STREQ(backend->name(), RemedyBackendName(kind));
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
// PlanDeltas edge cases
// ---------------------------------------------------------------------------

TEST(RemedyBackendTest, EmptySourcePlansNothing) {
  // The daemon may ask for a remedy before any batch arrived; that is a
  // no-op plan, not an error.
  const DataSchema schema = SmallSchema();
  NodeTable empty;
  RemedySource source;
  source.schema = &schema;
  source.leaf_counts = &empty;
  auto backend = RemedyBackend::Create(RemedyBackendKind::kStreaming);
  StatusOr<RemedyDeltaPlan> plan = backend->PlanDeltas(source, RemedyParams());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan.value().deltas.empty());
}

TEST(RemedyBackendTest, SourceValidationRejectsAmbiguityAndAbsence) {
  Dataset data = GridDataset({{{5, 5}}});
  const NodeTable counts = LeafCountsOf(data);
  auto backend = RemedyBackend::Create(RemedyBackendKind::kIncremental);

  RemedySource none;  // neither form set
  EXPECT_EQ(backend->Remedy(none, RemedyParams()).status().code(),
            StatusCode::kInvalidArgument);

  RemedySource both;  // both forms set
  both.dataset = &data;
  both.schema = &data.schema();
  both.leaf_counts = &counts;
  EXPECT_EQ(backend->Remedy(both, RemedyParams()).status().code(),
            StatusCode::kInvalidArgument);

  RemedySource counts_without_schema;
  counts_without_schema.leaf_counts = &counts;
  EXPECT_EQ(
      backend->Remedy(counts_without_schema, RemedyParams()).status().code(),
      StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Parity: streaming deltas == rebuild on the materialized dataset
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

class RemedyBackendParityTest
    : public ::testing::TestWithParam<std::tuple<RemedyTechnique, int>> {};

TEST_P(RemedyBackendParityTest, StreamingDeltasMatchRebuildOnMaterialized) {
  auto [technique, threads] = GetParam();
#ifdef REMEDY_TSAN_BUILD
  const int kDraws = 2;  // TSan is ~10x slower; the race surface is the same
#else
  const int kDraws = 8;
#endif
  const DataSchema schema = SmallSchema();
  auto streaming = RemedyBackend::Create(RemedyBackendKind::kStreaming);
  auto rebuild = RemedyBackend::Create(RemedyBackendKind::kRebuild);
  int acted = 0;
  for (int draw = 0; draw < kDraws; ++draw) {
    Rng rng(100 * draw + threads + 7);
    const NodeTable counts = RandomCounts(rng);
    const RemedyParams params = BiasedParams(technique, 23 + draw, threads);

    RemedySource count_source;
    count_source.schema = &schema;
    count_source.leaf_counts = &counts;
    StatusOr<RemedyDeltaPlan> plan =
        streaming->PlanDeltas(count_source, params);
    ASSERT_TRUE(plan.ok()) << plan.status();

    // Oracle: batch-rebuild the remedy over the canonical materialization
    // of the same counts, then census the remedied rows.
    Dataset materialized = MaterializeLeafCounts(schema, counts).value();
    RemedySource row_source;
    row_source.dataset = &materialized;
    StatusOr<Dataset> remedied = rebuild->Remedy(row_source, params);
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
    TechniqueThreadSweep, RemedyBackendParityTest,
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

// The two batch backends are row-faithful twins: same rows out, not just
// the same census (the PR 2 identity, restated through the seam).
TEST(RemedyBackendTest, BatchBackendsAreByteIdenticalOnRows) {
  Dataset data = GridDataset({{{80, 10}, {12, 40}},
                              {{30, 30}, {5, 60}},
                              {{90, 9}, {20, 20}}});
  RemedySource source;
  source.dataset = &data;
  const RemedyParams params =
      BiasedParams(RemedyTechnique::kPreferentialSampling, 23, 2);
  StatusOr<Dataset> a =
      RemedyBackend::Create(RemedyBackendKind::kRebuild)
          ->Remedy(source, params);
  StatusOr<Dataset> b =
      RemedyBackend::Create(RemedyBackendKind::kIncremental)
          ->Remedy(source, params);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectIdenticalRows(a.value(), b.value());
}

}  // namespace
}  // namespace remedy
