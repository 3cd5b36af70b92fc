#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/region_counter.h"
#include "test_util.h"

namespace remedy {
namespace {

using ::remedy::testing::GridDataset;
using ::remedy::testing::SmallSchema;

// Four protected attributes with mixed cardinalities (2·3·4·3 = 72 leaf
// regions) — wide enough that rollup exercises every digit position.
DataSchema WideSchema() {
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("p", {"p0", "p1"}),
      AttributeSchema("q", {"q0", "q1", "q2"}),
      AttributeSchema("s", {"s0", "s1", "s2", "s3"}),
      AttributeSchema("t", {"t0", "t1", "t2"}),
  };
  return DataSchema(std::move(attributes), {0, 1, 2, 3});
}

Dataset RandomWideDataset(uint64_t seed, int rows) {
  Rng rng(seed);
  Dataset data(WideSchema());
  for (int i = 0; i < rows; ++i) {
    data.AddRow({rng.UniformInt(2), rng.UniformInt(3), rng.UniformInt(4),
                 rng.UniformInt(3)},
                rng.UniformInt(2));
  }
  return data;
}

TEST(RegionCounterTest, KeyPatternRoundTrip) {
  RegionCounter counter(SmallSchema());
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 2; ++b) {
      Pattern pattern({a, b});
      uint64_t key = counter.KeyFor(pattern, 0b11);
      EXPECT_EQ(counter.PatternFor(key, 0b11), pattern);
    }
  }
  // Single-attribute node.
  Pattern only_b({Pattern::kWildcard, 1});
  uint64_t key = counter.KeyFor(only_b, 0b10);
  EXPECT_EQ(counter.PatternFor(key, 0b10), only_b);
}

TEST(RegionCounterTest, KeysAreUniquePerNode) {
  RegionCounter counter(SmallSchema());
  std::set<uint64_t> keys;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 2; ++b) {
      keys.insert(counter.KeyFor(Pattern({a, b}), 0b11));
    }
  }
  EXPECT_EQ(keys.size(), 6u);
}

TEST(RegionCounterTest, CountNodeLeaf) {
  // cells[a][b] = {positives, negatives}
  Dataset data = GridDataset({{{2, 3}, {1, 0}},
                              {{0, 4}, {5, 5}},
                              {{1, 1}, {0, 0}}});
  RegionCounter counter(data.schema());
  auto counts = counter.CountNode(data, 0b11);
  EXPECT_EQ(counts.size(), 5u);  // (a2,b1) is empty, absent from the map
  RegionCounts cell = counts.at(counter.KeyFor(Pattern({0, 0}), 0b11));
  EXPECT_EQ(cell.positives, 2);
  EXPECT_EQ(cell.negatives, 3);
  EXPECT_EQ(cell.Total(), 5);
}

TEST(RegionCounterTest, CountNodeMarginalizes) {
  Dataset data = GridDataset({{{2, 3}, {1, 0}},
                              {{0, 4}, {5, 5}},
                              {{1, 1}, {0, 0}}});
  RegionCounter counter(data.schema());
  auto by_a = counter.CountNode(data, 0b01);
  RegionCounts a0 = by_a.at(counter.KeyFor(
      Pattern({0, Pattern::kWildcard}), 0b01));
  EXPECT_EQ(a0.positives, 3);  // 2 + 1
  EXPECT_EQ(a0.negatives, 3);
  auto by_b = counter.CountNode(data, 0b10);
  RegionCounts b1 = by_b.at(counter.KeyFor(
      Pattern({Pattern::kWildcard, 1}), 0b10));
  EXPECT_EQ(b1.positives, 6);  // 1 + 5 + 0
  EXPECT_EQ(b1.negatives, 5);
}

TEST(RegionCounterTest, NodeCountsSumToDataset) {
  Dataset data = GridDataset({{{2, 3}, {1, 2}},
                              {{4, 0}, {5, 5}},
                              {{1, 1}, {3, 2}}});
  RegionCounter counter(data.schema());
  for (uint32_t mask : {0b01u, 0b10u, 0b11u}) {
    int64_t positives = 0, negatives = 0;
    for (const auto& [key, counts] : counter.CountNode(data, mask)) {
      positives += counts.positives;
      negatives += counts.negatives;
    }
    EXPECT_EQ(positives, data.PositiveCount()) << "mask " << mask;
    EXPECT_EQ(negatives, data.NegativeCount()) << "mask " << mask;
  }
}

TEST(NodeTableTest, IterationIsKeySorted) {
  NodeTable table({{7, {1, 0}}, {2, {0, 1}}, {5, {2, 2}}});
  std::vector<uint64_t> keys;
  for (const auto& [key, counts] : table) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<uint64_t>{2, 5, 7}));
}

TEST(NodeTableTest, DuplicateKeysMergeBySumming) {
  NodeTable table({{3, {1, 2}}, {1, {5, 0}}, {3, {10, 20}}});
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.at(3), (RegionCounts{11, 22}));
  EXPECT_EQ(table.at(1), (RegionCounts{5, 0}));
}

TEST(NodeTableTest, FindAndCountOnMissingKeys) {
  NodeTable table({{4, {1, 1}}});
  EXPECT_EQ(table.find(4)->second, (RegionCounts{1, 1}));
  EXPECT_EQ(table.find(3), table.end());
  EXPECT_EQ(table.find(5), table.end());
  EXPECT_EQ(table.count(4), 1u);
  EXPECT_EQ(table.count(9), 0u);
  EXPECT_TRUE(NodeTable().empty());
}

TEST(RegionCounterTest, RollUpMatchesDirectCount) {
  Dataset data = GridDataset({{{2, 3}, {1, 0}},
                              {{0, 4}, {5, 5}},
                              {{1, 1}, {0, 0}}});
  RegionCounter counter(data.schema());
  NodeTable leaf = counter.CountNode(data, 0b11);
  EXPECT_EQ(counter.RollUp(leaf, 0b11, 0b01), counter.CountNode(data, 0b01));
  EXPECT_EQ(counter.RollUp(leaf, 0b11, 0b10), counter.CountNode(data, 0b10));
}

// Randomized equivalence: every single-attribute rollup step, from every
// child node, must reproduce the direct one-pass scan of the parent node.
class RollUpEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RollUpEquivalenceTest, EveryRollUpStepMatchesDirectScan) {
  Dataset data = RandomWideDataset(GetParam(), 300 + 40 * GetParam());
  RegionCounter counter(data.schema());
  const uint32_t leaf = (1u << counter.NumProtected()) - 1u;
  for (uint32_t child_mask = 1; child_mask <= leaf; ++child_mask) {
    NodeTable child = counter.CountNode(data, child_mask);
    for (uint32_t bits = child_mask; bits != 0; bits &= bits - 1) {
      const uint32_t parent_mask = child_mask & ~(bits & (~bits + 1));
      if (parent_mask == 0) continue;
      EXPECT_EQ(counter.RollUp(child, child_mask, parent_mask),
                counter.CountNode(data, parent_mask))
          << "child " << child_mask << " parent " << parent_mask << " seed "
          << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollUpEquivalenceTest,
                         ::testing::Range(0, 8));

TEST(RegionCounterTest, KeySpaceIsCardinalityProduct) {
  RegionCounter counter(WideSchema());
  EXPECT_EQ(counter.KeySpace(0b1111), 72u);  // 2 * 3 * 4 * 3
  EXPECT_EQ(counter.KeySpace(0b0001), 2u);
  EXPECT_EQ(counter.KeySpace(0b1010), 9u);  // q * t
  EXPECT_EQ(counter.KeySpace(0), 1u);
}

TEST(RegionCounterTest, CountNodeKeysAreWithinKeySpace) {
  Dataset data = RandomWideDataset(3, 500);
  RegionCounter counter(data.schema());
  for (uint32_t mask = 1; mask <= 0b1111u; ++mask) {
    for (const auto& [key, counts] : counter.CountNode(data, mask)) {
      EXPECT_LT(key, counter.KeySpace(mask));
      EXPECT_GT(counts.Total(), 0);
    }
  }
}

TEST(RegionCounterTest, CollectRowsPartitions) {
  Dataset data = GridDataset({{{1, 1}, {0, 0}},
                              {{0, 0}, {2, 0}},
                              {{0, 0}, {0, 0}}});
  RegionCounter counter(data.schema());
  auto rows = counter.CollectRows(data, 0b11);
  EXPECT_EQ(rows.size(), 2u);
  size_t total = 0;
  for (const auto& [key, group] : rows) total += group.size();
  EXPECT_EQ(total, static_cast<size_t>(data.NumRows()));
  // Every row in a group matches the group's pattern.
  for (const auto& [key, group] : rows) {
    Pattern pattern = counter.PatternFor(key, 0b11);
    for (int row : group) EXPECT_TRUE(pattern.Matches(data, row));
  }
}

TEST(RegionCounterTest, RowKeyMatchesPatternKey) {
  Dataset data = GridDataset({{{1, 0}, {1, 0}},
                              {{1, 0}, {1, 0}},
                              {{1, 0}, {1, 0}}});
  RegionCounter counter(data.schema());
  for (int r = 0; r < data.NumRows(); ++r) {
    Pattern pattern({data.Value(r, 0), data.Value(r, 1)});
    EXPECT_EQ(counter.RowKey(data, r, 0b11),
              counter.KeyFor(pattern, 0b11));
  }
}

TEST(RegionCounterTest, ProjectKeyMatchesPatternProjection) {
  Dataset data = RandomWideDataset(13, 300);
  RegionCounter counter(data.schema());
  const uint32_t leaf = 0b1111;
  for (int r = 0; r < 40; ++r) {
    const uint64_t leaf_key = counter.RowKey(data, r, leaf);
    for (uint32_t mask = 1; mask <= leaf; ++mask) {
      // Dropping digits from the leaf key must land on the same key as
      // packing the row's values under the coarser mask directly.
      EXPECT_EQ(counter.ProjectKey(leaf_key, leaf, mask),
                counter.RowKey(data, r, mask))
          << "row " << r << " mask " << mask;
    }
  }
}

TEST(RegionCounterTest, ProjectKeyFromIntermediateNode) {
  Dataset data = RandomWideDataset(17, 200);
  RegionCounter counter(data.schema());
  const uint32_t from = 0b1011;
  for (int r = 0; r < 40; ++r) {
    const uint64_t from_key = counter.RowKey(data, r, from);
    for (uint32_t to : {0b0011u, 0b1010u, 0b0001u, 0b1011u}) {
      EXPECT_EQ(counter.ProjectKey(from_key, from, to),
                counter.RowKey(data, r, to))
          << "row " << r << " to " << to;
    }
  }
}

TEST(NodeTableTest, AddDeltasAdjustsExistingEntries) {
  NodeTable table({{5, {3, 4}}, {2, {1, 0}}, {9, {0, 7}}});
  table.AddDeltas(NodeTable({{5, {-2, 3}}}), /*insert_missing=*/false);
  EXPECT_EQ(table.at(5), (RegionCounts{1, 7}));
  // Neighbors untouched.
  EXPECT_EQ(table.at(2), (RegionCounts{1, 0}));
  EXPECT_EQ(table.at(9), (RegionCounts{0, 7}));
}

TEST(NodeTableTest, AddDeltasMayZeroButKeepsEntry) {
  NodeTable table({{4, {2, 1}}});
  table.AddDeltas(NodeTable({{4, {-2, -1}}}), /*insert_missing=*/false);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.at(4), (RegionCounts{0, 0}));
}

TEST(NodeTableTest, AddDeltasMergesNewKeysInKeyOrder) {
  NodeTable table({{2, {1, 1}}, {5, {2, 0}}, {9, {0, 3}}});
  std::vector<RegionCounts> before;
  // New keys below, between and above the existing ones, plus a net-zero
  // new key, which is inserted with zero counts.
  table.AddDeltas(NodeTable({{0, {1, 0}},
                             {2, {1, 1}},
                             {3, {0, 0}},
                             {9, {0, -3}},
                             {12, {4, 4}}}),
                  /*insert_missing=*/true, &before);
  const std::vector<NodeTable::Entry> expected = {
      {0, {1, 0}}, {2, {2, 2}}, {3, {0, 0}},
      {5, {2, 0}}, {9, {0, 0}}, {12, {4, 4}}};
  EXPECT_EQ(table.entries(), expected);
  const std::vector<RegionCounts> expected_before = {
      {0, 0}, {1, 1}, {0, 0}, {0, 3}, {0, 0}};
  EXPECT_EQ(before, expected_before);
}

TEST(NodeTableTest, AddDeltasOnMissingKeyDiesWithoutInsertMissing) {
  NodeTable table({{4, {2, 1}}});
  EXPECT_DEATH(table.AddDeltas(NodeTable({{3, {1, 0}}}), false), "not in");
}

TEST(NodeTableTest, AddDeltasNegativeFinalCountDies) {
  NodeTable table({{4, {2, 1}}});
  EXPECT_DEATH(table.AddDeltas(NodeTable({{4, {-3, 0}}}), false), "negative");
  EXPECT_DEATH(table.AddDeltas(NodeTable({{7, {0, -1}}}), true), "negative");
}

TEST(RegionCounterTest, DatasetCounts) {
  Dataset data = GridDataset({{{2, 3}, {0, 0}},
                              {{0, 0}, {0, 0}},
                              {{0, 0}, {0, 0}}});
  RegionCounter counter(data.schema());
  RegionCounts total = counter.DatasetCounts(data);
  EXPECT_EQ(total.positives, 2);
  EXPECT_EQ(total.negatives, 3);
}

}  // namespace
}  // namespace remedy
