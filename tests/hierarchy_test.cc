#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/hierarchy.h"
#include "datagen/generator.h"
#include "datagen/random_spec.h"
#include "test_util.h"

namespace remedy {
namespace {

using ::remedy::testing::GridDataset;
using ::remedy::testing::SmallSchema;

Dataset ThreeByTwo() {
  return GridDataset({{{2, 3}, {1, 2}},
                      {{4, 1}, {5, 5}},
                      {{1, 1}, {3, 2}}});
}

// Four protected attributes (2·3·2·4 leaf regions) with random rows, for
// exercising the lattice beyond the two-attribute grid.
Dataset RandomFourAttrDataset(uint64_t seed, int rows) {
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("w", {"w0", "w1"}),
      AttributeSchema("x", {"x0", "x1", "x2"}),
      AttributeSchema("y", {"y0", "y1"}),
      AttributeSchema("z", {"z0", "z1", "z2", "z3"}),
  };
  DataSchema schema(std::move(attributes), {0, 1, 2, 3});
  Rng rng(seed);
  Dataset data(schema);
  for (int i = 0; i < rows; ++i) {
    data.AddRow({rng.UniformInt(2), rng.UniformInt(3), rng.UniformInt(2),
                 rng.UniformInt(4)},
                rng.UniformInt(2));
  }
  return data;
}

TEST(HierarchyTest, LeafMask) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  EXPECT_EQ(hierarchy.NumProtected(), 2);
  EXPECT_EQ(hierarchy.LeafMask(), 0b11u);
}

TEST(HierarchyTest, TotalCounts) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  EXPECT_EQ(hierarchy.TotalCounts().positives, data.PositiveCount());
  EXPECT_EQ(hierarchy.TotalCounts().negatives, data.NegativeCount());
}

TEST(HierarchyTest, NodeCountsAreMemoized) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  const auto& first = hierarchy.NodeCounts(0b11);
  const auto& second = hierarchy.NodeCounts(0b11);
  EXPECT_EQ(&first, &second);  // same map instance
}

TEST(HierarchyTest, InvalidateRefreshesAfterMutation) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  int64_t before = hierarchy.TotalCounts().positives;
  data.AddRow({0, 0, 1}, 1);
  // Stale until invalidated.
  EXPECT_EQ(hierarchy.TotalCounts().positives, before);
  hierarchy.Invalidate();
  EXPECT_EQ(hierarchy.TotalCounts().positives, before + 1);
}

TEST(HierarchyTest, ParentMasksRemoveOneBit) {
  std::vector<uint32_t> parents = Hierarchy::ParentMasks(0b111);
  std::sort(parents.begin(), parents.end());
  EXPECT_EQ(parents, (std::vector<uint32_t>{0b011, 0b101, 0b110}));
  // Level-1 nodes have no parents here (level 0 is TotalCounts()).
  EXPECT_TRUE(Hierarchy::ParentMasks(0b100).empty());
}

TEST(HierarchyTest, MasksAtLevelHaveRightPopcount) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  std::vector<uint32_t> level1 = hierarchy.MasksAtLevel(1);
  EXPECT_EQ(level1, (std::vector<uint32_t>{0b01, 0b10}));
  std::vector<uint32_t> level2 = hierarchy.MasksAtLevel(2);
  EXPECT_EQ(level2, (std::vector<uint32_t>{0b11}));
}

TEST(HierarchyTest, BottomUpOrderIsLeafFirst) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  std::vector<uint32_t> masks = hierarchy.BottomUpMasks();
  ASSERT_EQ(masks.size(), 3u);
  EXPECT_EQ(masks[0], 0b11u);
  // Levels are non-increasing along the traversal.
  for (size_t i = 1; i < masks.size(); ++i) {
    EXPECT_LE(std::popcount(masks[i]), std::popcount(masks[i - 1]));
  }
}

TEST(HierarchyTest, BottomUpCoversAllNonEmptyMasks) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  std::vector<uint32_t> masks = hierarchy.BottomUpMasks();
  std::sort(masks.begin(), masks.end());
  EXPECT_EQ(masks, (std::vector<uint32_t>{0b01, 0b10, 0b11}));
}

TEST(HierarchyTest, MasksAtLevelEnumeratesCombinationsAscending) {
  Dataset data = RandomFourAttrDataset(1, 50);
  Hierarchy hierarchy(data);
  const int binomial[5] = {1, 4, 6, 4, 1};  // C(4, k)
  for (int level = 1; level <= 4; ++level) {
    std::vector<uint32_t> masks = hierarchy.MasksAtLevel(level);
    EXPECT_EQ(masks.size(), static_cast<size_t>(binomial[level]));
    EXPECT_TRUE(std::is_sorted(masks.begin(), masks.end()));
    for (uint32_t mask : masks) {
      EXPECT_EQ(std::popcount(mask), level);
      EXPECT_EQ(mask & ~hierarchy.LeafMask(), 0u);
    }
  }
}

TEST(HierarchyTest, RollupNodeCountsMatchDirectScan) {
  Dataset data = RandomFourAttrDataset(7, 600);
  Hierarchy hierarchy(data);
  const RegionCounter& counter = hierarchy.counter();
  // Lazy access in arbitrary (not bottom-up) order still has to agree with
  // a direct one-pass scan of every node.
  for (uint32_t mask = 1; mask <= hierarchy.LeafMask(); ++mask) {
    EXPECT_EQ(hierarchy.NodeCounts(mask), counter.CountNode(data, mask))
        << "mask " << mask;
  }
}

TEST(HierarchyTest, EagerBuildMatchesLazyAndDirectScan) {
  Dataset data = RandomFourAttrDataset(11, 400);
  Hierarchy eager(data);
  ASSERT_TRUE(eager.EagerBuild(1).ok());
  Hierarchy lazy(data);
  for (uint32_t mask = 1; mask <= eager.LeafMask(); ++mask) {
    EXPECT_EQ(eager.NodeCounts(mask), lazy.NodeCounts(mask))
        << "mask " << mask;
  }
  EXPECT_EQ(eager.TotalCounts(), lazy.TotalCounts());
}

TEST(HierarchyTest, EagerBuildSingleAndMultiThreadCachesAreIdentical) {
  for (uint64_t seed : {3u, 19u}) {
    Dataset data = RandomFourAttrDataset(seed, 500);
    Hierarchy serial(data);
    ASSERT_TRUE(serial.EagerBuild(1).ok());
    Hierarchy parallel(data);
    ASSERT_TRUE(parallel.EagerBuild(std::max(4, ThreadPool::DefaultThreads())).ok());
    for (uint32_t mask = 1; mask <= serial.LeafMask(); ++mask) {
      EXPECT_EQ(serial.NodeCounts(mask), parallel.NodeCounts(mask))
          << "mask " << mask << " seed " << seed;
    }
  }
}

TEST(HierarchyTest, EagerBuildOnPartiallyBuiltHierarchy) {
  Dataset data = RandomFourAttrDataset(5, 300);
  Hierarchy hierarchy(data);
  hierarchy.NodeCounts(0b0101);  // lazy-build a slice first
  ASSERT_TRUE(hierarchy.EagerBuild(2).ok());
  Hierarchy fresh(data);
  ASSERT_TRUE(fresh.EagerBuild(1).ok());
  for (uint32_t mask = 1; mask <= hierarchy.LeafMask(); ++mask) {
    EXPECT_EQ(hierarchy.NodeCounts(mask), fresh.NodeCounts(mask))
        << "mask " << mask;
  }
}

TEST(HierarchyTest, ApplyDeltaPropagatesToEveryAncestor) {
  Dataset data = RandomFourAttrDataset(21, 200);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  const RegionCounter& counter = hierarchy.counter();
  const uint32_t leaf = hierarchy.LeafMask();

  const uint64_t leaf_key = counter.RowKey(data, 0, leaf);
  const int64_t dp = data.Label(0) == 1 ? -1 : 1;
  const int64_t dn = -dp;  // one label flip of row 0
  hierarchy.ApplyDelta({leaf_key, dp, dn});

  // Every node's entry at the projected key moves by exactly the delta;
  // every other entry is untouched.
  Hierarchy before(data);
  for (uint32_t mask = 1; mask <= leaf; ++mask) {
    const uint64_t key = counter.ProjectKey(leaf_key, leaf, mask);
    for (const auto& [k, counts] : hierarchy.NodeCounts(mask)) {
      RegionCounts expected = before.NodeCounts(mask).at(k);
      if (k == key) {
        expected.positives += dp;
        expected.negatives += dn;
      }
      EXPECT_EQ(counts, expected) << "mask " << mask << " key " << k;
    }
  }
  EXPECT_EQ(hierarchy.TotalCounts().positives,
            before.TotalCounts().positives + dp);
  EXPECT_EQ(hierarchy.TotalCounts().negatives,
            before.TotalCounts().negatives + dn);
}

TEST(HierarchyTest, ApplyDeltasMatchesRebuildOfMutatedDataset) {
  Dataset data = RandomFourAttrDataset(33, 500);
  Hierarchy incremental(data);
  ASSERT_TRUE(incremental.EagerBuild(1).ok());
  const RegionCounter& counter = incremental.counter();
  const uint32_t leaf = incremental.LeafMask();

  // Random flips, duplications, and removals, mirrored as count deltas.
  Rng rng(99);
  Dataset mutated = data;
  std::vector<char> keep(data.NumRows(), 1);
  std::vector<char> touched(data.NumRows(), 0);  // flip/remove once per row
  std::unordered_map<uint64_t, std::pair<int64_t, int64_t>> net;
  for (int step = 0; step < 120; ++step) {
    const int row = rng.UniformInt(data.NumRows());
    const uint64_t key = counter.RowKey(data, row, leaf);
    auto& d = net[key];
    switch (rng.UniformInt(3)) {
      case 0: {  // flip
        if (touched[row]) break;
        touched[row] = 1;
        const int label = mutated.Label(row);
        mutated.SetLabel(row, 1 - label);
        d.first += label == 1 ? -1 : 1;
        d.second += label == 1 ? 1 : -1;
        break;
      }
      case 1: {  // duplicate
        mutated.AppendRowFrom(data, row);
        (data.Label(row) == 1 ? d.first : d.second) += 1;
        break;
      }
      case 2: {  // remove (tombstone in the mirror)
        if (touched[row]) break;
        touched[row] = 1;
        keep[row] = 0;
        (data.Label(row) == 1 ? d.first : d.second) -= 1;
        break;
      }
    }
  }
  // Rebuild the removal side: rows tombstoned by case 2 still sit in
  // `mutated`, so build the reference dataset from scratch instead.
  Dataset reference(data.schema());
  for (int r = 0; r < mutated.NumRows(); ++r) {
    if (r >= data.NumRows() || keep[r]) reference.AppendRowFrom(mutated, r);
  }

  std::vector<Hierarchy::LeafDelta> deltas;
  for (const auto& [key, d] : net) {
    if (d.first != 0 || d.second != 0) {
      deltas.push_back({key, d.first, d.second});
    }
  }
  incremental.ApplyDeltas(deltas);

  Hierarchy rebuilt(reference);
  for (uint32_t mask = 1; mask <= leaf; ++mask) {
    // Delta maintenance keeps entries whose counts reached zero; ignore
    // them when comparing against the rebuilt node.
    std::vector<NodeTable::Entry> nonzero;
    for (const auto& entry : incremental.NodeCounts(mask)) {
      if (entry.second.Total() > 0) nonzero.push_back(entry);
    }
    EXPECT_EQ(nonzero, rebuilt.NodeCounts(mask).entries()) << "mask " << mask;
  }
  EXPECT_EQ(incremental.TotalCounts(), rebuilt.TotalCounts());
}

TEST(HierarchyTest, EagerBuildSingleProtectedAttribute) {
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("a", {"a0", "a1", "a2"}),
  };
  DataSchema schema(std::move(attributes), {0});
  Dataset data(schema);
  data.AddRow({0}, 1);
  data.AddRow({1}, 0);
  data.AddRow({1}, 1);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(4).ok());
  EXPECT_EQ(hierarchy.NodeCounts(0b1).size(), 2u);
  EXPECT_EQ(hierarchy.TotalCounts(), (RegionCounts{2, 1}));
}

// ---------------------------------------------------------------------------
// Rolled-up ApplyDeltas and the maintained counts digest
// ---------------------------------------------------------------------------

// A random lattice: RandomSpec schema (1-4 protected attributes of 2-5
// values) and rows.
Dataset RandomSpecDataset(uint64_t seed, int rows) {
  Rng spec_rng(seed);
  SyntheticSpec spec = RandomSpec(spec_rng);
  spec.num_rows = rows;
  return GenerateSynthetic(spec, seed ^ 0x5a5a);
}

// A random delta batch against the hierarchy's current leaf counts, keys
// in random order: bounded ingest and retractions on existing leaves
// (sometimes draining a leaf to exactly zero), a duplicate key whose
// copies cancel, and — with `insert_missing` — never-seen leaves, one of
// them net zero. Every final count stays non-negative; running sums may
// dip below zero inside the batch.
std::vector<Hierarchy::LeafDelta> RandomDeltaBatch(Hierarchy& hierarchy,
                                                   bool insert_missing,
                                                   Rng& rng) {
  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  std::vector<Hierarchy::LeafDelta> batch;
  std::set<uint64_t> used;
  const int ops = leaves.empty() ? 0 : rng.UniformRange(1, 8);
  for (int op = 0; op < ops; ++op) {
    const auto& [key, counts] = *std::next(
        leaves.begin(), rng.UniformInt(static_cast<int>(leaves.size())));
    if (!used.insert(key).second) continue;
    switch (rng.UniformInt(4)) {
      case 0:  // ingest
        batch.push_back({key, rng.UniformInt(4), rng.UniformInt(4)});
        break;
      case 1:  // retraction to exactly zero
        batch.push_back({key, -counts.positives, -counts.negatives});
        break;
      case 2:  // bounded retraction
        batch.push_back(
            {key, -rng.UniformInt(static_cast<int>(counts.positives) + 1),
             -rng.UniformInt(static_cast<int>(counts.negatives) + 1)});
        break;
      default:  // net-zero duplicate: the second copy cancels the first,
                // after a transient dip below zero
        batch.push_back({key, -(counts.positives + 2), 1});
        batch.push_back({key, counts.positives + 2, -1});
    }
  }
  if (insert_missing) {
    for (int fresh = 0; fresh < 2; ++fresh) {
      uint64_t key = 0;
      for (int i = 0; i < hierarchy.NumProtected(); ++i) {
        key = key * hierarchy.counter().Cardinality(i) +
              rng.UniformInt(hierarchy.counter().Cardinality(i));
      }
      if (!used.insert(key).second) continue;
      if (fresh == 0) {
        batch.push_back({key, 1 + rng.UniformInt(3), rng.UniformInt(3)});
      } else {  // a new key whose copies cancel: inserted with zero counts
        batch.push_back({key, 2, 0});
        batch.push_back({key, -2, 0});
      }
    }
  }
  rng.Shuffle(batch);
  return batch;
}

// The per-delta projection loop ApplyDeltas ran before it rolled batches
// up the lattice — every delta projected into every node and added to the
// entry there, one key at a time — kept here as the reference the rollup
// must reproduce node for node, dirty key for dirty key.
struct ReferenceLattice {
  std::map<uint32_t, std::map<uint64_t, RegionCounts>> nodes;
  std::map<uint32_t, std::set<uint64_t>> touched;
  RegionCounts totals;
  RegionCounts drift;  // net totals change since the touched set was reset
};

ReferenceLattice ReferenceOf(Hierarchy& hierarchy) {
  ReferenceLattice ref;
  for (uint32_t mask = 1; mask <= hierarchy.LeafMask(); ++mask) {
    for (const auto& [key, counts] : hierarchy.NodeCounts(mask)) {
      ref.nodes[mask][key] = counts;
    }
  }
  ref.totals = hierarchy.TotalCounts();
  return ref;
}

void ReferenceApply(const std::vector<Hierarchy::LeafDelta>& deltas,
                    const RegionCounter& counter, uint32_t leaf_mask,
                    ReferenceLattice* ref) {
  for (auto& [mask, table] : ref->nodes) {
    for (const Hierarchy::LeafDelta& delta : deltas) {
      const uint64_t key = counter.ProjectKey(delta.leaf_key, leaf_mask, mask);
      ref->touched[mask].insert(key);
      table[key].positives += delta.delta_positives;
      table[key].negatives += delta.delta_negatives;
    }
  }
  for (const Hierarchy::LeafDelta& delta : deltas) {
    ref->totals.positives += delta.delta_positives;
    ref->totals.negatives += delta.delta_negatives;
    ref->drift.positives += delta.delta_positives;
    ref->drift.negatives += delta.delta_negatives;
  }
}

void ExpectMatchesReference(Hierarchy& hierarchy, const ReferenceLattice& ref,
                            const std::string& where) {
  for (const auto& [mask, table] : ref.nodes) {
    const std::vector<NodeTable::Entry> expected(table.begin(), table.end());
    EXPECT_EQ(hierarchy.NodeCounts(mask).entries(), expected)
        << where << " mask " << mask;
  }
  EXPECT_EQ(hierarchy.TotalCounts(), ref.totals) << where;
  const DirtySet& dirty = hierarchy.dirty_set();
  std::map<uint32_t, std::set<uint64_t>> touched;
  for (const auto& [mask, keys] : dirty.touched) {
    touched[mask] = std::set<uint64_t>(keys.begin(), keys.end());
  }
  EXPECT_EQ(touched, ref.touched) << where;
  EXPECT_EQ(dirty.delta_positives, ref.drift.positives) << where;
  EXPECT_EQ(dirty.delta_negatives, ref.drift.negatives) << where;
}

TEST(HierarchyRollupTest, RollupMatchesPerDeltaProjectionReference) {
  for (int seed = 0; seed < 6; ++seed) {
    for (bool insert_missing : {false, true}) {
      Dataset data = RandomSpecDataset(0x7011u + seed, 300);
      Hierarchy hierarchy(data);
      ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
      hierarchy.EnableDirtyTracking();
      ReferenceLattice ref = ReferenceOf(hierarchy);
      Rng rng(0xba7cu + seed);
      for (int batch = 0; batch < 24; ++batch) {
        const std::string where = "seed " + std::to_string(seed) +
                                  (insert_missing ? " upsert" : " update") +
                                  " batch " + std::to_string(batch);
        const std::vector<Hierarchy::LeafDelta> deltas =
            RandomDeltaBatch(hierarchy, insert_missing, rng);
        hierarchy.ApplyDeltas(deltas, insert_missing);
        ReferenceApply(deltas, hierarchy.counter(), hierarchy.LeafMask(),
                       &ref);
        ExpectMatchesReference(hierarchy, ref, where);
        if (::testing::Test::HasFailure()) return;
        // The dirty set accumulates across batches until cleared.
        if (batch % 3 == 2) {
          hierarchy.ClearDirtySet();
          ref.touched.clear();
          ref.drift = RegionCounts{};
        }
      }
    }
  }
}

TEST(HierarchyRollupTest, TransientDipInsideABatchIsAllowed) {
  Dataset data = ThreeByTwo();
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  const uint64_t digest = hierarchy.CountsDigest();
  // Leaf (0, 0) holds 2 positives: -5 then +5 dips below zero mid-batch but
  // nets to nothing. Only final counts are checked.
  hierarchy.ApplyDeltas({{0, -5, 0}, {0, 5, 0}});
  EXPECT_EQ(hierarchy.NodeCounts(hierarchy.LeafMask()).at(0),
            (RegionCounts{2, 3}));
  EXPECT_EQ(hierarchy.CountsDigest(), digest);
}

// Death tests fork, which TSan instrumentation does not tolerate well;
// the sanitizer twin skips these cases.
#if !defined(REMEDY_TSAN_BUILD)
TEST(HierarchyRollupDeathTest, NegativeFinalCountDies) {
  for (bool insert_missing : {false, true}) {
    Dataset data = ThreeByTwo();
    Hierarchy hierarchy(data);
    ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
    // Leaf (0, 0) holds 2 positives; a batch taking 3 must die, even when
    // its duplicate keys only get there in aggregate.
    EXPECT_DEATH(hierarchy.ApplyDeltas({{0, -3, 0}}, insert_missing),
                 "negative");
    EXPECT_DEATH(hierarchy.ApplyDeltas({{0, -1, 0}, {0, -2, 0}},
                                       insert_missing),
                 "negative");
  }
}

TEST(HierarchyRollupDeathTest, NewKeyWithoutInsertMissingDies) {
  Hierarchy hierarchy(SmallSchema(), NodeTable({{0, {1, 1}}}),
                      RegionCounts{1, 1});
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  EXPECT_DEATH(hierarchy.ApplyDeltas({{3, 1, 0}}), "not in node");
}
#endif

TEST(HierarchyDigestTest, MaintainedDigestMatchesRecomputeAfterEveryStep) {
  const int thread_counts[] = {1, 2, 4, 0};
  for (int seed = 0; seed < 4; ++seed) {
    Dataset data = RandomSpecDataset(0xd16e57u + seed, 400);
    Hierarchy hierarchy(data);
    ASSERT_TRUE(hierarchy.EagerBuild(thread_counts[seed]).ok());
    Rng rng(0x51e9u + seed);
    for (int step = 0; step < 40; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      switch (rng.UniformInt(5)) {
        case 0:
        case 1:  // streaming ingest: new keys, retractions, duplicates
          hierarchy.ApplyDeltas(RandomDeltaBatch(hierarchy, true, rng),
                                /*insert_missing=*/true);
          break;
        case 2: {  // the single-delta form, on an existing leaf
          const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
          const auto& [key, counts] = *std::next(
              leaves.begin(), rng.UniformInt(static_cast<int>(leaves.size())));
          hierarchy.ApplyDelta({key, counts.positives > 0 ? -1 : 1, 1});
          break;
        }
        case 3: {  // rebuild from the rows, at any thread count
          hierarchy.Invalidate();
          ASSERT_TRUE(hierarchy.EagerBuild(thread_counts[step % 4]).ok());
          Hierarchy fresh(data);
          ASSERT_TRUE(fresh.EagerBuild(1).ok());
          EXPECT_EQ(hierarchy.CountsDigest(), fresh.CountsDigest()) << where;
          break;
        }
        default: {  // count-seeded from the current leaves, with and
                    // without their drained (zero-count) entries
          const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
          std::vector<NodeTable::Entry> nonzero;
          for (const auto& entry : leaves) {
            if (entry.second.Total() > 0) nonzero.push_back(entry);
          }
          for (NodeTable seed_leaves : {leaves, NodeTable(nonzero)}) {
            Hierarchy seeded(data.schema(), std::move(seed_leaves),
                             hierarchy.TotalCounts());
            ASSERT_TRUE(seeded.EagerBuild(thread_counts[step % 4]).ok());
            EXPECT_EQ(seeded.CountsDigest(), seeded.RecomputeCountsDigest())
                << where;
            EXPECT_EQ(seeded.CountsDigest(), hierarchy.CountsDigest())
                << where << ": zero-count entries must digest like absent ones";
          }
        }
      }
      EXPECT_EQ(hierarchy.CountsDigest(), hierarchy.RecomputeCountsDigest())
          << where;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(HierarchyDigestTest, RetractedHistoryDigestsLikeNoHistory) {
  // The digest is a function of the non-empty counts alone: a batch and
  // its exact negation — new keys included — leave the digest where it
  // started, although the lattice now holds zero-count entries.
  Dataset data = RandomFourAttrDataset(5, 300);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  const uint64_t start = hierarchy.CountsDigest();
  Rng rng(17);
  std::vector<Hierarchy::LeafDelta> batch =
      RandomDeltaBatch(hierarchy, /*insert_missing=*/true, rng);
  hierarchy.ApplyDeltas(batch, /*insert_missing=*/true);
  EXPECT_EQ(hierarchy.CountsDigest(), hierarchy.RecomputeCountsDigest());
  for (Hierarchy::LeafDelta& delta : batch) {
    delta.delta_positives = -delta.delta_positives;
    delta.delta_negatives = -delta.delta_negatives;
  }
  hierarchy.ApplyDeltas(batch, /*insert_missing=*/true);
  EXPECT_EQ(hierarchy.CountsDigest(), start);
  EXPECT_EQ(hierarchy.RecomputeCountsDigest(), start);
}

}  // namespace
}  // namespace remedy
