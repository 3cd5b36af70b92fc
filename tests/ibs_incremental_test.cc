// Parity suite for the dirty-region incremental identify path
// (core/ibs_incremental.h).
//
// The load-bearing half is randomized equivalence: long delta streams —
// ingest, retractions, remedy-style label flips, brand-new subgroups — are
// applied to a lattice, and after EVERY epoch the incremental identify must
// be byte-identical (same IbsSetDigest, same region-for-region fields) to a
// from-scratch SweepIbs of the same hierarchy, across
// random schemas, both neighbor algorithms, ordinal metrics, whole-node
// distance regimes, and EagerBuild thread counts {1, 2, 4, 0}. The rest
// pins the fallback ladder (cold cache, params change, rebuild, swap,
// explicit Invalidate) and the serve wiring: the daemon's per-epoch IBS
// against a SweepIbs oracle, copy-on-write of the leaf census, and
// WAL-replay recovery forcing a full first identify.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/ibs_incremental.h"
#include "datagen/generator.h"
#include "datagen/random_spec.h"
#include "serve/daemon.h"
#include "test_util.h"

namespace remedy {
namespace {

using remedy::testing::SmallSchema;

#ifdef REMEDY_TSAN_BUILD
// TSan is ~10x slower; the thread-interleaving coverage does not need the
// long streams (the plain binary runs those).
constexpr int kLongStreamEpochs = 40;
constexpr int kSpecSeeds = 2;
constexpr int kShortStreamEpochs = 24;
#else
// The acceptance stream: 200+ epochs of parity on the main workload.
constexpr int kLongStreamEpochs = 220;
constexpr int kSpecSeeds = 4;
constexpr int kShortStreamEpochs = 60;
#endif

// Field-for-field equality with useful failure output; the digest alone
// would say "different" without saying where.
void ExpectSameIbs(const std::vector<BiasedRegion>& incremental,
                   const std::vector<BiasedRegion>& full,
                   const std::string& where) {
  ASSERT_EQ(incremental.size(), full.size()) << where;
  for (size_t i = 0; i < full.size(); ++i) {
    const BiasedRegion& a = incremental[i];
    const BiasedRegion& b = full[i];
    EXPECT_TRUE(a.pattern == b.pattern) << where << " region " << i;
    EXPECT_EQ(a.counts.positives, b.counts.positives) << where << " " << i;
    EXPECT_EQ(a.counts.negatives, b.counts.negatives) << where << " " << i;
    EXPECT_EQ(a.neighbor_counts.positives, b.neighbor_counts.positives)
        << where << " " << i;
    EXPECT_EQ(a.neighbor_counts.negatives, b.neighbor_counts.negatives)
        << where << " " << i;
    // Bit-identity, not approximate agreement: same float ops, same order.
    EXPECT_EQ(a.ratio, b.ratio) << where << " " << i;
    EXPECT_EQ(a.neighbor_ratio, b.neighbor_ratio) << where << " " << i;
  }
  EXPECT_EQ(IbsSetDigest(incremental), IbsSetDigest(full)) << where;
}

// One random delta batch against the hierarchy's CURRENT leaf table:
// insertions into existing leaves, bounded retractions (never driving a
// count negative), remedy-style label flips, and occasionally a brand-new
// leaf key (insert_missing ingest). Pre-aggregated per key, as ApplyDeltas
// requires.
std::vector<Hierarchy::LeafDelta> RandomBatch(Hierarchy& hierarchy,
                                              Rng& rng) {
  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  std::map<uint64_t, std::pair<int64_t, int64_t>> net;
  auto remaining = [&](uint64_t key) -> RegionCounts {
    RegionCounts counts;
    auto it = leaves.find(key);
    if (it != leaves.end()) counts = it->second;
    auto applied = net.find(key);
    if (applied != net.end()) {
      counts.positives += applied->second.first;
      counts.negatives += applied->second.second;
    }
    return counts;
  };
  const int ops = rng.UniformRange(1, 6);
  for (int op = 0; op < ops; ++op) {
    const int kind = rng.UniformInt(4);
    if (kind == 3 || leaves.empty()) {
      // A never-seen subgroup appearing mid-stream.
      Pattern pattern(hierarchy.NumProtected());
      for (int i = 0; i < hierarchy.NumProtected(); ++i) {
        pattern.SetValue(i, rng.UniformInt(hierarchy.counter().Cardinality(i)));
      }
      const uint64_t key =
          hierarchy.counter().KeyFor(pattern, hierarchy.LeafMask());
      auto& entry = net[key];
      entry.first += rng.UniformInt(4);
      entry.second += rng.UniformInt(4);
      continue;
    }
    const uint64_t key =
        std::next(leaves.begin(),
                  rng.UniformInt(static_cast<int>(leaves.size())))
            ->first;
    const RegionCounts counts = remaining(key);
    auto& entry = net[key];
    if (kind == 0) {  // ingest
      entry.first += rng.UniformInt(5);
      entry.second += rng.UniformInt(5);
    } else if (kind == 1) {  // retraction, bounded by what is there
      if (counts.positives > 0) {
        entry.first -=
            rng.UniformInt(static_cast<int>(counts.positives) + 1);
      }
      if (counts.negatives > 0) {
        entry.second -=
            rng.UniformInt(static_cast<int>(counts.negatives) + 1);
      }
    } else {  // remedy-style label flip: totals stay put
      if (counts.positives > 0 && rng.Bernoulli(0.5)) {
        const int flips =
            rng.UniformRange(1, static_cast<int>(counts.positives));
        entry.first -= flips;
        entry.second += flips;
      } else if (counts.negatives > 0) {
        const int flips =
            rng.UniformRange(1, static_cast<int>(counts.negatives));
        entry.first += flips;
        entry.second -= flips;
      }
    }
  }
  std::vector<Hierarchy::LeafDelta> deltas;
  for (const auto& [key, delta] : net) {
    if (delta.first == 0 && delta.second == 0) continue;
    deltas.push_back({key, delta.first, delta.second});
  }
  return deltas;
}

// A census-sized batch against the hierarchy's CURRENT leaf table: about
// nine in ten existing leaves get an ingest, a bounded retraction or a
// label flip, and a few never-seen leaves appear — the shape of a daemon's
// seed census or a bulk backfill. Touching that much of the leaf node
// touches at least as large a share of every coarser node, so every node
// crosses the cutover share.
std::vector<Hierarchy::LeafDelta> CensusBatch(Hierarchy& hierarchy,
                                              Rng& rng) {
  const NodeTable& leaves = hierarchy.NodeCounts(hierarchy.LeafMask());
  std::map<uint64_t, std::pair<int64_t, int64_t>> net;
  for (const auto& [key, counts] : leaves) {
    if (!rng.Bernoulli(0.9)) continue;
    auto& entry = net[key];
    switch (rng.UniformInt(3)) {
      case 0:  // ingest
        entry.first += rng.UniformInt(5);
        entry.second += rng.UniformInt(5);
        break;
      case 1:  // retraction, bounded by what is there
        entry.first -= rng.UniformInt(static_cast<int>(counts.positives) + 1);
        entry.second -= rng.UniformInt(static_cast<int>(counts.negatives) + 1);
        break;
      default:  // label flip of one positive, when there is one
        if (counts.positives > 0) {
          entry.first -= 1;
          entry.second += 1;
        }
    }
  }
  for (int fresh = 0; fresh < 3; ++fresh) {
    Pattern pattern(hierarchy.NumProtected());
    for (int i = 0; i < hierarchy.NumProtected(); ++i) {
      pattern.SetValue(i, rng.UniformInt(hierarchy.counter().Cardinality(i)));
    }
    auto& entry =
        net[hierarchy.counter().KeyFor(pattern, hierarchy.LeafMask())];
    entry.first += 1 + rng.UniformInt(4);
  }
  std::vector<Hierarchy::LeafDelta> deltas;
  for (const auto& [key, delta] : net) {
    if (delta.first == 0 && delta.second == 0) continue;
    deltas.push_back({key, delta.first, delta.second});
  }
  return deltas;
}

// Which incremental paths a parity stream exercised, summed over epochs.
struct StreamPaths {
  int64_t expanded_regions = 0;    // the frontier-expansion merge ran
  int64_t full_node_rescores = 0;  // whole-node re-sweeps (drift, cutover)
};

// Runs `epochs` random batches through one hierarchy, asserting per-epoch
// parity of the incremental state against the from-scratch sweep. Every
// `census_every`-th epoch (0 = never) applies a CensusBatch instead, and
// that epoch must cut every node over: one whole-node re-sweep per node in
// scope and no frontier expansion anywhere.
StreamPaths RunParityStream(Hierarchy& hierarchy, const IbsParams& params,
                            int epochs, uint64_t stream_seed,
                            const std::string& where, int census_every = 0) {
  IncrementalIbsState state;
  StreamPaths paths;
  Rng rng(stream_seed);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const bool census = census_every > 0 && epoch % census_every == 0;
    hierarchy.ApplyDeltas(census ? CensusBatch(hierarchy, rng)
                                 : RandomBatch(hierarchy, rng),
                          /*insert_missing=*/true);
    std::vector<BiasedRegion> incremental = state.Identify(hierarchy, params);
    std::vector<BiasedRegion> full = SweepIbs(hierarchy, params);
    const std::string at = where + " epoch " + std::to_string(epoch);
    ExpectSameIbs(incremental, full, at);
    const IncrementalIdentifyStats& stats = state.last_stats();
    if (epoch > 0) {
      EXPECT_TRUE(stats.incremental)
          << at << " unexpectedly fell back: " << state.last_fallback_reason();
      if (census) {
        EXPECT_EQ(stats.full_node_rescores,
                  static_cast<int64_t>(ScopeMasks(hierarchy, params.scope)
                                           .size()))
            << at << ": a census-sized epoch must cut every node over";
        EXPECT_EQ(stats.expanded_regions, 0) << at;
      }
    }
    paths.expanded_regions += stats.expanded_regions;
    paths.full_node_rescores += stats.full_node_rescores;
    if (::testing::Test::HasFatalFailure()) break;
  }
  return paths;
}

// A two-attribute lattice with `card_a` x `card_b` leaves, every cell
// holding 5–14 positives and 5–14 negatives, plus one strongly positive
// corner so some region is biased. Wide enough that a batch touching one
// or two cells stays below the cutover share of every node, which is what
// the tests of the incremental (non-cutover) paths need.
Dataset WideGrid(int card_a, int card_b, uint64_t seed) {
  std::vector<std::string> a_values;
  std::vector<std::string> b_values;
  for (int i = 0; i < card_a; ++i) a_values.push_back("a" + std::to_string(i));
  for (int i = 0; i < card_b; ++i) b_values.push_back("b" + std::to_string(i));
  std::vector<AttributeSchema> attributes = {AttributeSchema("a", a_values),
                                            AttributeSchema("b", b_values)};
  Dataset data(DataSchema(std::move(attributes), {0, 1}));
  Rng rng(seed);
  for (int a = 0; a < card_a; ++a) {
    for (int b = 0; b < card_b; ++b) {
      const int positives = 5 + rng.UniformInt(10) + (a == 0 && b == 0 ? 40 : 0);
      const int negatives = 5 + rng.UniformInt(10);
      for (int i = 0; i < positives; ++i) data.AddRow({a, b}, 1);
      for (int i = 0; i < negatives; ++i) data.AddRow({a, b}, 0);
    }
  }
  return data;
}

IbsParams TestParams() {
  IbsParams params;
  params.imbalance_threshold = 0.15;
  params.distance_threshold = 1.0;
  params.min_region_size = 5;  // small random data still gets audited
  return params;
}

// ---------------------------------------------------------------------------
// Randomized equivalence over delta streams
// ---------------------------------------------------------------------------

TEST(IbsIncrementalTest, LongStreamParityOnRandomSchema) {
  Rng spec_rng(0xabcdef01u);
  SyntheticSpec spec = RandomSpec(spec_rng);
  spec.num_rows = 600;
  Dataset data = GenerateSynthetic(spec, 7);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  const StreamPaths paths = RunParityStream(
      hierarchy, TestParams(), kLongStreamEpochs, 0x5eed, "long-stream");
  // Small batches on this lattice stay below the cutover share of the
  // leaf node, so the frontier-expansion merge is what this stream checks.
  EXPECT_GT(paths.expanded_regions, 0);
}

TEST(IbsIncrementalTest, CensusSizedEpochsCutOverAndStayDigestIdentical) {
  // Census-sized epochs (most leaves touched) interleaved with small ones:
  // the cutover epochs re-sweep every node whole, the small ones go back to
  // the dirty-region paths, and every epoch stays bit-identical to the full
  // sweep — the cutover changes only the cost.
  for (int seed = 0; seed < kSpecSeeds; ++seed) {
    Rng spec_rng(0xce05u + static_cast<uint64_t>(seed));
    SyntheticSpec spec = RandomSpec(spec_rng);
    spec.num_rows = 500;
    Dataset data = GenerateSynthetic(spec, 300 + seed);
    Hierarchy hierarchy(data);
    ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
    const StreamPaths paths =
        RunParityStream(hierarchy, TestParams(), kShortStreamEpochs,
                        0xc0u + static_cast<uint64_t>(seed),
                        "census spec " + std::to_string(seed),
                        /*census_every=*/5);
    EXPECT_GT(paths.full_node_rescores, 0);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IbsIncrementalTest, ColdStartCensusCutsOverEveryNode) {
  // The daemon's seed path: an empty lattice is identified (cold, full),
  // then one batch carries the whole census. The incremental pass must cut
  // every node over and land exactly on a fresh full sweep.
  Rng spec_rng(0x5eedce);
  SyntheticSpec spec = RandomSpec(spec_rng);
  spec.num_rows = 800;
  Dataset data = GenerateSynthetic(spec, 41);
  Hierarchy counted(data);
  const NodeTable& leaves = counted.NodeCounts(counted.LeafMask());
  std::vector<Hierarchy::LeafDelta> census;
  for (const auto& [key, counts] : leaves) {
    census.push_back({key, counts.positives, counts.negatives});
  }

  Hierarchy hierarchy(data.schema(), NodeTable(), RegionCounts());
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  const IbsParams params = TestParams();
  IncrementalIbsState state;
  EXPECT_TRUE(state.Identify(hierarchy, params).empty());
  hierarchy.ApplyDeltas(census, /*insert_missing=*/true);
  std::vector<BiasedRegion> incremental = state.Identify(hierarchy, params);
  EXPECT_TRUE(state.last_stats().incremental);
  EXPECT_EQ(state.last_stats().full_node_rescores,
            static_cast<int64_t>(ScopeMasks(hierarchy, params.scope).size()));
  EXPECT_EQ(state.last_stats().expanded_regions, 0);
  EXPECT_FALSE(incremental.empty());
  ExpectSameIbs(incremental, SweepIbs(hierarchy, params), "cold census");
}

TEST(IbsIncrementalTest, RandomSchemasBothAlgorithms) {
  for (int seed = 0; seed < kSpecSeeds; ++seed) {
    Rng spec_rng(0x1000u + static_cast<uint64_t>(seed));
    SyntheticSpec spec = RandomSpec(spec_rng);
    spec.num_rows = 400;
    Dataset data = GenerateSynthetic(spec, 100 + seed);
    for (IbsAlgorithm algorithm :
         {IbsAlgorithm::kOptimized, IbsAlgorithm::kNaive}) {
      Hierarchy hierarchy(data);
      ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
      IbsParams params = TestParams();
      params.algorithm = algorithm;
      RunParityStream(hierarchy, params, kShortStreamEpochs,
                      0x900du + static_cast<uint64_t>(seed),
                      "spec " + std::to_string(seed) + " algo " +
                          (algorithm == IbsAlgorithm::kNaive ? "naive"
                                                             : "optimized"));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(IbsIncrementalTest, ParityAcrossThreadCounts) {
  // The same delta stream replayed onto lattices built with different
  // EagerBuild fan-outs must produce identical incremental results — the
  // build is thread-count-invariant and the identify path is downstream of
  // it. Batches are pre-generated once so every replica sees the exact
  // stream (RandomBatch reads the evolving table, so generating per-replica
  // could diverge if a build were wrong — pin the input, compare output).
  Rng spec_rng(0x77);
  SyntheticSpec spec = RandomSpec(spec_rng);
  spec.num_rows = 500;
  Dataset data = GenerateSynthetic(spec, 11);
  std::vector<std::vector<Hierarchy::LeafDelta>> stream;
  {
    Hierarchy scratch(data);
    ASSERT_TRUE(scratch.EagerBuild(1).ok());
    Rng rng(0xfeed);
    for (int epoch = 0; epoch < kShortStreamEpochs; ++epoch) {
      stream.push_back(RandomBatch(scratch, rng));
      scratch.ApplyDeltas(stream.back(), /*insert_missing=*/true);
    }
  }
  const IbsParams params = TestParams();
  std::vector<std::vector<uint64_t>> digests;  // per thread count, per epoch
  for (int threads : {1, 2, 4, 0}) {
    Hierarchy hierarchy(data);
    ASSERT_TRUE(hierarchy.EagerBuild(threads).ok());
    IncrementalIbsState state;
    std::vector<uint64_t> epoch_digests;
    for (size_t epoch = 0; epoch < stream.size(); ++epoch) {
      hierarchy.ApplyDeltas(stream[epoch], /*insert_missing=*/true);
      std::vector<BiasedRegion> incremental =
          state.Identify(hierarchy, params);
      std::vector<BiasedRegion> full = SweepIbs(hierarchy, params);
      ExpectSameIbs(incremental, full,
                    "threads " + std::to_string(threads) + " epoch " +
                        std::to_string(epoch));
      epoch_digests.push_back(IbsSetDigest(incremental));
      if (::testing::Test::HasFatalFailure()) return;
    }
    digests.push_back(std::move(epoch_digests));
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0])
        << "thread-count variant " << i << " diverged";
  }
}

TEST(IbsIncrementalTest, OrdinalMetricsAndFractionalThreshold) {
  // Ordinal protected attributes break the unit-distance assumption: the
  // frontier expansion must honor |code_a - code_b| metrics through the
  // naive enumeration. T = 1.5 keeps neighborhoods proper subsets of the
  // nodes (no whole-node shortcut) and reaches 2 steps along the ordinal.
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("age", {"a0", "a1", "a2", "a3", "a4"},
                      /*ordinal=*/true),
      AttributeSchema("group", {"g0", "g1", "g2"}),
      AttributeSchema("f", {"f0", "f1"}),
  };
  DataSchema schema(std::move(attributes), {0, 1});
  Dataset data(schema);
  Rng rows(0x0dd);
  for (int i = 0; i < 400; ++i) {
    const int age = rows.UniformInt(5);
    const int group = rows.UniformInt(3);
    const int label = rows.Bernoulli(0.3 + 0.1 * age) ? 1 : 0;
    data.AddRow({age, group, label}, label);
  }
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  IbsParams params = TestParams();
  params.algorithm = IbsAlgorithm::kNaive;
  params.distance_threshold = 1.5;
  RunParityStream(hierarchy, params, kShortStreamEpochs, 0xbead, "ordinal");
}

TEST(IbsIncrementalTest, OrdinalMetricsFrontierOnAWideLattice) {
  // The ordinal frontier again, on a lattice wide enough (60 x 3 leaves)
  // that a small batch stays below the leaf node's cutover share: the
  // |code_a - code_b| expansion itself must run and stay bit-identical.
  std::vector<std::string> ages;
  for (int i = 0; i < 60; ++i) ages.push_back("a" + std::to_string(i));
  std::vector<AttributeSchema> attributes = {
      AttributeSchema("age", ages, /*ordinal=*/true),
      AttributeSchema("group", {"g0", "g1", "g2"}),
  };
  DataSchema schema(std::move(attributes), {0, 1});
  Dataset data(schema);
  Rng rows(0x0dde);
  for (int i = 0; i < 3000; ++i) {
    const int age = rows.UniformInt(60);
    const int group = rows.UniformInt(3);
    data.AddRow({age, group}, rows.Bernoulli(0.2 + 0.01 * age) ? 1 : 0);
  }
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  IbsParams params = TestParams();
  params.algorithm = IbsAlgorithm::kNaive;
  params.distance_threshold = 1.5;
  const StreamPaths paths = RunParityStream(
      hierarchy, params, kShortStreamEpochs, 0xbeae, "wide ordinal");
  EXPECT_GT(paths.expanded_regions, 0);
}

TEST(IbsIncrementalTest, WholeNodeRegimeTotalsDriftAndSteadyFlips) {
  // T = 8 >= every node diameter of a two-attribute lattice: r_n = totals
  // - r everywhere. Flip-only batches keep the totals steady (only dirty
  // regions re-score); ingest batches drift them (whole nodes re-sweep).
  // Both paths must stay bit-identical to the full sweep. The 50 x 50 grid
  // keeps the two flipped cells below the cutover share of every node.
  constexpr int kCard = 50;
  Dataset data = WideGrid(kCard, kCard, 0x9a1d);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  IbsParams params = TestParams();
  params.distance_threshold = 8.0;
  IncrementalIbsState state;
  (void)state.Identify(hierarchy, params);  // warm the cache

  // Remedy-style flips: totals steady, per-region counts move.
  hierarchy.ApplyDeltas({{0 * kCard + 0, -3, 3}, {1 * kCard + 1, 3, -3}},
                        /*insert_missing=*/true);
  std::vector<BiasedRegion> incremental = state.Identify(hierarchy, params);
  ExpectSameIbs(incremental, SweepIbs(hierarchy, params), "steady flips");
  EXPECT_TRUE(state.last_stats().incremental);
  EXPECT_EQ(state.last_stats().full_node_rescores, 0)
      << "steady totals must not trigger whole-node re-sweeps";

  // Ingest: the totals drift, every whole-node neighborhood moves.
  hierarchy.ApplyDeltas({{0 * kCard + 1, 7, 0}}, /*insert_missing=*/true);
  incremental = state.Identify(hierarchy, params);
  ExpectSameIbs(incremental, SweepIbs(hierarchy, params), "totals drift");
  EXPECT_TRUE(state.last_stats().incremental);
  EXPECT_GT(state.last_stats().full_node_rescores, 0);
}

// ---------------------------------------------------------------------------
// IbsSetDigest
// ---------------------------------------------------------------------------

TEST(IbsSetDigestTest, PinnedValuesCoverEveryFieldAndTheOrder) {
  // The digest is compared across builds and files (fig9, the oocore
  // suite, BENCH_*.json), so its values are part of its contract: these
  // constants were produced before the digest moved onto common/hash.h.
  std::vector<BiasedRegion> ibs;
  EXPECT_EQ(IbsSetDigest(ibs), 0xa8c7f832281a39c5ull);

  BiasedRegion a;
  a.pattern = Pattern(std::vector<int>{1, Pattern::kWildcard, 0});
  a.counts = {40, 10};
  a.neighbor_counts = {15, 35};
  a.ratio = 4.0;
  a.neighbor_ratio = 15.0 / 35.0;
  BiasedRegion b;
  b.pattern = Pattern(std::vector<int>{Pattern::kWildcard, 2});
  b.counts = {3, 27};
  b.neighbor_counts = {60, 40};
  b.ratio = 3.0 / 27.0;
  b.neighbor_ratio = 1.5;

  ibs = {a};
  EXPECT_EQ(IbsSetDigest(ibs), 0x9b83064bab540e07ull);
  ibs = {a, b};
  EXPECT_EQ(IbsSetDigest(ibs), 0xf93129ca4c900d9aull);
  ibs = {b, a};  // order is part of the identity
  EXPECT_EQ(IbsSetDigest(ibs), 0xa5c99637bfff013aull);

  // Each field moves the digest, the ratio bits included.
  const uint64_t base = IbsSetDigest({a});
  BiasedRegion changed = a;
  changed.pattern = Pattern(std::vector<int>{1, 0, Pattern::kWildcard});
  EXPECT_NE(IbsSetDigest({changed}), base) << "mask";
  changed = a;
  changed.neighbor_counts.negatives += 1;
  EXPECT_NE(IbsSetDigest({changed}), base) << "neighbor counts";
  changed = a;
  changed.neighbor_ratio = std::nextafter(a.neighbor_ratio, 1.0);
  EXPECT_NE(IbsSetDigest({changed}), base) << "ratio bits";
}

// ---------------------------------------------------------------------------
// Fallback ladder + stats accounting
// ---------------------------------------------------------------------------

TEST(IbsIncrementalTest, FallbackReasonsCoverTheLadder) {
  Dataset data = remedy::testing::GridDataset({{{30, 10}, {10, 10}},
                                               {{10, 10}, {10, 10}},
                                               {{10, 10}, {10, 10}}});
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  IbsParams params = TestParams();
  IncrementalIbsState state;

  (void)state.Identify(hierarchy, params);
  EXPECT_FALSE(state.last_stats().incremental);
  EXPECT_EQ(state.last_fallback_reason(), "cold_cache");
  EXPECT_TRUE(state.has_cache());

  // Params change invalidates every cached verdict.
  params.imbalance_threshold = 0.3;
  (void)state.Identify(hierarchy, params);
  EXPECT_FALSE(state.last_stats().incremental);
  EXPECT_EQ(state.last_fallback_reason(), "params_changed");

  // A rebuild from the row source moves the mutation generation: the
  // interim counts changed in ways no dirty set describes.
  hierarchy.Invalidate();
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  (void)state.Identify(hierarchy, params);
  EXPECT_FALSE(state.last_stats().incremental);
  EXPECT_EQ(state.last_fallback_reason(), "lattice_rebuilt");

  // A different hierarchy object entirely.
  Hierarchy other(data);
  ASSERT_TRUE(other.EagerBuild(1).ok());
  (void)state.Identify(other, params);
  EXPECT_FALSE(state.last_stats().incremental);
  EXPECT_EQ(state.last_fallback_reason(), "hierarchy_swapped");

  // Explicit Invalidate (the daemon's recovery path).
  state.Invalidate("recovery");
  (void)state.Identify(other, params);
  EXPECT_FALSE(state.last_stats().incremental);
  EXPECT_EQ(state.last_fallback_reason(), "recovery");

  // With a warm cache and no interim deltas, everything serves from cache.
  std::vector<BiasedRegion> cached = state.Identify(other, params);
  EXPECT_TRUE(state.last_stats().incremental);
  EXPECT_EQ(state.last_stats().rescored_regions, 0);
  EXPECT_EQ(state.last_stats().dirty_leaves, 0);
  ExpectSameIbs(cached, SweepIbs(other, params), "all-cached epoch");
  // Sticky: the incremental pass keeps the last fallback reason readable.
  EXPECT_EQ(state.last_fallback_reason(), "recovery");
}

TEST(IbsIncrementalTest, StatsAccountDirtyAndExpandedRegions) {
  // 5 x 5 leaves: one dirty leaf is 4% of the leaf node, below the cutover
  // share, so the leaf takes the frontier-expansion path.
  Dataset data = WideGrid(5, 5, 0x57a7);
  Hierarchy hierarchy(data);
  ASSERT_TRUE(hierarchy.EagerBuild(1).ok());
  const IbsParams params = TestParams();
  IncrementalIbsState state;
  (void)state.Identify(hierarchy, params);

  hierarchy.ApplyDeltas({{0, 2, 1}}, /*insert_missing=*/true);
  (void)state.Identify(hierarchy, params);
  const IncrementalIdentifyStats& stats = state.last_stats();
  EXPECT_TRUE(stats.incremental);
  EXPECT_EQ(stats.dirty_leaves, 1);
  // One leaf delta projects into one region per node; the leaf node also
  // pulls its T-neighborhood into the re-evaluation set.
  EXPECT_GT(stats.dirty_regions, 0);
  EXPECT_GT(stats.expanded_regions, 0);
  EXPECT_GT(stats.rescored_regions, 0);
}

// ---------------------------------------------------------------------------
// Serve wiring: daemon parity, copy-on-write census, recovery fallback
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name + "_" + std::to_string(::getpid());
}

std::string FreshDir(const std::string& name) {
  static int counter = 0;
  const std::string dir =
      TempPath("ibs_incr_" + name + "_" + std::to_string(counter++));
  std::remove((dir + "/" + ServeDaemon::kWalFileName).c_str());
  std::remove((dir + "/" + ServeDaemon::kCheckpointFileName).c_str());
  ::rmdir(dir.c_str());
  return dir;
}

ServeOptions DaemonOptions(const std::string& dir) {
  ServeOptions options;
  options.state_dir = dir;
  options.ibs.min_region_size = 2;
  options.ibs.imbalance_threshold = 0.2;
  return options;
}

// SmallSchema leaf keys: a (3 values) then b (2 values), key = a * 2 + b.
Hierarchy::LeafDelta Delta(int a, int b, int64_t dp, int64_t dn) {
  return {static_cast<uint64_t>(a * 2 + b), dp, dn};
}

// Pulls "key":"value" or "key":value out of the daemon's health JSON.
std::string HealthField(const std::string& json, const std::string& key) {
  const std::string quoted = "\"" + key + "\":";
  const size_t at = json.find(quoted);
  if (at == std::string::npos) return "";
  size_t begin = at + quoted.size();
  size_t end;
  if (json[begin] == '"') {
    ++begin;
    end = json.find('"', begin);
  } else {
    end = json.find_first_of(",}", begin);
  }
  return json.substr(begin, end - begin);
}

// The monitor's view of an IBS: (node mask, region key) per subgroup, in
// output order.
std::vector<std::pair<uint32_t, uint64_t>> SubgroupKeys(
    const std::vector<BiasedRegion>& ibs, const DataSchema& schema) {
  const RegionCounter counter(schema);
  std::vector<std::pair<uint32_t, uint64_t>> keys;
  for (const BiasedRegion& region : ibs) {
    const uint32_t mask = region.pattern.DeterministicMask();
    keys.emplace_back(mask, counter.KeyFor(region.pattern, mask));
  }
  return keys;
}

// The daemon's incremental identify against the from-scratch sweep: after
// every batch its published IBS must equal SweepIbs over an independent
// hierarchy, count-seeded as the daemon's cold start is and fed the same
// deltas.
TEST(IbsIncrementalServeTest, DaemonModesProduceIdenticalIbs) {
  const DataSchema schema = SmallSchema();
  const ServeOptions options = DaemonOptions(FreshDir("oracle"));
  auto daemon = ServeDaemon::Start(schema, options);
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  Hierarchy oracle(schema, NodeTable{}, RegionCounts{});
  ASSERT_TRUE(oracle.EagerBuild(1).ok());

  Rng rng(0x1ce);
  // Epoch 1 (the empty start) identified an empty set; alerts count the
  // identify epochs after it whose subgroup set differs from the last.
  std::vector<std::pair<uint32_t, uint64_t>> previous_keys;
  int expected_alerts = 0;
  for (int batch = 0; batch < 25; ++batch) {
    std::vector<Hierarchy::LeafDelta> deltas;
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 2; ++b) {
        if (rng.Bernoulli(0.4)) {
          deltas.push_back(Delta(a, b, rng.UniformInt(5), rng.UniformInt(5)));
        }
      }
    }
    if (deltas.empty()) deltas.push_back(Delta(0, 0, 1, 1));
    ASSERT_TRUE(daemon.value()->Submit(deltas).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    oracle.ApplyDeltas(deltas, /*insert_missing=*/true);
    EXPECT_EQ(daemon.value()->Snapshot()->counts_digest, oracle.CountsDigest());
    const std::vector<BiasedRegion> served = daemon.value()->QueryIbs();
    EXPECT_EQ(IbsSetDigest(served), IbsSetDigest(SweepIbs(oracle, options.ibs)))
        << "daemon diverged from the sweep oracle at batch " << batch;
    // The monitor alerts exactly on the epochs whose subgroup set changed.
    std::vector<std::pair<uint32_t, uint64_t>> keys =
        SubgroupKeys(served, schema);
    if (keys != previous_keys) ++expected_alerts;
    previous_keys = std::move(keys);
    EXPECT_EQ(HealthField(daemon.value()->HealthJson(), "monitor_alerts"),
              std::to_string(expected_alerts))
        << "batch " << batch;
  }
  EXPECT_GT(expected_alerts, 0) << "the stream never moved the subgroup set";
  EXPECT_EQ(HealthField(daemon.value()->HealthJson(), "last_epoch_incremental"),
            "true");
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(IbsIncrementalServeTest, LeafCensusIsCopiedOnWriteOnly) {
  // A publish with no committed leaf change must share the previous
  // epoch's census table instead of deep-copying it. The zero-apply epoch
  // here comes from a validation-dropped batch: duplicate keys that
  // underflow in aggregate are rejected before the WAL, but the drained
  // group still publishes.
  const DataSchema schema = SmallSchema();
  ServeOptions options = DaemonOptions(FreshDir("cow"));
  options.enable_remedy = true;  // snapshots carry the census only then
  auto daemon = ServeDaemon::Start(schema, options);
  ASSERT_TRUE(daemon.ok()) << daemon.status();

  ASSERT_TRUE(daemon.value()->Submit({Delta(0, 0, 8, 2)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  std::shared_ptr<const EpochSnapshot> applied = daemon.value()->Snapshot();
  ASSERT_NE(applied->leaf_counts, nullptr);

  ASSERT_TRUE(
      daemon.value()->Submit({Delta(0, 0, -5, 0), Delta(0, 0, -5, 0)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  std::shared_ptr<const EpochSnapshot> dropped = daemon.value()->Snapshot();
  EXPECT_GT(dropped->epoch, applied->epoch);
  EXPECT_EQ(dropped->leaf_counts.get(), applied->leaf_counts.get())
      << "a no-change epoch deep-copied the leaf census";

  // A committed change must produce a fresh table (and fresh contents).
  ASSERT_TRUE(daemon.value()->Submit({Delta(1, 1, 3, 3)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  std::shared_ptr<const EpochSnapshot> changed = daemon.value()->Snapshot();
  EXPECT_NE(changed->leaf_counts.get(), dropped->leaf_counts.get());
  EXPECT_EQ(changed->leaf_counts->at(static_cast<uint64_t>(3)).positives, 3);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(IbsIncrementalServeTest, RecoveryForcesFullIdentifyThenIncremental) {
  const DataSchema schema = SmallSchema();
  const std::string dir = FreshDir("recovery");
  {
    auto daemon = ServeDaemon::Start(schema, DaemonOptions(dir));
    ASSERT_TRUE(daemon.ok()) << daemon.status();
    // A cold start is a full pass too, and says so.
    EXPECT_EQ(HealthField(daemon.value()->HealthJson(), "fallback_reason"),
              "cold_start");

    ASSERT_TRUE(daemon.value()->Submit({Delta(0, 0, 6, 2)}).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    const std::string health = daemon.value()->HealthJson();
    EXPECT_EQ(HealthField(health, "last_epoch_incremental"), "true")
        << health;

    // Kill: the shutdown checkpoint fails, stranding the WAL for replay —
    // the state a SIGKILL leaves behind.
    FaultInjector injector;
    injector.FailAlways("wal/fsync");
    EXPECT_FALSE(daemon.value()->Stop().ok());
  }
  auto daemon = ServeDaemon::Start(schema, DaemonOptions(dir));
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  // WAL replay rebuilt the lattice behind the incremental state's back:
  // the first post-recovery identify must be a full sweep and say why.
  std::string health = daemon.value()->HealthJson();
  EXPECT_EQ(HealthField(health, "fallback_reason"), "recovery") << health;
  EXPECT_EQ(HealthField(health, "last_epoch_incremental"), "false") << health;
  EXPECT_EQ(daemon.value()->Snapshot()->totals.positives, 6);

  // The very next committed epoch identifies incrementally again.
  ASSERT_TRUE(daemon.value()->Submit({Delta(2, 1, 1, 4)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  health = daemon.value()->HealthJson();
  EXPECT_EQ(HealthField(health, "last_epoch_incremental"), "true") << health;
  EXPECT_EQ(HealthField(health, "fallback_reason"), "recovery") << health;
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

}  // namespace
}  // namespace remedy
