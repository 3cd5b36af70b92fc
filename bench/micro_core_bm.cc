// Google-benchmark micro benchmarks for the core operations: region
// counting, hierarchy node materialization, neighbor-count computation
// (naive vs optimized), full IBS identification and the subgroup analysis
// behind the fairness index. These quantify the constant factors behind the
// Fig. 9 curves.

#include <benchmark/benchmark.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/imbalance.h"
#include "datagen/adult.h"
#include "datagen/compas.h"
#include "fairness/divergence.h"

namespace remedy {
namespace {

const Dataset& CompasData() {
  static const Dataset* data = new Dataset(MakeCompas());
  return *data;
}

const Dataset& AdultData(int num_protected) {
  static const Dataset* base = new Dataset(MakeAdult());
  static Dataset* widened = nullptr;
  static int current = -1;
  if (current != num_protected) {
    delete widened;
    widened = new Dataset(*base);
    widened->SetProtected(AdultScalabilityProtected(num_protected));
    current = num_protected;
  }
  return *widened;
}

void BM_CountLeafNode(benchmark::State& state) {
  const Dataset& data = AdultData(static_cast<int>(state.range(0)));
  RegionCounter counter(data.schema());
  const uint32_t leaf = (1u << counter.NumProtected()) - 1u;
  for (auto _ : state) {
    auto counts = counter.CountNode(data, leaf);
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() * data.NumRows());
}
BENCHMARK(BM_CountLeafNode)->Arg(3)->Arg(6)->Arg(8);

void BM_HierarchyAllNodes(benchmark::State& state) {
  const Dataset& data = AdultData(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Hierarchy hierarchy(data);
    for (uint32_t mask : hierarchy.BottomUpMasks()) {
      benchmark::DoNotOptimize(hierarchy.NodeCounts(mask).size());
    }
  }
}
BENCHMARK(BM_HierarchyAllNodes)->Arg(3)->Arg(5)->Arg(6)->Arg(8);

// One rollup step: derive a level-7 node from the |X| = 8 leaf. This is the
// per-node cost the lattice pays instead of a dataset scan.
void BM_RollUpOneLevel(benchmark::State& state) {
  const Dataset& data = AdultData(8);
  RegionCounter counter(data.schema());
  const uint32_t leaf = (1u << counter.NumProtected()) - 1u;
  const NodeTable leaf_table = counter.CountNode(data, leaf);
  const uint32_t parent = leaf & ~1u;
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.RollUp(leaf_table, leaf, parent));
  }
  state.SetItemsProcessed(state.iterations() * leaf_table.size());
}
BENCHMARK(BM_RollUpOneLevel);

// Whole-lattice build through EagerBuild at the given worker count.
void BM_EagerBuild(benchmark::State& state) {
  const Dataset& data = AdultData(8);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Hierarchy hierarchy(data);
    REMEDY_CHECK(hierarchy.EagerBuild(threads).ok());
    benchmark::DoNotOptimize(hierarchy.NodeCounts(hierarchy.LeafMask()));
  }
}
BENCHMARK(BM_EagerBuild)->Arg(1)->Arg(4);

// Binary-search lookups against the flat sorted node storage.
void BM_NodeTableFind(benchmark::State& state) {
  const Dataset& data = AdultData(8);
  RegionCounter counter(data.schema());
  const uint32_t leaf = (1u << counter.NumProtected()) - 1u;
  const NodeTable table = counter.CountNode(data, leaf);
  std::vector<uint64_t> keys;
  keys.reserve(table.size());
  for (const auto& [key, counts] : table) keys.push_back(key);
  for (auto _ : state) {
    for (uint64_t key : keys) {
      benchmark::DoNotOptimize(table.find(key));
    }
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_NodeTableFind);

void BM_NeighborCountsNaive(benchmark::State& state) {
  const Dataset& data = CompasData();
  Hierarchy hierarchy(data);
  NeighborhoodCalculator neighborhood(hierarchy, 1.0);
  const uint32_t leaf = hierarchy.LeafMask();
  const auto& node = hierarchy.NodeCounts(leaf);
  std::vector<Pattern> patterns;
  for (const auto& [key, counts] : node) {
    patterns.push_back(hierarchy.counter().PatternFor(key, leaf));
  }
  for (auto _ : state) {
    for (const Pattern& pattern : patterns) {
      benchmark::DoNotOptimize(
          neighborhood.NaiveNeighborCounts(pattern));
    }
  }
  state.SetItemsProcessed(state.iterations() * patterns.size());
}
BENCHMARK(BM_NeighborCountsNaive);

void BM_NeighborCountsOptimized(benchmark::State& state) {
  const Dataset& data = CompasData();
  Hierarchy hierarchy(data);
  NeighborhoodCalculator neighborhood(hierarchy, 1.0);
  const uint32_t leaf = hierarchy.LeafMask();
  const auto& node = hierarchy.NodeCounts(leaf);
  std::vector<std::pair<Pattern, RegionCounts>> regions;
  for (const auto& [key, counts] : node) {
    regions.emplace_back(hierarchy.counter().PatternFor(key, leaf), counts);
  }
  // Warm the parent-node caches so the steady-state cost is measured.
  for (const auto& [pattern, counts] : regions) {
    benchmark::DoNotOptimize(
        neighborhood.OptimizedNeighborCounts(pattern, counts));
  }
  for (auto _ : state) {
    for (const auto& [pattern, counts] : regions) {
      benchmark::DoNotOptimize(
          neighborhood.OptimizedNeighborCounts(pattern, counts));
    }
  }
  state.SetItemsProcessed(state.iterations() * regions.size());
}
BENCHMARK(BM_NeighborCountsOptimized);

void BM_IdentifyIbs(benchmark::State& state) {
  const Dataset& data = CompasData();
  IbsParams params;
  params.algorithm = state.range(0) == 0 ? IbsAlgorithm::kNaive
                                         : IbsAlgorithm::kOptimized;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IdentifyIbs(data, params).value());
  }
}
BENCHMARK(BM_IdentifyIbs)->Arg(0)->Arg(1);

// The subgroup analysis behind the fairness index (FPR) on the shape of a
// perfbench pipeline's test split: 13.5k Adult rows with |X| = 8, and
// predictions that miss one label in five. Arg = min_support in percent
// (10 is ComputeFairnessIndex's default; 0 is ComputeFairnessViolation's).
void BM_AnalyzeSubgroups(benchmark::State& state) {
  static const Dataset* test = [] {
    Dataset data = MakeAdult(45000);
    data.SetProtected(AdultScalabilityProtected(8));
    Rng rng(3);
    return new Dataset(data.TrainTestSplit(0.7, rng).second);
  }();
  static const std::vector<int>* predictions = [] {
    Rng rng(5);
    auto* out = new std::vector<int>(test->NumRows());
    for (int r = 0; r < test->NumRows(); ++r) {
      (*out)[r] = rng.Bernoulli(0.2) ? 1 - test->Label(r) : test->Label(r);
    }
    return out;
  }();
  const double min_support = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AnalyzeSubgroups(*test, *predictions, Statistic::kFpr, min_support));
  }
  state.SetItemsProcessed(state.iterations() * test->NumRows());
}
BENCHMARK(BM_AnalyzeSubgroups)->Arg(10)->Arg(0)->UseRealTime();

}  // namespace
}  // namespace remedy

BENCHMARK_MAIN();
