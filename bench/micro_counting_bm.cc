// Microbenchmarks of the counting engine behind the lattice: the leaf-node
// tally per counting backend (scalar / simd / sharded) over a streamed
// Adult-schema columnar store, and NodeTable construction over shuffled
// entries (exercising the LSD radix sort vs the comparison-sort fallback).
//
// Run with --metrics-json <file> to also dump the pipeline-metrics snapshot
// (lattice/shard_* and lattice/radix_sort_* land here).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/counting_backend.h"
#include "core/region_counter.h"
#include "data/columnar.h"
#include "datagen/adult.h"
#include "datagen/generator.h"

namespace remedy {
namespace {

constexpr int kBenchRows = 1 << 20;

// One store + counter pair shared by every backend case, built once: the
// benches time counting, not generation.
struct BenchInput {
  ColumnarShardStore store;
  DataSchema schema;
};

const BenchInput& Input() {
  static const BenchInput* input = [] {
    SyntheticSpec spec = AdultSpec(kBenchRows);
    DataSchema schema = spec.MakeSchema();
    spec.protected_indices.clear();
    for (const std::string& name : AdultScalabilityProtected(8)) {
      spec.protected_indices.push_back(schema.AttributeIndex(name));
    }
    auto* built = new BenchInput;
    built->store = GenerateSyntheticStore(spec, /*seed=*/42);
    built->schema = built->store.schema();
    return built;
  }();
  return *input;
}

void BM_CountLeaf(benchmark::State& state, CountingBackendKind kind) {
  const BenchInput& input = Input();
  RegionCounter counter(input.schema);
  const uint32_t leaf_mask = (1u << counter.NumProtected()) - 1;
  std::unique_ptr<CountingBackend> backend = CountingBackend::Create(kind);
  CountingSource source;
  source.store = &input.store;
  const int threads = ThreadPool::DefaultThreads();
  for (auto _ : state) {
    NodeTable node = backend->CountNode(source, counter, leaf_mask, threads);
    benchmark::DoNotOptimize(node);
  }
  state.SetItemsProcessed(state.iterations() * input.store.NumRows());
}

// Wall time, not main-thread CPU time: sharded counts on worker threads,
// so CPU time would overstate its items/s.
BENCHMARK_CAPTURE(BM_CountLeaf, scalar, CountingBackendKind::kScalar)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_CountLeaf, simd, CountingBackendKind::kSimd)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_CountLeaf, sharded, CountingBackendKind::kSharded)
    ->UseRealTime();

// NodeTable construction from shuffled entries: below the radix threshold
// this is the std::sort path, above it the LSD radix sort.
void BM_NodeTableSort(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  std::vector<NodeTable::Entry> base;
  base.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t key =
        static_cast<uint64_t>(rng.UniformInt(static_cast<int>(n) * 4));
    base.push_back({key, RegionCounts{rng.UniformRange(1, 100), 1}});
  }
  for (auto _ : state) {
    std::vector<NodeTable::Entry> entries = base;
    NodeTable table(std::move(entries));
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

BENCHMARK(BM_NodeTableSort)->Arg(256)->Arg(4096)->Arg(65536)->Arg(1 << 20);

}  // namespace
}  // namespace remedy

int main(int argc, char** argv) {
  std::string metrics_path;
  std::vector<char*> args;
  args.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--metrics-json" && i + 1 < argc) {
      metrics_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_path.empty()) {
    remedy::Status written = remedy::WriteMetricsJsonFile(metrics_path);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics snapshot failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("pipeline metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
