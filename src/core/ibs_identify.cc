#include "core/ibs_identify.h"

#include <cmath>

#include "common/check.h"
#include "common/pipeline_metrics.h"
#include "common/trace.h"

namespace remedy {

std::vector<uint32_t> ScopeMasks(const Hierarchy& hierarchy, IbsScope scope) {
  switch (scope) {
    case IbsScope::kLattice:
      return hierarchy.BottomUpMasks();
    case IbsScope::kLeaf:
      return {hierarchy.LeafMask()};
    case IbsScope::kTop: {
      std::vector<uint32_t> masks;
      for (int i = 0; i < hierarchy.NumProtected(); ++i) {
        masks.push_back(1u << i);
      }
      return masks;
    }
  }
  REMEDY_CHECK(false) << "unreachable scope";
  return {};
}

void ScoreRegion(Hierarchy& hierarchy, NeighborhoodCalculator& neighborhood,
                 bool use_optimized, uint32_t mask, uint64_t key,
                 const RegionCounts& counts, const IbsParams& params,
                 std::vector<KeyedRegion>* biased, ScoredTally* tally) {
  if (counts.Total() <= params.min_region_size) return;
  use_optimized ? ++tally->optimized : ++tally->naive;
  Pattern pattern = hierarchy.counter().PatternFor(key, mask);
  RegionCounts neighbor_counts =
      use_optimized ? neighborhood.OptimizedNeighborCounts(pattern, counts)
                    : neighborhood.NaiveNeighborCounts(pattern);
  double ratio = ImbalanceScore(counts);
  double neighbor_ratio = ImbalanceScore(neighbor_counts);
  if (std::abs(ratio - neighbor_ratio) <= params.imbalance_threshold) {
    return;
  }
  biased->emplace_back(key, BiasedRegion{std::move(pattern), counts,
                                         neighbor_counts, ratio,
                                         neighbor_ratio});
}

void ScoreNode(Hierarchy& hierarchy, NeighborhoodCalculator& neighborhood,
               uint32_t mask, const IbsParams& params,
               std::vector<KeyedRegion>* biased, ScoredTally* tally) {
  const bool use_optimized =
      params.algorithm == IbsAlgorithm::kOptimized &&
      neighborhood.SupportsOptimized(mask);
  // NodeTable iteration is already in ascending key order, so the sweep is
  // deterministic without re-sorting, and each entry carries its counts —
  // no second lookup per region.
  for (const auto& [key, counts] : hierarchy.NodeCounts(mask)) {
    ScoreRegion(hierarchy, neighborhood, use_optimized, mask, key, counts,
                params, biased, tally);
  }
}

namespace {

// Publishes a sweep's tallies once, so the per-region loop costs no
// atomics.
void PublishSweep(int64_t nodes, int64_t hits, const ScoredTally& tally) {
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.ibs_nodes_visited->Increment(nodes);
  metrics.ibs_hits->Increment(hits);
  if (tally.optimized > 0) {
    metrics.ibs_neighbor_reuse->Increment(tally.optimized);
  }
  if (tally.naive > 0) metrics.ibs_neighbor_naive->Increment(tally.naive);
}

}  // namespace

std::vector<BiasedRegion> IdentifyIbsInNode(Hierarchy& hierarchy,
                                            uint32_t mask,
                                            const IbsParams& params) {
  NeighborhoodCalculator neighborhood(hierarchy, params.distance_threshold);
  std::vector<KeyedRegion> keyed;
  ScoredTally tally;
  ScoreNode(hierarchy, neighborhood, mask, params, &keyed, &tally);
  PublishSweep(1, static_cast<int64_t>(keyed.size()), tally);
  std::vector<BiasedRegion> biased;
  biased.reserve(keyed.size());
  for (auto& [key, region] : keyed) biased.push_back(std::move(region));
  return biased;
}

std::vector<NodeIbs> SweepIbsByNode(Hierarchy& hierarchy,
                                    const IbsParams& params) {
  NeighborhoodCalculator neighborhood(hierarchy, params.distance_threshold);
  std::vector<NodeIbs> nodes;
  ScoredTally tally;
  int64_t hits = 0;
  for (uint32_t mask : ScopeMasks(hierarchy, params.scope)) {
    REMEDY_TRACE_SPAN_ARG("ibs/node", mask);
    NodeIbs& node = nodes.emplace_back();
    node.mask = mask;
    ScoreNode(hierarchy, neighborhood, mask, params, &node.biased, &tally);
    hits += static_cast<int64_t>(node.biased.size());
  }
  PublishSweep(static_cast<int64_t>(nodes.size()), hits, tally);
  return nodes;
}

std::vector<BiasedRegion> SweepIbs(Hierarchy& hierarchy,
                                   const IbsParams& params) {
  std::vector<BiasedRegion> ibs;
  for (NodeIbs& node : SweepIbsByNode(hierarchy, params)) {
    for (auto& [key, region] : node.biased) ibs.push_back(std::move(region));
  }
  return ibs;
}

namespace {

StatusOr<std::vector<BiasedRegion>> IdentifyWithHierarchy(
    Hierarchy& hierarchy, const IbsParams& params) {
  REMEDY_TRACE_SPAN("ibs/identify");
  hierarchy.SetCountingBackend(params.backend, params.backend_threads);
  // A spilled store maps its shard files here, so a missing or truncated
  // spill is a clean error from IdentifyIbs instead of a crash mid-count.
  RETURN_IF_ERROR(hierarchy.PrepareCounting());
  return SweepIbs(hierarchy, params);
}

}  // namespace

StatusOr<std::vector<BiasedRegion>> IdentifyIbs(const Dataset& data,
                                                const IbsParams& params) {
  if (data.schema().NumProtected() == 0) {
    return InvalidArgumentError(
        "IBS identification needs protected attributes");
  }
  Hierarchy hierarchy(data);
  return IdentifyWithHierarchy(hierarchy, params);
}

StatusOr<std::vector<BiasedRegion>> IdentifyIbs(
    const ColumnarShardStore& store, const IbsParams& params) {
  if (store.schema().NumProtected() == 0) {
    return InvalidArgumentError(
        "IBS identification needs protected attributes");
  }
  Hierarchy hierarchy(store);
  return IdentifyWithHierarchy(hierarchy, params);
}

bool DominatesAnyBiasedRegion(const Pattern& pattern,
                              const std::vector<BiasedRegion>& ibs) {
  for (const BiasedRegion& region : ibs) {
    if (pattern.Dominates(region.pattern)) return true;
  }
  return false;
}

}  // namespace remedy
