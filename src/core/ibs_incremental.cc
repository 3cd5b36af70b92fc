#include "core/ibs_incremental.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/pipeline_metrics.h"
#include "common/trace.h"
#include "core/imbalance.h"

namespace remedy {
namespace {

// The params fields a cached verdict depends on (backend choice only moves
// where counts come from, and counts are bit-identical across backends).
bool SameParams(const IbsParams& a, const IbsParams& b) {
  return a.imbalance_threshold == b.imbalance_threshold &&
         a.distance_threshold == b.distance_threshold &&
         a.min_region_size == b.min_region_size && a.scope == b.scope &&
         a.algorithm == b.algorithm;
}

}  // namespace

std::string IncrementalIbsState::FullPassReason(const Hierarchy& hierarchy,
                                                const IbsParams& params) const {
  if (!pending_reason_.empty()) return pending_reason_;
  if (!have_cache_) return "cold_cache";
  if (cached_hierarchy_ != &hierarchy) return "hierarchy_swapped";
  if (cached_generation_ != hierarchy.mutation_generation()) {
    return "lattice_rebuilt";
  }
  if (!SameParams(cached_params_, params)) return "params_changed";
  if (!hierarchy.dirty_tracking()) return "tracking_disabled";
  return "";
}

std::vector<BiasedRegion> IncrementalIbsState::FullPass(
    Hierarchy& hierarchy, const IbsParams& params, const std::string& reason) {
  REMEDY_TRACE_SPAN("ibs_incr/full_pass");
  PipelineMetrics::Get().ibs_incr_full_fallbacks->Increment();
  stats_ = {};
  last_fallback_reason_ = reason;
  nodes_ = SweepIbsByNode(hierarchy, params);
  have_cache_ = true;
  pending_reason_.clear();
  cached_hierarchy_ = &hierarchy;
  cached_params_ = params;
  // From here on the dirty set describes exactly what diverges from the
  // cache; the generation stamp catches anything it would not.
  hierarchy.EnableDirtyTracking();
  hierarchy.ClearDirtySet();
  cached_generation_ = hierarchy.mutation_generation();
  return CachedIbs();
}

std::vector<BiasedRegion> IncrementalIbsState::CachedIbs() const {
  size_t total = 0;
  for (const NodeIbs& node : nodes_) total += node.biased.size();
  std::vector<BiasedRegion> out;
  out.reserve(total);
  for (const NodeIbs& node : nodes_) {
    for (const auto& [key, region] : node.biased) out.push_back(region);
  }
  return out;
}

std::vector<BiasedRegion> IncrementalIbsState::Identify(
    Hierarchy& hierarchy, const IbsParams& params) {
  const std::string reason = FullPassReason(hierarchy, params);
  if (!reason.empty()) return FullPass(hierarchy, params, reason);

  REMEDY_TRACE_SPAN("ibs_incr/identify");
  const int64_t start_ns = MonotonicNanos();
  stats_ = {};
  stats_.incremental = true;
  const DirtySet& dirty = hierarchy.dirty_set();
  const bool totals_drifted =
      dirty.delta_positives != 0 || dirty.delta_negatives != 0;
  {
    auto leaf_it = dirty.touched.find(hierarchy.LeafMask());
    if (leaf_it != dirty.touched.end()) {
      stats_.dirty_leaves = static_cast<int64_t>(leaf_it->second.size());
    }
  }

  NeighborhoodCalculator neighborhood(hierarchy, params.distance_threshold);
  ScoredTally tally;
  for (NodeIbs& cached : nodes_) {
    const uint32_t mask = cached.mask;
    auto dirty_it = dirty.touched.find(mask);
    const bool node_dirty =
        dirty_it != dirty.touched.end() && !dirty_it->second.empty();
    const bool whole_node = neighborhood.WholeNodeNeighborhood(mask);

    // Untouched node outside the totals-dependent regime: every region's
    // own counts and neighborhood counts are unchanged, so every cached
    // verdict is exact.
    if (!node_dirty && !(whole_node && totals_drifted)) {
      stats_.cached_regions += static_cast<int64_t>(cached.biased.size());
      continue;
    }

    const NodeTable& node = hierarchy.NodeCounts(mask);
    const size_t num_dirty = node_dirty ? dirty_it->second.size() : 0;
    stats_.dirty_regions += static_cast<int64_t>(num_dirty);

    // Re-sweep the whole node when
    //  * T >= node diameter and the totals drifted: r_n = totals - r for
    //    every region, so the drift moves every neighborhood at once (these
    //    nodes are the coarse, small ones); or
    //  * the cutover: the dirty keys reach kCutoverDirtyShare of the node's
    //    entries, where expanding and merging their frontier would cost
    //    more than scoring every entry once.
    std::vector<KeyedRegion> fresh;
    if ((whole_node && totals_drifted) ||
        static_cast<double>(num_dirty) >=
            kCutoverDirtyShare * static_cast<double>(node.size())) {
      ++stats_.full_node_rescores;
      ScoreNode(hierarchy, neighborhood, mask, params, &fresh, &tally);
      cached.biased = std::move(fresh);
      continue;
    }

    // Re-evaluation set: the dirty keys (own counts changed), plus — when
    // a neighborhood is a proper subset of the node — every region within
    // distance T of a dirty key (its neighbor sum includes the change; the
    // metric is symmetric). In the whole-node regime with steady totals,
    // clean regions keep r_n = totals - r unchanged, so no expansion.
    std::vector<uint64_t> reeval(dirty_it->second.begin(),
                                 dirty_it->second.end());
    if (!whole_node) {
      for (size_t i = 0; i < num_dirty; ++i) {
        Pattern pattern = hierarchy.counter().PatternFor(reeval[i], mask);
        neighborhood.AppendNeighborKeys(pattern, &reeval);
      }
    }
    std::sort(reeval.begin(), reeval.end());
    reeval.erase(std::unique(reeval.begin(), reeval.end()), reeval.end());
    if (!whole_node) {
      stats_.expanded_regions += static_cast<int64_t>(reeval.size()) -
                                 static_cast<int64_t>(num_dirty);
    }

    // Merge: walk the cached biased verdicts and the re-evaluation keys in
    // one ascending-key sweep — the NodeTable iteration order of the full
    // sweep — keeping untouched verdicts and re-scoring the rest.
    const bool use_optimized = params.algorithm == IbsAlgorithm::kOptimized &&
                               neighborhood.SupportsOptimized(mask);
    size_t ci = 0;
    size_t ri = 0;
    while (ci < cached.biased.size() || ri < reeval.size()) {
      if (ri == reeval.size() ||
          (ci < cached.biased.size() && cached.biased[ci].first < reeval[ri])) {
        fresh.push_back(std::move(cached.biased[ci]));
        ++stats_.cached_regions;
        ++ci;
        continue;
      }
      const uint64_t key = reeval[ri++];
      if (ci < cached.biased.size() && cached.biased[ci].first == key) {
        ++ci;  // superseded by the re-score below
      }
      auto it = node.find(key);
      // A frontier key with no table entry is a region the full sweep never
      // visits (it iterates entries only) — nothing to score.
      if (it == node.end()) continue;
      ScoreRegion(hierarchy, neighborhood, use_optimized, mask, key,
                  it->second, params, &fresh, &tally);
    }
    cached.biased = std::move(fresh);
  }
  hierarchy.ClearDirtySet();
  cached_generation_ = hierarchy.mutation_generation();
  stats_.rescored_regions = tally.optimized + tally.naive;
  std::vector<BiasedRegion> out = CachedIbs();

  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.ibs_incr_dirty_leaves->Increment(stats_.dirty_leaves);
  metrics.ibs_incr_rescored_regions->Increment(stats_.rescored_regions);
  metrics.ibs_incr_neighborhood_expansions->Increment(
      stats_.expanded_regions);
  metrics.ibs_incr_cache_hits->Increment(stats_.cached_regions);
  if (tally.optimized > 0) {
    metrics.ibs_neighbor_reuse->Increment(tally.optimized);
  }
  if (tally.naive > 0) metrics.ibs_neighbor_naive->Increment(tally.naive);
  metrics.ibs_incr_identify_ns->Observe(MonotonicNanos() - start_ns);
  return out;
}

uint64_t IncrementalIbsState::SubgroupKeyDigest() const {
  uint64_t digest = kFnv1a64Offset;
  for (const NodeIbs& cached : nodes_) {
    for (const auto& [key, region] : cached.biased) {
      uint8_t bytes[12];
      for (int i = 0; i < 4; ++i) bytes[i] = (cached.mask >> (8 * i)) & 0xff;
      for (int i = 0; i < 8; ++i) bytes[4 + i] = (key >> (8 * i)) & 0xff;
      digest = Fnv1a64(bytes, sizeof(bytes), digest);
    }
  }
  return digest;
}

void IncrementalIbsState::Invalidate(const std::string& reason) {
  pending_reason_ = reason.empty() ? "invalidated" : reason;
  have_cache_ = false;
  nodes_.clear();
}

uint64_t IbsSetDigest(const std::vector<BiasedRegion>& ibs) {
  uint64_t digest = kFnv1a64Offset;
  auto mix = [&digest](uint64_t value) {
    digest = Fnv1a64U64(digest, value);
  };
  auto mix_double = [&mix](double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<uint64_t>(ibs.size()));
  for (const BiasedRegion& region : ibs) {
    mix(region.pattern.DeterministicMask());
    mix(static_cast<uint64_t>(region.pattern.Arity()));
    for (int i = 0; i < region.pattern.Arity(); ++i) {
      mix(static_cast<uint64_t>(
          static_cast<int64_t>(region.pattern.Value(i))));
    }
    mix(static_cast<uint64_t>(region.counts.positives));
    mix(static_cast<uint64_t>(region.counts.negatives));
    mix(static_cast<uint64_t>(region.neighbor_counts.positives));
    mix(static_cast<uint64_t>(region.neighbor_counts.negatives));
    mix_double(region.ratio);
    mix_double(region.neighbor_ratio);
  }
  return digest;
}

}  // namespace remedy
